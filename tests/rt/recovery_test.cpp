#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "rt/runtime.h"

namespace legate::rt {
namespace {

sim::Machine gpu_machine(int n) {
  sim::PerfParams pp;
  return sim::Machine::gpus(n, pp);
}

/// Fill `s` with `v` via a regular point-task launch; returns the future.
/// `bytes_per_elem` sets the recorded cost (a long kernel makes its readers
/// wait on it rather than on the control lane).
Future run_fill(Runtime& rt, Store& s, double v, double bytes_per_elem = 8) {
  TaskLauncher launch(rt, "fill");
  int out = launch.add_output(s);
  launch.set_leaf([out, v, bytes_per_elem](TaskContext& ctx) {
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = v;
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(out);
    return TaskCost{static_cast<double>(iv.size()) * bytes_per_elem, 0};
  });
  return launch.execute();
}

Future run_sum(Runtime& rt, Store& s) {
  TaskLauncher launch(rt, "sum");
  int in = launch.add_input(s);
  launch.reduce_scalar(ScalarRedop::Sum);
  launch.set_leaf([in](TaskContext& ctx) {
    auto x = ctx.full<double>(in);
    Interval iv = ctx.elem_interval(in);
    double acc = 0;
    for (coord_t i = iv.lo; i < iv.hi; ++i) acc += x[i];
    ctx.contribute(acc);
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(in);
    return TaskCost{static_cast<double>(iv.size()) * 8, static_cast<double>(iv.size())};
  });
  return launch.execute();
}

// The fault cases below each take the comm mode and whether to inject their
// faults (`inject` false runs the same workload fault-free, the reference
// for bit-identity). Each returns what the comm-mode parameterization
// compares; its own contract is asserted only on injected runs.
// Recovery.<Case> runs it with the planner off; Recovery/AcrossComm.<Case>
// re-runs it under every comm mode.
struct Outcome {
  std::vector<double> values;  ///< every value read back, in order
  std::vector<int> poisoned;   ///< poison flags observed, in order
  long faults{0};
  long retries{0};
};
using Case = Outcome (*)(comm::Mode, bool);

RuntimeOptions fault_opts(comm::Mode mode, bool inject) {
  RuntimeOptions opts;
  opts.comm = mode;
  opts.faults.enabled = inject;
  return opts;
}

Outcome finish(Runtime& rt, Outcome o) {
  o.faults = rt.engine().stats().faults_injected;
  o.retries = rt.engine().stats().retries;
  return o;
}

void read_back(Outcome& o, Store& s) {
  for (double x : s.span<double>()) o.values.push_back(x);
}

Outcome transient_retry(comm::Mode mode, bool inject) {
  auto m = gpu_machine(3);
  double clean_makespan;
  {
    Runtime rt(m, fault_opts(mode, false));
    Store s = rt.create_store(DType::F64, {300});
    run_fill(rt, s, 5.0);
    clean_makespan = rt.engine().makespan();
  }
  RuntimeOptions opts = fault_opts(mode, inject);
  opts.faults.scripted = {{0, 0}};  // first attempt of the first point fails
  Runtime rt(m, opts);
  Store s = rt.create_store(DType::F64, {300});
  Future f = run_fill(rt, s, 5.0);
  Outcome o{{}, {f.poisoned}};
  read_back(o, s);
  o = finish(rt, o);
  if (!inject) return o;
  EXPECT_FALSE(f.poisoned);
  for (double x : o.values) EXPECT_DOUBLE_EQ(x, 5.0);
  EXPECT_EQ(o.faults, 1);
  EXPECT_EQ(o.retries, 1);
  EXPECT_GT(rt.engine().makespan(), clean_makespan);
  return o;
}

Outcome retry_exhaustion(comm::Mode mode, bool inject) {
  auto m = gpu_machine(2);
  RuntimeOptions opts = fault_opts(mode, inject);
  opts.faults.task_fault_rate = 1.0;  // every attempt of every task fails
  opts.faults.max_attempts = 2;
  Runtime rt(m, opts);
  Store s = rt.create_store(DType::F64, {100});
  Future f = run_fill(rt, s, 3.0);
  const bool store_poisoned = rt.store_poisoned(s);
  // A reduction over the poisoned store yields a poisoned future.
  Future sum = run_sum(rt, s);
  Outcome o{{sum.value}, {f.poisoned, store_poisoned, sum.poisoned}};
  read_back(o, s);
  o = finish(rt, o);
  if (!inject) return o;
  EXPECT_TRUE(f.poisoned);
  EXPECT_TRUE(store_poisoned);
  // The canonical bits are still the fault-free values (leaves always run);
  // only the metadata marks them untrustworthy.
  for (std::size_t i = 1; i < o.values.size(); ++i) EXPECT_DOUBLE_EQ(o.values[i], 3.0);
  EXPECT_TRUE(sum.valid);
  EXPECT_TRUE(sum.poisoned);
  EXPECT_GT(o.faults, 0);
  return o;
}

Outcome healthy_full_overwrite(comm::Mode mode, bool inject) {
  auto m = gpu_machine(2);
  RuntimeOptions opts = fault_opts(mode, inject);
  opts.faults.max_attempts = 1;     // a single scripted fault exhausts
  opts.faults.scripted = {{0, 0}, {1, 0}};  // both points of the first launch
  Runtime rt(m, opts);
  Store s = rt.create_store(DType::F64, {100});
  Future f = run_fill(rt, s, 1.0);
  const bool poisoned_first = rt.store_poisoned(s);
  // The next (healthy) launch rewrites the full extent: poison washes out.
  Future g = run_fill(rt, s, 2.0);
  const bool poisoned_after = rt.store_poisoned(s);
  Future sum = run_sum(rt, s);
  Outcome o{{sum.value},
            {f.poisoned, poisoned_first, g.poisoned, poisoned_after, sum.poisoned}};
  o = finish(rt, o);
  if (!inject) return o;
  EXPECT_TRUE(f.poisoned);
  EXPECT_TRUE(poisoned_first);
  EXPECT_FALSE(g.poisoned);
  EXPECT_FALSE(poisoned_after);
  EXPECT_FALSE(sum.poisoned);
  EXPECT_DOUBLE_EQ(sum.value, 200.0);
  return o;
}

Outcome same_seed_same_stats(comm::Mode mode, bool inject) {
  auto m = gpu_machine(3);
  auto run = [&](Outcome& o) {
    RuntimeOptions opts = fault_opts(mode, inject);
    opts.faults.seed = 1234;
    opts.faults.task_fault_rate = 0.2;
    Runtime rt(m, opts);
    Store a = rt.create_store(DType::F64, {512});
    for (int i = 0; i < 10; ++i) run_fill(rt, a, static_cast<double>(i));
    Future sum = run_sum(rt, a);
    o = Outcome{{sum.value}, {sum.poisoned}};
    read_back(o, a);
    o = finish(rt, o);
    return rt.engine().report();
  };
  Outcome o, again;
  std::string first = run(o);
  std::string second = run(again);
  if (!inject) return o;
  EXPECT_NE(first.find("faults{"), std::string::npos);
  EXPECT_EQ(first, second);
  return o;
}

Outcome oom_pressure_spills(comm::Mode mode, bool inject) {
  sim::PerfParams pp;
  auto m = sim::Machine::gpus(2, pp);
  // Shrink every framebuffer to ~40 KB of usable space.
  double fb_cap = 0;
  for (const auto& mem : m.memories()) {
    if (mem.kind == sim::MemKind::Frame) fb_cap = mem.capacity;
  }
  RuntimeOptions opts = fault_opts(mode, inject);
  opts.faults.oom_pressure_bytes = fb_cap - 40e3;

  Runtime rt(m, opts);
  // Keep many live stores cycling through the tiny framebuffers; without
  // spilling this would exceed capacity quickly.
  std::vector<Store> stores;
  for (int i = 0; i < 12; ++i) {
    stores.push_back(rt.create_store(DType::F64, {1000}));
    run_fill(rt, stores.back(), static_cast<double>(i));
  }
  // Everything still reads back bit-exact after eviction round-trips.
  Outcome o;
  for (int i = 0; i < 12; ++i) {
    Future sum = run_sum(rt, stores[static_cast<std::size_t>(i)]);
    o.values.push_back(sum.value);
    o.poisoned.push_back(sum.poisoned);
    if (inject) {
      EXPECT_DOUBLE_EQ(sum.value, 1000.0 * i);
      EXPECT_FALSE(sum.poisoned);
    }
  }
  o = finish(rt, o);
  if (!inject) return o;
  EXPECT_GT(rt.engine().stats().spills, 0);
  return o;
}

Outcome node_loss(comm::Mode mode, bool inject) {
  sim::PerfParams pp;
  auto m = sim::Machine::gpus(4, pp, 2);  // 2 nodes x 2 GPUs
  RuntimeOptions opts = fault_opts(mode, inject);
  opts.faults.node_loss_time = 1e-9;  // after the fill, before the sum
  opts.faults.node_loss_node = 1;
  opts.faults.node_recovery_seconds = 0.1;
  Runtime rt(m, opts);
  Store s = rt.create_store(DType::F64, {400});
  run_fill(rt, s, 4.0);  // writes land on GPUs of both nodes
  // The next launch polls the schedule, loses node 1, and poisons the
  // pieces whose only copy lived there.
  Future sum = run_sum(rt, s);
  const bool lost = rt.consume_node_loss();
  const bool lost_again = rt.consume_node_loss();  // flag is one-shot
  Outcome o{{sum.value}, {lost, lost_again, sum.poisoned, rt.store_poisoned(s)}};
  read_back(o, s);
  o = finish(rt, o);
  if (!inject) return o;
  EXPECT_TRUE(lost);
  EXPECT_FALSE(lost_again);
  EXPECT_TRUE(sum.poisoned);
  EXPECT_TRUE(rt.store_poisoned(s));
  EXPECT_GE(rt.engine().makespan(), 0.1);  // the outage stalled the machine
  EXPECT_EQ(o.faults, 1);
  return o;
}

TEST(Recovery, TransientRetryChargesTimeNotValues) {
  transient_retry(comm::Mode::Off, true);
}

TEST(Recovery, RetryExhaustionPoisonsNotCorrupts) {
  retry_exhaustion(comm::Mode::Off, true);
}

TEST(Recovery, HealthyFullOverwriteClearsPoison) {
  healthy_full_overwrite(comm::Mode::Off, true);
}

TEST(Recovery, InertInjectorMatchesDisabledMakespan) {
  auto m = gpu_machine(3);
  auto workload = [&](Runtime& rt) {
    Store a = rt.create_store(DType::F64, {512});
    Store b = rt.create_store(DType::F64, {512});
    run_fill(rt, a, 1.0);
    run_fill(rt, b, 2.0);
    run_sum(rt, a);
    run_sum(rt, b);
    return rt.engine().makespan();
  };
  // Fusion off on both sides: fault injection disables fusion, and this test
  // measures injector inertness, not window rewriting.
  RuntimeOptions plain_opts;
  plain_opts.fusion = rt::Fusion::Off;
  Runtime plain(m, plain_opts);
  double t_plain = workload(plain);
  RuntimeOptions opts;
  opts.fusion = rt::Fusion::Off;
  opts.faults.enabled = true;  // enabled but with nothing scheduled
  Runtime inert(m, opts);
  double t_inert = workload(inert);
  EXPECT_DOUBLE_EQ(t_plain, t_inert);
  EXPECT_EQ(plain.engine().report(), inert.engine().report());
}

TEST(Recovery, SameSeedSameStats) { same_seed_same_stats(comm::Mode::Off, true); }

TEST(Recovery, OomPressureSpillsInsteadOfFailing) {
  oom_pressure_spills(comm::Mode::Off, true);
}

TEST(Recovery, SpillDisabledSurfacesOom) {
  sim::PerfParams pp;
  auto m = sim::Machine::gpus(2, pp);
  double fb_cap = 0;
  for (const auto& mem : m.memories()) {
    if (mem.kind == sim::MemKind::Frame) fb_cap = mem.capacity;
  }
  RuntimeOptions opts;
  opts.spill_on_oom = false;
  opts.faults.enabled = true;
  opts.faults.oom_pressure_bytes = fb_cap - 40e3;
  Runtime rt(m, opts);
  std::vector<Store> stores;
  EXPECT_THROW(
      {
        for (int i = 0; i < 12; ++i) {
          stores.push_back(rt.create_store(DType::F64, {1000}));
          run_fill(rt, stores.back(), 1.0);
        }
      },
      OutOfMemoryError);
}

TEST(Recovery, NodeLossPoisonsResidentStores) { node_loss(comm::Mode::Off, true); }

// The planner composes with fault injection: under every comm mode a faulted
// run reads back the fault-free run's exact bits, and, because the injector
// is a pure function of (point sequence, attempt) and both Pass B strategies
// draw the same sequence, it sees the comm-off run's faults, retries and
// poison.
class AcrossComm : public ::testing::TestWithParam<comm::Mode> {
 protected:
  static void expect_matches_off(Case body) {
    const Outcome got = body(GetParam(), true);
    const Outcome clean = body(GetParam(), false);
    const Outcome off = body(comm::Mode::Off, true);
    ASSERT_EQ(got.values.size(), clean.values.size());
    EXPECT_EQ(std::memcmp(got.values.data(), clean.values.data(),
                          got.values.size() * sizeof(double)),
              0);
    EXPECT_EQ(got.faults, off.faults);
    EXPECT_EQ(got.retries, off.retries);
    EXPECT_EQ(got.poisoned, off.poisoned);
  }
};

TEST_P(AcrossComm, TransientRetryChargesTimeNotValues) {
  expect_matches_off(transient_retry);
}
TEST_P(AcrossComm, RetryExhaustionPoisonsNotCorrupts) {
  expect_matches_off(retry_exhaustion);
}
TEST_P(AcrossComm, HealthyFullOverwriteClearsPoison) {
  expect_matches_off(healthy_full_overwrite);
}
TEST_P(AcrossComm, SameSeedSameStats) { expect_matches_off(same_seed_same_stats); }
TEST_P(AcrossComm, OomPressureSpillsInsteadOfFailing) {
  expect_matches_off(oom_pressure_spills);
}
TEST_P(AcrossComm, NodeLossPoisonsResidentStores) {
  expect_matches_off(node_loss);
}

INSTANTIATE_TEST_SUITE_P(Recovery, AcrossComm,
                         ::testing::Values(comm::Mode::Off, comm::Mode::Plan,
                                           comm::Mode::Overlap),
                         [](const auto& info) {
                           return std::string(comm::comm_mode_name(info.param));
                         });

// Under Overlap a point whose first attempt fails charges its retries and
// final run unsplit from the gate; only first-attempt successes split.
TEST(RecoveryOverlap, SplitsOnlyFirstAttemptSuccesses) {
  sim::PerfParams pp;
  // fill x (point tasks 0-3), then one halo stencil reading x (tasks 4-7):
  // every stencil point reads ghosts from its neighbours.
  auto stencil = [&](std::vector<sim::ScriptedFault> scripted) {
    RuntimeOptions opts = fault_opts(comm::Mode::Overlap, !scripted.empty());
    opts.faults.scripted = std::move(scripted);
    Runtime rt(sim::Machine::gpus(4, pp, 2), opts);
    Store x = rt.create_store(DType::F64, {4000});
    Store y = rt.create_store(DType::F64, {4000});
    run_fill(rt, x, 1.0, 1e6);
    TaskLauncher launch(rt, "stencil");
    int out = launch.add_output(y);
    int in = launch.add_input(x);
    launch.halo(out, in, -1, 1);
    launch.set_leaf([out, in](TaskContext& ctx) {
      auto yv = ctx.full<double>(out);
      auto xv = ctx.full<double>(in);
      Interval iv = ctx.elem_interval(out);
      const auto n = static_cast<coord_t>(xv.size());
      for (coord_t i = iv.lo; i < iv.hi; ++i) {
        yv[i] = (i > 0 ? xv[i - 1] : 0.0) + (i + 1 < n ? xv[i + 1] : 0.0);
      }
    });
    launch.set_cost([=](const TaskContext& ctx) {
      const Interval iv = ctx.elem_interval(out);
      return TaskCost{static_cast<double>(iv.size()) * 24, 0};
    });
    launch.execute();
    const auto snap = rt.metrics_snapshot();
    const auto* splits = snap.find("lsr_comm_overlap_splits_total");
    return std::pair{splits != nullptr ? splits->value : 0.0,
                     rt.engine().stats().retries};
  };
  const auto [clean, no_retries] = stencil({});
  ASSERT_EQ(clean, 4);  // every stencil point overlaps its exchange
  EXPECT_EQ(no_retries, 0);
  // One failed point at a time: exactly that point loses its split.
  for (long p = 4; p < 8; ++p) {
    const auto [splits, retries] = stencil({{p, 0}});
    EXPECT_EQ(retries, 1);
    EXPECT_EQ(splits, clean - 1);
  }
  const auto [none, all_retried] = stencil({{4, 0}, {5, 0}, {6, 0}, {7, 0}});
  EXPECT_EQ(all_retried, 4);
  EXPECT_EQ(none, 0);
}

}  // namespace
}  // namespace legate::rt

// lsr_diag watchdog: stall detection against a scripted wall-clock hang,
// deadlock classification from the exec-pool probe, node-loss post-mortems,
// and the deterministic divergence guard on a stagnating CG — each trip must
// leave a dump whose suspect block names the offending launch / node.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "diag/diag.h"
#include "rt/runtime.h"
#include "sim/machine.h"
#include "solve/krylov.h"
#include "sparse/csr.h"
#include "sparse/formats.h"

namespace legate::diag {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Spin (with sleeps) until `pred` holds or ~5 wall seconds pass.
template <typename Pred>
bool wait_for(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

void run_named(rt::Runtime& rt, rt::Store& s, const char* name) {
  rt::TaskLauncher launch(rt, name);
  int out = launch.add_output(s);
  launch.set_leaf([out](rt::TaskContext& ctx) {
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 1.0;
  });
  launch.set_cost([=](const rt::TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(out);
    return rt::TaskCost{static_cast<double>(iv.size()) * 8, 0};
  });
  launch.execute();
}

TEST(DiagWatchdog, TripsOnStalledProgressWhileBusy) {
  FlightRecorder fr;
  Options o;
  o.stall_deadline_s = 0.1;
  o.poll_interval_s = 0.01;
  o.dump_dir = "diag_dumps_stall_unit";
  fr.configure(Mode::On, o);
  // Busy (an active launch on the board) but no progress: must trip.
  fr.begin_launch("wedged_task", 0);
  EXPECT_TRUE(wait_for([&fr] { return fr.dumps_written() > 0; }));
  fr.end_launch();
  EXPECT_GE(fr.trips(), 1u);
}

TEST(DiagWatchdog, StaysQuietWhileIdle) {
  FlightRecorder fr;
  Options o;
  o.stall_deadline_s = 0.05;
  o.poll_interval_s = 0.01;
  o.dump_on_trip = false;
  fr.configure(Mode::On, o);
  // Idle board, no pool: nothing to wait on, so no trip however long the
  // deadline has passed.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(fr.trips(), 0u);
}

TEST(DiagWatchdog, ClassifiesDeadlockFromPoolProbe) {
  FlightRecorder fr;
  Options o;
  o.stall_deadline_s = 0.1;
  o.poll_interval_s = 0.01;
  o.dump_dir = "diag_dumps_deadlock_unit";
  fr.configure(Mode::On, o);
  // Ready work queued, nothing running, no progress: the deadlock signature.
  fr.set_pool_status([] {
    PoolStatus s;
    s.queued = 3;
    s.running = 0;
    s.completed = 1;
    s.valid = true;
    return s;
  });
  // The trip bumps trips() first and then writes the dump; wait for the
  // dump so the assertions don't race the watchdog thread mid-trip.
  EXPECT_TRUE(wait_for([&fr] { return fr.dumps_written() > 0; }));
  EXPECT_GE(fr.trips(), 1u);
  auto d = fr.drain();
  bool saw_trip = false;
  for (const auto& [ring, ev] : d.events) {
    if (ev.kind == EventKind::WatchdogTrip) saw_trip = true;
  }
  EXPECT_TRUE(saw_trip);
  fr.set_pool_status({});
}

TEST(DiagWatchdog, ScriptedStallTripsAndDumpNamesTheLaunch) {
  // End-to-end acceptance: a scripted wall-clock hang inside a leaf trips
  // the watchdog mid-launch and the post-mortem names the hung launch.
  sim::PerfParams pp;
  auto m = sim::Machine::gpus(2, pp);
  rt::RuntimeOptions opts;
  opts.faults.enabled = true;
  opts.faults.scripted_stalls = {{"stall_victim", 0.6}};
  opts.diag = Mode::On;
  opts.diag_opts.stall_deadline_s = 0.15;
  opts.diag_opts.poll_interval_s = 0.02;
  opts.diag_opts.dump_dir = "diag_dumps_stall_rt";
  rt::Runtime rt(m, opts);
  rt::Store s = rt.create_store(rt::DType::F64, {64});
  run_named(rt, s, "warmup_task");
  run_named(rt, s, "stall_victim");  // sleeps 0.6 s on the control path
  rt.fence();
  auto& fr = rt.flight();
  EXPECT_GE(fr.trips(), 1u);
  ASSERT_GE(fr.dumps_written(), 1u);
  // The trip fired while stall_victim was the in-flight launch; its dump
  // must carry the name in the suspect block and a Stall event in the log.
  std::string latest = fr.dump("post-assert");  // fresh dump, same board
  ASSERT_FALSE(latest.empty());
  std::string j = slurp(latest);
  EXPECT_NE(j.find("stall_victim"), std::string::npos);
  std::remove(latest.c_str());
}

TEST(DiagWatchdog, NodeLossWritesDumpNamingTheNode) {
  sim::PerfParams pp;
  auto m = sim::Machine::gpus(4, pp, 2);  // 2 nodes x 2 GPUs
  rt::RuntimeOptions opts;
  opts.faults.enabled = true;
  opts.faults.node_loss_time = 1e-9;
  opts.faults.node_loss_node = 1;
  opts.faults.node_recovery_seconds = 0.05;
  opts.diag = Mode::On;
  opts.diag_opts.watchdog = false;
  opts.diag_opts.dump_dir = "diag_dumps_nodeloss";
  rt::Runtime rt(m, opts);
  rt::Store s = rt.create_store(rt::DType::F64, {400});
  run_named(rt, s, "fill_before_loss");
  run_named(rt, s, "launch_during_loss");  // polls the schedule, loses node 1
  rt.fence();
  auto& fr = rt.flight();
  ASSERT_GE(fr.dumps_written(), 1u);
  const auto bd = fr.board();
  EXPECT_EQ(bd.lost_node, 1);
  // A fresh dump from the same recorder reflects the node-loss suspect that
  // the automatic "node-loss" dump recorded at trip time.
  std::string path = fr.dump("post-assert");
  ASSERT_FALSE(path.empty());
  std::string j = slurp(path);
  EXPECT_NE(j.find("\"node_lost\":true"), std::string::npos);
  EXPECT_NE(j.find("\"node\":1"), std::string::npos);
  auto d = fr.drain();
  bool saw_loss = false;
  for (const auto& [ring, ev] : d.events) {
    if (ev.kind == EventKind::NodeLoss && ev.a == 1) saw_loss = true;
  }
  EXPECT_TRUE(saw_loss);
  std::remove(path.c_str());
}

TEST(DiagWatchdog, DivergentCgTripsDivergenceGuardDeterministically) {
  // CG on a deliberately indefinite diagonal matrix with b = ones: the very
  // first search direction has pᵀAp = 0 (the ±1/±2 eigenvalue blocks cancel
  // exactly), so the recurrence produces non-finite residuals forever — a
  // breakdown the divergence guard must flag as "never progressing". Runs
  // entirely on the control path, so the trip is deterministic.
  auto run = [](int threads) {
    sim::PerfParams pp;
    auto m = sim::Machine::gpus(2, pp);
    rt::RuntimeOptions opts;
    opts.exec_threads = threads;
    opts.diag = Mode::On;
    opts.diag_opts.watchdog = false;
    opts.diag_opts.divergence_window = 10;
    // Big enough to keep the mid-run trip event resident through the
    // post-trip iterations' worth of launch/retire events.
    opts.diag_opts.ring_capacity = 32768;
    opts.diag_opts.dump_dir = "diag_dumps_divergence";
    rt::Runtime rt(m, opts);
    const coord_t n = 16;
    std::vector<coord_t> indptr(n + 1), indices(n);
    std::vector<double> values(n);
    const double diagvals[4] = {1.0, -1.0, 2.0, -2.0};
    for (coord_t i = 0; i < n; ++i) {
      indptr[i + 1] = i + 1;
      indices[i] = i;
      values[i] = diagvals[i % 4];
    }
    auto A = sparse::CsrMatrix::from_host(rt, n, n, indptr, indices, values);
    auto b = dense::DArray::full(rt, n, 1.0);
    auto res = solve::cg(A, b, /*tol=*/1e-10, 60);
    EXPECT_FALSE(res.converged);
    rt.fence();
    auto& fr = rt.flight();
    EXPECT_GE(fr.trips(), 1u) << "threads=" << threads;
    EXPECT_GE(fr.dumps_written(), 1u);
    auto d = fr.drain();
    std::uint64_t solver_iters = 0;
    bool saw_trip_event = false;
    for (const auto& [ring, ev] : d.events) {
      if (ev.kind == EventKind::SolverIter) ++solver_iters;
      if (ev.kind == EventKind::WatchdogTrip &&
          std::string(ev.label) == "cg") {
        saw_trip_event = true;
      }
    }
    EXPECT_GT(solver_iters, 0u);
    EXPECT_TRUE(saw_trip_event);
    return fr.trips();
  };
  EXPECT_EQ(run(1), run(4));  // trip count is thread-invariant
}

}  // namespace
}  // namespace legate::diag

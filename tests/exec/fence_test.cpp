// Fence-point semantics of the deferred (pipelined) execution path: every
// place the control path observes real data must drain the launch queue
// first, so no caller ever sees a torn or stale store.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "rt/checkpoint.h"
#include "rt/runtime.h"

namespace legate::rt {
namespace {

sim::Machine gpus(int n) {
  sim::PerfParams pp;
  return sim::Machine::gpus(n, pp);
}

RuntimeOptions threaded(int threads) {
  RuntimeOptions opts;
  opts.exec_threads = threads;
  opts.exec_pipeline = 1;
  return opts;
}

/// One partitioned launch writing i*scale into every element of `s`.
void launch_fill(Runtime& rt, Store& s, double scale) {
  TaskLauncher launch(rt, "fill");
  int out = launch.add_output(s);
  launch.set_leaf([out, scale](TaskContext& ctx) {
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = static_cast<double>(i) * scale;
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(out);
    return TaskCost{static_cast<double>(iv.size()) * 8, 0};
  });
  launch.execute();
}

TEST(Fence, LaunchesDeferUntilExplicitFence) {
  Runtime rt(gpus(4), threaded(4));
  ASSERT_TRUE(rt.pipelining());
  Store s = rt.create_store(DType::F64, {1000});
  launch_fill(rt, s, 1.0);
  launch_fill(rt, s, 2.0);
  EXPECT_EQ(rt.pending_launches(), 2u);
  rt.fence();
  EXPECT_EQ(rt.pending_launches(), 0u);
}

TEST(Fence, SpanAccessDrainsAndSeesFullyWrittenData) {
  Runtime rt(gpus(4), threaded(8));
  Store s = rt.create_store(DType::F64, {10000});
  launch_fill(rt, s, 1.0);
  launch_fill(rt, s, 3.0);
  EXPECT_GT(rt.pending_launches(), 0u);
  // span() is a fence point: both launches drain, and the second one's
  // writes are complete across every point's sub-interval (no torn reads).
  auto sp = s.span<double>();
  EXPECT_EQ(rt.pending_launches(), 0u);
  for (coord_t i = 0; i < 10000; ++i) ASSERT_EQ(sp[i], static_cast<double>(i) * 3.0);
}

TEST(Fence, ScalarFutureReadDrains) {
  Runtime rt(gpus(4), threaded(4));
  Store s = rt.create_store(DType::F64, {1000});
  launch_fill(rt, s, 2.0);
  EXPECT_EQ(rt.pending_launches(), 1u);

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
  Future f = launch.execute();
  // A scalar-producing launch is itself a fence point: the value must be
  // real, so nothing stays deferred behind it.
  EXPECT_EQ(rt.pending_launches(), 0u);
  ASSERT_TRUE(f.valid);
  EXPECT_DOUBLE_EQ(f.value, 2.0 * (999.0 * 1000.0 / 2.0));
}

TEST(Fence, SimTimeAndStatsAccessorsDrain) {
  Runtime rt(gpus(4), threaded(4));
  Store s = rt.create_store(DType::F64, {1000});
  double t0 = rt.sim_time();
  launch_fill(rt, s, 1.0);
  EXPECT_EQ(rt.pending_launches(), 1u);
  double t1 = rt.sim_time();  // fence point: deferred launch must be charged
  EXPECT_EQ(rt.pending_launches(), 0u);
  EXPECT_GT(t1, t0);

  launch_fill(rt, s, 2.0);
  long tasks_before = rt.engine().stats().tasks;  // engine() fences
  EXPECT_EQ(rt.pending_launches(), 0u);
  EXPECT_GT(tasks_before, 0);
}

TEST(Fence, CheckpointAndRestoreObserveFullData) {
  Runtime rt(gpus(4), threaded(4));
  Store s = rt.create_store(DType::F64, {5000});
  launch_fill(rt, s, 1.0);
  EXPECT_EQ(rt.pending_launches(), 1u);
  Checkpoint ckpt = rt.checkpoint({s});  // fence point
  EXPECT_EQ(rt.pending_launches(), 0u);

  launch_fill(rt, s, 9.0);  // overwrite after the snapshot
  rt.restore(ckpt);         // fence point: drains, then rewrites
  EXPECT_EQ(rt.pending_launches(), 0u);
  auto sp = s.span<double>();
  for (coord_t i = 0; i < 5000; ++i) ASSERT_EQ(sp[i], static_cast<double>(i));
}

TEST(Fence, FaultInjectionDisablesPipelining) {
  // Fault-injection retries must observe launch results at every step, so
  // the runtime never defers with faults enabled.
  RuntimeOptions opts = threaded(4);
  opts.faults.enabled = true;
  opts.faults.task_fault_rate = 0.05;
  opts.faults.seed = 7;
  Runtime rt(gpus(4), opts);
  EXPECT_FALSE(rt.pipelining());
  EXPECT_EQ(rt.exec_threads(), 4);
  Store s = rt.create_store(DType::F64, {1000});
  launch_fill(rt, s, 1.0);
  EXPECT_EQ(rt.pending_launches(), 0u);  // applied eagerly, retries included
  auto sp = s.span<double>();
  for (coord_t i = 0; i < 1000; ++i) ASSERT_EQ(sp[i], static_cast<double>(i));
}

TEST(Fence, PipeliningCanBeDisabledExplicitly) {
  RuntimeOptions opts = threaded(4);
  opts.exec_pipeline = 0;
  Runtime rt(gpus(4), opts);
  EXPECT_FALSE(rt.pipelining());
  EXPECT_EQ(rt.exec_threads(), 4);  // point tasks still run on the pool
  Store s = rt.create_store(DType::F64, {1000});
  launch_fill(rt, s, 4.0);
  // Sequential mode applies launches eagerly; with fusion enabled the one
  // launch sits in the (not yet flushed) fusion window instead.
  EXPECT_EQ(rt.pending_launches(), rt.fusion_enabled() ? 1u : 0u);
  auto sp = s.span<double>();
  for (coord_t i = 0; i < 1000; ++i) ASSERT_EQ(sp[i], static_cast<double>(i) * 4.0);
}

TEST(Fence, RawDependenceChainSurvivesDeferral) {
  // Producer/consumer chain across deferred launches: the consumer's leaf
  // reads what the producer's leaf wrote, even though both are deferred.
  Runtime rt(gpus(4), threaded(4));
  Store a = rt.create_store(DType::F64, {4000});
  Store b = rt.create_store(DType::F64, {4000});
  launch_fill(rt, a, 1.0);
  {
    TaskLauncher launch(rt, "double");
    int in = launch.add_input(a);
    int out = launch.add_output(b);
    launch.align(in, out);
    launch.set_leaf([in, out](TaskContext& ctx) {
      auto x = ctx.full<double>(in);
      auto y = ctx.full<double>(out);
      Interval iv = ctx.elem_interval(out);
      for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 2.0 * x[i];
    });
    launch.set_cost([=](const TaskContext& ctx) {
      const Interval iv = ctx.elem_interval(out);
      return TaskCost{static_cast<double>(iv.size()) * 16, 0};
    });
    launch.execute();
  }
  EXPECT_EQ(rt.pending_launches(), 2u);
  auto sp = b.span<double>();
  for (coord_t i = 0; i < 4000; ++i) ASSERT_EQ(sp[i], static_cast<double>(i) * 2.0);
}

TEST(Fence, AccountingIsCurrentAtIssue) {
  // A launch is accounted when it is issued, not when its leaves finish:
  // with the leaf blocked, the non-fencing metrics() already counts it.
  Runtime rt(gpus(4), threaded(4));
  ASSERT_TRUE(rt.pipelining());
  Store s = rt.create_store(DType::F64, {1000});
  std::atomic<bool> release{false};
  TaskLauncher launch(rt, "blocked");
  int out = launch.add_output(s);
  launch.set_leaf([out, &release](TaskContext& ctx) {
    while (!release.load()) std::this_thread::yield();
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 1.0;
  });
  launch.execute();
  const auto snap = rt.metrics().snapshot();
  const auto* launches = snap.find("lsr_rt_launches_total");
  ASSERT_NE(launches, nullptr);
  EXPECT_EQ(launches->value, rt.fusion_enabled() ? 0.0 : 1.0);
  EXPECT_EQ(rt.pending_launches(), 1u);
  release.store(true);
  rt.fence();
  EXPECT_EQ(rt.launches_applied(), 1);
}

TEST(Fence, DeferredAccountingMatchesEagerBitExactly) {
  // Same program, pipelined vs not: simulated makespans and stats must be
  // bit-identical, because deferred replay re-runs the identical accounting
  // in issue order.
  auto run = [](int pipeline) {
    RuntimeOptions opts;
    opts.exec_threads = 4;
    opts.exec_pipeline = pipeline;
    Runtime rt(gpus(4), opts);
    Store a = rt.create_store(DType::F64, {8192});
    for (int it = 0; it < 6; ++it) launch_fill(rt, a, 1.0 + it);
    rt.fence();
    return std::make_tuple(rt.sim_time(), rt.engine().stats().tasks,
                           rt.engine().stats().copies,
                           rt.engine().stats().bytes_nvlink);
  };
  EXPECT_EQ(run(0), run(1));
}

}  // namespace
}  // namespace legate::rt

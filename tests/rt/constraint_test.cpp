// Tests for the halo constraint, precise images, store reductions and the
// RuntimeOptions toggles.
#include <gtest/gtest.h>

#include <vector>

#include "rt/runtime.h"

namespace legate::rt {
namespace {

sim::Machine gpus(int n) {
  sim::PerfParams pp;
  return sim::Machine::gpus(n, pp);
}

TEST(HaloConstraint, ExpandsAndClips) {
  auto m = gpus(3);
  Runtime rt(m);
  Store y = rt.create_store(DType::F64, {90});
  Store x = rt.create_store(DType::F64, {90});
  std::vector<Interval> seen(3);
  TaskLauncher launch(rt, "halo");
  int iy = launch.add_output(y);
  int ix = launch.add_input(x);
  launch.halo(iy, ix, -2, 3);
  launch.set_leaf([&, iy, ix](TaskContext& ctx) {
    seen[static_cast<std::size_t>(ctx.color())] = ctx.elem_interval(ix);
    auto yv = ctx.full<double>(iy);
    Interval iv = ctx.elem_interval(iy);
    for (coord_t i = iv.lo; i < iv.hi; ++i) yv[i] = 0;
  });
  launch.set_cost([](const TaskContext&) { return TaskCost{1, 0}; });
  launch.execute();
  rt.fence();  // leaf side-effects (captured intervals) need a drain
  EXPECT_EQ(seen[0], (Interval{0, 33}));    // [0-2, 30+3) clipped at 0
  EXPECT_EQ(seen[1], (Interval{28, 63}));   // [30-2, 60+3)
  EXPECT_EQ(seen[2], (Interval{58, 90}));   // [60-2, 90+3) clipped at 90
}

TEST(PreciseImages, SparseGatherCopiesOnlyTouchedData) {
  // crd references two tiny clusters at the far ends of x: the bounding
  // interval spans all of x, but only the clusters move.
  auto m = gpus(2);
  Runtime rt(m);
  constexpr coord_t kN = 100000;
  std::vector<coord_t> crd_v;
  for (coord_t i = 0; i < 8; ++i) crd_v.push_back(i);            // head cluster
  for (coord_t i = 0; i < 8; ++i) crd_v.push_back(kN - 8 + i);   // tail cluster
  // Two colors, each sees both clusters -> same pattern on each.
  for (coord_t i = 0; i < 8; ++i) crd_v.push_back(i);
  for (coord_t i = 0; i < 8; ++i) crd_v.push_back(kN - 8 + i);
  Store crd = rt.attach(crd_v);
  std::vector<double> xv(static_cast<std::size_t>(kN), 1.0);
  Store x = rt.attach(xv);
  Store out = rt.create_store(DType::F64, {32});

  double nv0 = rt.engine().stats().bytes_nvlink;
  TaskLauncher launch(rt, "gather");
  int io = launch.add_output(out);
  int ic = launch.add_input(crd);
  int ix = launch.add_input(x);
  launch.align(io, ic);
  launch.image_points(ic, ix);
  launch.set_leaf([=](TaskContext& ctx) {
    auto ov = ctx.full<double>(io);
    auto cv = ctx.full<coord_t>(ic);
    auto xs = ctx.full<double>(ix);
    Interval iv = ctx.elem_interval(io);
    for (coord_t i = iv.lo; i < iv.hi; ++i) ov[i] = xs[cv[i]];
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(io);
    return TaskCost{static_cast<double>(iv.size()) * 24.0, 0};
  });
  launch.execute();
  double moved = rt.engine().stats().bytes_nvlink - nv0;
  // Without precise images each GPU would pull ~kN*8 = 800 KB; with them,
  // only the clusters (16 values) plus the small crd/out arrays move.
  EXPECT_LT(moved, 4096);
  EXPECT_GT(moved, 0);
  // Values are correct.
  auto ov = out.span<double>();
  for (double v : ov) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(PreciseImages, BoundingAllocationStillCharged) {
  // Even with precise copies, the instance covers the bounding interval —
  // that is what makes the quantum benchmark's footprint balloon.
  auto m = gpus(1);
  Runtime rt(m);
  constexpr coord_t kN = 1 << 20;
  std::vector<coord_t> crd_v{0, kN - 1};
  Store crd = rt.attach(crd_v);
  std::vector<double> xv(static_cast<std::size_t>(kN), 2.0);
  Store x = rt.attach(xv);
  Store out = rt.create_store(DType::F64, {2});
  int fb = m.proc(0).mem;
  double used0 = rt.engine().used_bytes(fb);
  TaskLauncher launch(rt, "gather");
  int io = launch.add_output(out);
  int ic = launch.add_input(crd);
  int ix = launch.add_input(x);
  launch.align(io, ic);
  launch.image_points(ic, ix);
  launch.set_leaf([=](TaskContext& ctx) {
    auto ov = ctx.full<double>(io);
    auto cv = ctx.full<coord_t>(ic);
    auto xs = ctx.full<double>(ix);
    Interval iv = ctx.elem_interval(io);
    for (coord_t i = iv.lo; i < iv.hi; ++i) ov[i] = xs[cv[i]];
  });
  launch.set_cost([](const TaskContext&) { return TaskCost{16, 0}; });
  launch.execute();
  double grew = rt.engine().used_bytes(fb) - used0;
  EXPECT_GE(grew, static_cast<double>(kN) * 8.0);  // full bounding instance
}

TEST(RuntimeOptions, TaskOverheadOverride) {
  auto m = gpus(1);
  RuntimeOptions cheap;
  cheap.task_overhead = 1e-6;
  Runtime rt_cheap(m, cheap);
  Runtime rt_default(m);
  auto run = [](Runtime& rt) {
    Store s = rt.create_store(DType::F64, {16});
    for (int i = 0; i < 50; ++i) {
      TaskLauncher launch(rt, "tiny");
      int out = launch.add_output(s);
      launch.set_leaf([out](TaskContext& ctx) {
        auto y = ctx.full<double>(out);
        Interval iv = ctx.elem_interval(out);
        for (coord_t k = iv.lo; k < iv.hi; ++k) y[k] = 1;
      });
      launch.set_cost([](const TaskContext&) { return TaskCost{1, 0}; });
      launch.execute();
    }
    return rt.sim_time();
  };
  // 50 tiny tasks are launch-bound: the cheap runtime is far faster.
  EXPECT_LT(run(rt_cheap) * 5, run(rt_default));
}

TEST(StoreReduction, ReplicatesResultEverywhere) {
  auto m = gpus(3);
  Runtime rt(m);
  Store acc = rt.create_store(DType::F64, {4});
  Store driver = rt.create_store(DType::F64, {300});
  {
    TaskLauncher launch(rt, "reduce");
    int ir = launch.add_reduction(acc);
    int id = launch.add_output(driver);
    launch.set_leaf([=](TaskContext& ctx) {
      auto part = ctx.full<double>(ir);
      for (auto& p : part) p = static_cast<double>(ctx.color() + 1);
      auto y = ctx.full<double>(id);
      Interval iv = ctx.elem_interval(id);
      for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 0;
    });
    launch.set_cost([](const TaskContext&) { return TaskCost{1, 0}; });
    launch.execute();
  }
  for (double v : acc.span<double>()) EXPECT_DOUBLE_EQ(v, 1 + 2 + 3);
  // A follow-up read on any processor should need no copies: every memory
  // already holds the reduced value.
  long copies = rt.engine().stats().copies;
  TaskLauncher read(rt, "read");
  int ia = read.add_input(acc);
  read.broadcast(ia);
  Store out = rt.create_store(DType::F64, {300});
  int io = read.add_output(out);
  read.set_leaf([=](TaskContext& ctx) {
    auto a = ctx.full<double>(ia);
    auto y = ctx.full<double>(io);
    Interval iv = ctx.elem_interval(io);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = a[0];
  });
  read.set_cost([](const TaskContext&) { return TaskCost{1, 0}; });
  read.execute();
  EXPECT_EQ(rt.engine().stats().copies, copies);
}

TEST(ImageCache, RepeatedLaunchesComputeImagesOnce) {
  auto m = gpus(2);
  Runtime rt(m);
  std::vector<coord_t> crd_v(1000);
  for (coord_t i = 0; i < 1000; ++i) crd_v[static_cast<std::size_t>(i)] = i;
  Store crd = rt.attach(crd_v);
  std::vector<double> xv(1000, 1.0);
  Store x = rt.attach(xv);
  auto run = [&] {
    Store out = rt.create_store(DType::F64, {1000});
    TaskLauncher launch(rt, "gather");
    int io = launch.add_output(out);
    int ic = launch.add_input(crd);
    int ix = launch.add_input(x);
    launch.align(io, ic);
    launch.image_points(ic, ix);
    launch.set_leaf([=](TaskContext& ctx) {
      auto ov = ctx.full<double>(io);
      auto cv = ctx.full<coord_t>(ic);
      auto xs = ctx.full<double>(ix);
      Interval iv = ctx.elem_interval(io);
      for (coord_t i = iv.lo; i < iv.hi; ++i) ov[i] = xs[cv[i]];
    });
    launch.set_cost([](const TaskContext&) { return TaskCost{1, 0}; });
    launch.execute();
  };
  run();
  long parts = rt.partitions_created();
  for (int i = 0; i < 5; ++i) run();
  // crd never changes, so the cached image partition is reused.
  EXPECT_EQ(rt.partitions_created(), parts);
}

}  // namespace
}  // namespace legate::rt

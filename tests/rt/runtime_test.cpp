#include "rt/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace legate::rt {
namespace {

sim::Machine gpu_machine(int n) {
  sim::PerfParams pp;
  return sim::Machine::gpus(n, pp);
}

TEST(Runtime, AttachRoundTrip) {
  auto m = gpu_machine(2);
  Runtime rt(m);
  std::vector<double> v{1, 2, 3, 4};
  Store s = rt.attach(v);
  auto sp = s.span<double>();
  EXPECT_EQ(std::vector<double>(sp.begin(), sp.end()), v);
}

TEST(Runtime, FillTaskWritesAllElements) {
  auto m = gpu_machine(3);
  Runtime rt(m);
  Store s = rt.create_store(DType::F64, {100});
  TaskLauncher launch(rt, "fill");
  int out = launch.add_output(s);
  launch.set_leaf([out](TaskContext& ctx) {
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 7.0;
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(out);
    return TaskCost{static_cast<double>(iv.size()) * 8, 0};
  });
  launch.execute();
  for (double x : s.span<double>()) EXPECT_DOUBLE_EQ(x, 7.0);
}

TEST(Runtime, AlignedBinaryOpComputesEverywhere) {
  auto m = gpu_machine(4);
  Runtime rt(m);
  std::vector<double> av(97), bv(97);
  std::iota(av.begin(), av.end(), 0.0);
  std::iota(bv.begin(), bv.end(), 100.0);
  Store a = rt.attach(av), b = rt.attach(bv);
  Store c = rt.create_store(DType::F64, {97});
  TaskLauncher launch(rt, "add");
  int ia = launch.add_input(a), ib = launch.add_input(b), ic = launch.add_output(c);
  launch.align(ia, ib);
  launch.align(ia, ic);
  launch.set_leaf([=](TaskContext& ctx) {
    auto x = ctx.full<double>(ia);
    auto y = ctx.full<double>(ib);
    auto z = ctx.full<double>(ic);
    Interval iv = ctx.elem_interval(ic);
    for (coord_t i = iv.lo; i < iv.hi; ++i) z[i] = x[i] + y[i];
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(ic);
    return TaskCost{static_cast<double>(iv.size()) * 24, static_cast<double>(iv.size())};
  });
  launch.execute();
  auto sp = c.span<double>();
  for (coord_t i = 0; i < 97; ++i) EXPECT_DOUBLE_EQ(sp[i], av[i] + bv[i]);
}

TEST(Runtime, ScalarReductionSumsPartials) {
  auto m = gpu_machine(4);
  Runtime rt(m);
  std::vector<double> v(1000, 0.5);
  Store s = rt.attach(v);
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
  ASSERT_TRUE(f.valid);
  EXPECT_DOUBLE_EQ(f.value, 500.0);
  EXPECT_GT(f.ready, 0.0);
}

TEST(Runtime, PartitionReuseAvoidsNewPartitions) {
  auto m = gpu_machine(4);
  Runtime rt(m);
  Store a = rt.create_store(DType::F64, {1000});
  auto run_fill = [&](Store& s) {
    TaskLauncher launch(rt, "fill");
    int out = launch.add_output(s);
    launch.set_leaf([out](TaskContext& ctx) {
      auto y = ctx.full<double>(out);
      Interval iv = ctx.elem_interval(out);
      for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 1.0;
    });
    launch.set_cost([=](const TaskContext& ctx) {
      const Interval iv = ctx.elem_interval(out);
      return TaskCost{static_cast<double>(iv.size()) * 8, 0};
    });
    launch.execute();
  };
  run_fill(a);
  long after_first = rt.partitions_created();
  for (int i = 0; i < 10; ++i) run_fill(a);
  // The key partition of `a` satisfies the constraints of every later fill.
  EXPECT_EQ(rt.partitions_created(), after_first);
  EXPECT_NE(rt.key_partition(a), nullptr);
}

TEST(Runtime, PartitionReuseCanBeDisabled) {
  auto m = gpu_machine(4);
  RuntimeOptions opts;
  opts.partition_reuse = false;
  Runtime rt(m, opts);
  Store a = rt.create_store(DType::F64, {1000});
  auto run_fill = [&] {
    TaskLauncher launch(rt, "fill");
    int out = launch.add_output(a);
    launch.set_leaf([out](TaskContext& ctx) {
      auto y = ctx.full<double>(out);
      Interval iv = ctx.elem_interval(out);
      for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 1.0;
    });
    launch.set_cost([](const TaskContext&) { return TaskCost{1, 0}; });
    launch.execute();
  };
  run_fill();
  long after_first = rt.partitions_created();
  run_fill();
  EXPECT_GT(rt.partitions_created(), after_first);
}

TEST(Runtime, RawDependenceSerializesTasks) {
  auto m = gpu_machine(1);
  Runtime rt(m);
  Store a = rt.create_store(DType::F64, {1 << 20});
  auto write_then_reduce = [&]() -> Future {
    {
      TaskLauncher w(rt, "w");
      int out = w.add_output(a);
      w.set_leaf([out](TaskContext& ctx) {
        auto y = ctx.full<double>(out);
        Interval iv = ctx.elem_interval(out);
        for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 1.0;
      });
      w.set_cost([=](const TaskContext& ctx) {
        const Interval iv = ctx.elem_interval(out);
        return TaskCost{static_cast<double>(iv.size()) * 8, 0};
      });
      w.execute();
    }
    TaskLauncher r(rt, "r");
    int in = r.add_input(a);
    r.reduce_scalar(ScalarRedop::Sum);
    r.set_leaf([in](TaskContext& ctx) {
      auto x = ctx.full<double>(in);
      Interval iv = ctx.elem_interval(in);
      double acc = 0;
      for (coord_t i = iv.lo; i < iv.hi; ++i) acc += x[i];
      ctx.contribute(acc);
    });
    r.set_cost([=](const TaskContext& ctx) {
      const Interval iv = ctx.elem_interval(in);
      return TaskCost{static_cast<double>(iv.size()) * 8, 0};
    });
    return r.execute();
  };
  Future f1 = write_then_reduce();
  Future f2 = write_then_reduce();
  // Second round must strictly follow the first (WAR on `a` then RAW).
  EXPECT_GT(f2.ready, f1.ready);
}

TEST(Runtime, FutureDependenceDelaysConsumer) {
  auto m = gpu_machine(2);
  Runtime rt(m);
  Store a = rt.create_store(DType::F64, {64});
  double far_future = 123.0;
  TaskLauncher launch(rt, "w");
  int out = launch.add_output(a);
  launch.depend_on(far_future);
  launch.reduce_scalar(ScalarRedop::Sum);
  launch.set_leaf([out](TaskContext& ctx) {
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 0;
    ctx.contribute(0);
  });
  launch.set_cost([](const TaskContext&) { return TaskCost{8, 0}; });
  Future f = launch.execute();
  EXPECT_GE(f.ready, far_future);
}

TEST(Runtime, ImageRectsBoundsFollowData) {
  auto m = gpu_machine(2);
  Runtime rt(m);
  // pos with 4 rows; rows 0-1 reference crd [0,3), rows 2-3 reference [3,6).
  Store pos = rt.create_store(DType::Rect1, {4});
  auto pr = pos.span<Rect1>();
  pr[0] = {0, 1};
  pr[1] = {2, 2};
  pr[2] = {3, 4};
  pr[3] = {5, 5};
  rt.mark_attached(pos);
  Store crd = rt.create_store(DType::I64, {6});
  auto cr = crd.span<coord_t>();
  // Each colored half of crd references a window of x.
  cr[0] = 0; cr[1] = 1; cr[2] = 2; cr[3] = 7; cr[4] = 8; cr[5] = 9;
  rt.mark_attached(crd);
  Store x = rt.create_store(DType::F64, {10});

  TaskLauncher launch(rt, "probe");
  int ip = launch.add_input(pos);
  int ic = launch.add_input(crd);
  int ix = launch.add_input(x);
  launch.image_rects(ip, ic);
  launch.image_points(ic, ix);
  std::vector<Interval> crd_ivs(2), x_ivs(2);
  launch.set_leaf([&, ic, ix](TaskContext& ctx) {
    crd_ivs[static_cast<std::size_t>(ctx.color())] = ctx.elem_interval(ic);
    x_ivs[static_cast<std::size_t>(ctx.color())] = ctx.elem_interval(ix);
  });
  launch.set_cost([](const TaskContext&) { return TaskCost{1, 0}; });
  launch.execute();
  rt.fence();  // leaf side-effects (captured intervals) need a drain
  EXPECT_EQ(crd_ivs[0], (Interval{0, 3}));
  EXPECT_EQ(crd_ivs[1], (Interval{3, 6}));
  EXPECT_EQ(x_ivs[0], (Interval{0, 3}));
  EXPECT_EQ(x_ivs[1], (Interval{7, 10}));
}

TEST(Runtime, BroadcastGivesWholeStoreToEachPoint) {
  auto m = gpu_machine(3);
  Runtime rt(m);
  std::vector<double> v(10, 2.0);
  Store b = rt.attach(v);
  Store out = rt.create_store(DType::F64, {30});
  TaskLauncher launch(rt, "bcast");
  int ib = launch.add_input(b);
  int io = launch.add_output(out);
  launch.broadcast(ib);
  launch.set_leaf([=](TaskContext& ctx) {
    EXPECT_EQ(ctx.elem_interval(ib), (Interval{0, 10}));
    auto y = ctx.full<double>(io);
    Interval iv = ctx.elem_interval(io);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 1.0;
  });
  launch.set_cost([](const TaskContext&) { return TaskCost{1, 0}; });
  launch.execute();
}

TEST(Runtime, StoreReductionSumsAcrossPoints) {
  auto m = gpu_machine(4);
  Runtime rt(m);
  Store acc = rt.create_store(DType::F64, {8});
  TaskLauncher launch(rt, "reduce");
  int ir = launch.add_reduction(acc);
  // Give the launch a partitioned driver so 4 points run.
  Store driver = rt.create_store(DType::F64, {400});
  int id = launch.add_output(driver);
  launch.set_leaf([=](TaskContext& ctx) {
    auto part = ctx.full<double>(ir);  // private zeroed partial buffer
    for (auto& p : part) p = 1.0;
    auto y = ctx.full<double>(id);
    Interval iv = ctx.elem_interval(id);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 0;
  });
  launch.set_cost([](const TaskContext&) { return TaskCost{1, 0}; });
  launch.execute();
  for (double x : acc.span<double>()) EXPECT_DOUBLE_EQ(x, 4.0);
}

TEST(Runtime, SingleColorLaunchRunsOnce) {
  auto m = gpu_machine(4);
  Runtime rt(m);
  Store a = rt.create_store(DType::F64, {100});
  int runs = 0;
  TaskLauncher launch(rt, "seq");
  int out = launch.add_output(a);
  launch.require_colors(1);
  launch.set_leaf([&, out](TaskContext& ctx) {
    ++runs;
    EXPECT_EQ(ctx.elem_interval(out), (Interval{0, 100}));
  });
  launch.set_cost([](const TaskContext&) { return TaskCost{1, 0}; });
  launch.execute();
  rt.fence();  // leaf side-effects (captured counter) need a drain
  EXPECT_EQ(runs, 1);
}

TEST(Runtime, ShuffleTransposesAndChargesTraffic) {
  auto m = gpu_machine(4);
  Runtime rt(m);
  Store in = rt.create_store(DType::F64, {4, 3});
  auto is = in.span<double>();
  for (coord_t i = 0; i < 12; ++i) is[i] = static_cast<double>(i);
  rt.mark_attached(in);
  Store out = rt.create_store(DType::F64, {3, 4});
  long copies_before = rt.engine().stats().copies;
  rt.shuffle(in, out, [&]() {
    auto a = in.span<double>();
    auto b = out.span<double>();
    for (coord_t i = 0; i < 4; ++i)
      for (coord_t j = 0; j < 3; ++j) b[j * 4 + i] = a[i * 3 + j];
  });
  EXPECT_DOUBLE_EQ(out.span<double>()[0 * 4 + 2], 6.0);  // out[0][2] == in[2][0]
  EXPECT_GT(rt.engine().stats().copies, copies_before);
}

TEST(Runtime, ShuffleSingleProcChargesNoTraffic) {
  // Regression: the volume/P^2 all-to-all model used to charge every (s, d)
  // pair including s == d, so a single-proc shuffle booked interconnect
  // traffic for data that never leaves the processor.
  auto m = gpu_machine(1);
  Runtime rt(m);
  Store in = rt.create_store(DType::F64, {4, 3});
  auto is = in.span<double>();
  for (coord_t i = 0; i < 12; ++i) is[i] = static_cast<double>(i);
  rt.mark_attached(in);
  Store out = rt.create_store(DType::F64, {3, 4});
  const auto before = rt.engine().stats();
  rt.shuffle(in, out, [&]() {
    auto a = in.span<double>();
    auto b = out.span<double>();
    for (coord_t i = 0; i < 4; ++i)
      for (coord_t j = 0; j < 3; ++j) b[j * 4 + i] = a[i * 3 + j];
  });
  EXPECT_DOUBLE_EQ(out.span<double>()[0 * 4 + 2], 6.0);
  const auto& after = rt.engine().stats();
  EXPECT_EQ(after.copies, before.copies);
  EXPECT_DOUBLE_EQ(after.bytes_intra, before.bytes_intra);
  EXPECT_DOUBLE_EQ(after.bytes_nvlink, before.bytes_nvlink);
  EXPECT_DOUBLE_EQ(after.bytes_ib, before.bytes_ib);
}

TEST(Runtime, ShuffleCpuSocketsChargeIntraOnly) {
  // Two sockets sharing one sysmem: cross-socket pairs move bytes within a
  // single memory, never over nvlink or the NIC.
  sim::PerfParams pp;
  auto m = sim::Machine::sockets(2, pp);
  Runtime rt(m);
  Store in = rt.create_store(DType::F64, {8, 4});
  auto is = in.span<double>();
  for (coord_t i = 0; i < 32; ++i) is[i] = static_cast<double>(i);
  rt.mark_attached(in);
  Store out = rt.create_store(DType::F64, {4, 8});
  const auto before = rt.engine().stats();
  rt.shuffle(in, out, [&]() {
    auto a = in.span<double>();
    auto b = out.span<double>();
    for (coord_t i = 0; i < 8; ++i)
      for (coord_t j = 0; j < 4; ++j) b[j * 8 + i] = a[i * 4 + j];
  });
  const auto& after = rt.engine().stats();
  EXPECT_GT(after.bytes_intra, before.bytes_intra);
  EXPECT_DOUBLE_EQ(after.bytes_nvlink, before.bytes_nvlink);
  EXPECT_DOUBLE_EQ(after.bytes_ib, before.bytes_ib);
}

TEST(Runtime, MoreColorsThanRowsClamps) {
  auto m = gpu_machine(6);
  Runtime rt(m);
  Store a = rt.create_store(DType::F64, {3});
  std::atomic<int> points{0};  // point leaves may run on several exec threads
  TaskLauncher launch(rt, "tiny");
  int out = launch.add_output(a);
  launch.set_leaf([&, out](TaskContext& ctx) {
    ++points;
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = 1;
  });
  launch.set_cost([](const TaskContext&) { return TaskCost{1, 0}; });
  launch.execute();
  EXPECT_LE(points.load(), 3);
  for (double x : a.span<double>()) EXPECT_DOUBLE_EQ(x, 1.0);
}

}  // namespace
}  // namespace legate::rt

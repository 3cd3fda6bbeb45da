// Task & kernel fusion (src/fuse + the runtime window): legality edges,
// window lifecycle, determinism, and the launch-reduction acceptance bar.
// Every value-producing scenario is checked bit-for-bit against the same
// program with fusion off — fusion is a pure launch-stream rewrite and must
// never change result bits (DESIGN.md "Task & kernel fusion").
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "apps/workloads.h"
#include "dense/array.h"
#include "metrics/metrics.h"
#include "solve/krylov.h"
#include "sparse/formats.h"

namespace legate {
namespace {

using dense::DArray;
using rt::ConstraintKind;
using rt::DType;
using rt::Priv;
using rt::Runtime;
using rt::RuntimeOptions;
using rt::Store;
using rt::TaskContext;
using rt::TaskLauncher;
using sparse::CsrMatrix;

RuntimeOptions fusion_opts(rt::Fusion mode, int threads = 4) {
  RuntimeOptions opts;
  opts.fusion = mode;
  opts.exec_threads = threads;
  opts.exec_pipeline = 1;
  return opts;
}

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
    return rt::TaskCost{static_cast<double>(iv.size()) * 8, 0};
  });
  launch.execute();
}

void launch_scale(Runtime& rt, Store& s, double factor,
                  rt::PartitionRef pin = nullptr) {
  TaskLauncher launch(rt, "scale");
  int io = launch.add_inout(s);
  if (pin) launch.set_partition(io, pin);
  launch.set_leaf([io, factor](TaskContext& ctx) {
    auto y = ctx.full<double>(io);
    Interval iv = ctx.elem_interval(io);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] *= factor;
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(io);
    return rt::TaskCost{static_cast<double>(iv.size()) * 16, static_cast<double>(iv.size())};
  });
  launch.execute();
}

TEST(Fusion, ModeParsing) {
  EXPECT_EQ(rt::parse_fusion_mode(nullptr), rt::Fusion::Unset);
  EXPECT_EQ(rt::parse_fusion_mode("off"), rt::Fusion::Off);
  EXPECT_EQ(rt::parse_fusion_mode("0"), rt::Fusion::Off);
  EXPECT_EQ(rt::parse_fusion_mode("on"), rt::Fusion::On);
  EXPECT_EQ(rt::parse_fusion_mode("ON"), rt::Fusion::On);
  EXPECT_EQ(rt::parse_fusion_mode("1"), rt::Fusion::On);
  EXPECT_EQ(rt::parse_fusion_mode("auto"), rt::Fusion::On);
  EXPECT_EQ(rt::parse_fusion_mode("bogus"), rt::Fusion::Unset);
}

TEST(Fusion, ElementwiseChainFusesAndMatchesOffBits) {
  auto run = [](rt::Fusion mode) {
    sim::PerfParams pp;
    Runtime rt(sim::Machine::gpus(4, pp), fusion_opts(mode));
    auto x = DArray::random(rt, 5000, 11);
    auto y = DArray::random(rt, 5000, 13);
    for (int i = 0; i < 4; ++i) {
      x.axpy(0.5, y);
      x.iscale(0.75);
      y.iadd(x);
    }
    return std::make_tuple(x.to_vector(), rt.fused_participants(),
                           rt.fused_eliminated());
  };
  auto [off, off_fused, off_elim] = run(rt::Fusion::Off);
  auto [on, on_fused, on_elim] = run(rt::Fusion::On);
  EXPECT_EQ(off_fused, 0);
  EXPECT_EQ(off_elim, 0);
  EXPECT_GT(on_fused, 0);
  EXPECT_GT(on_elim, 0);
  ASSERT_EQ(off.size(), on.size());
  EXPECT_EQ(std::memcmp(off.data(), on.data(), off.size() * sizeof(double)), 0)
      << "fusion changed result bits";
}

TEST(Fusion, FenceMidChainSplitsWindow) {
  sim::PerfParams pp;
  Runtime rt(sim::Machine::gpus(2, pp), fusion_opts(rt::Fusion::On));
  if (!rt.fusion_enabled()) GTEST_SKIP();
  Store s = rt.create_store(DType::F64, {2000});
  launch_fill(rt, s, 1.0);
  rt.fence();  // observation point: the window must flush as a single launch
  launch_scale(rt, s, 2.0);
  rt.fence();
  // Both windows were singletons: nothing fused, nothing eliminated.
  EXPECT_EQ(rt.fused_participants(), 0);
  EXPECT_EQ(rt.fused_eliminated(), 0);
  auto sp = s.span<double>();
  for (coord_t i = 0; i < 2000; ++i) ASSERT_EQ(sp[i], static_cast<double>(i) * 2.0);
}

TEST(Fusion, PartitionChangeMidChainSplitsWindow) {
  sim::PerfParams pp;
  Runtime rt(sim::Machine::gpus(2, pp), fusion_opts(rt::Fusion::On));
  if (!rt.fusion_enabled()) GTEST_SKIP();
  Store s = rt.create_store(DType::F64, {2000});
  launch_fill(rt, s, 1.0);
  // A pinned partition has a fresh uid even when its intervals coincide with
  // the equal split the fill solved to: the window must not mix them.
  auto pin = rt::Partition::equal(2000, 2);
  launch_scale(rt, s, 3.0, pin);
  rt.fence();
  EXPECT_EQ(rt.fused_participants(), 0);
  EXPECT_EQ(rt.fused_eliminated(), 0);
  auto sp = s.span<double>();
  for (coord_t i = 0; i < 2000; ++i) ASSERT_EQ(sp[i], static_cast<double>(i) * 3.0);
}

TEST(Fusion, SamePinnedPartitionKeepsChainFusable) {
  sim::PerfParams pp;
  Runtime rt(sim::Machine::gpus(2, pp), fusion_opts(rt::Fusion::On));
  if (!rt.fusion_enabled()) GTEST_SKIP();
  Store s = rt.create_store(DType::F64, {2000});
  launch_fill(rt, s, 1.0);
  rt.fence();
  // Both links pin the *same* partition object (uid-equal): still one window.
  auto pin = rt::Partition::equal(2000, 2);
  launch_scale(rt, s, 2.0, pin);
  launch_scale(rt, s, 5.0, pin);
  rt.fence();
  EXPECT_EQ(rt.fused_participants(), 2);
  EXPECT_EQ(rt.fused_eliminated(), 1);
  auto sp = s.span<double>();
  for (coord_t i = 0; i < 2000; ++i) ASSERT_EQ(sp[i], static_cast<double>(i) * 10.0);
}

TEST(Fusion, AliasingStoreAsInputAndOutputKeepsProgramOrder) {
  // a is written by link 1 and read by link 2; b is read by link 1 and
  // written by link 2. The fused leaf must replay the links in program order
  // per color or the chain computes different bits.
  auto run = [](rt::Fusion mode) {
    sim::PerfParams pp;
    Runtime rt(sim::Machine::gpus(4, pp), fusion_opts(mode));
    auto a = DArray::random(rt, 4096, 3);
    auto b = DArray::random(rt, 4096, 5);
    for (int i = 0; i < 3; ++i) {
      a.iadd(b);  // a = a + b
      b.iadd(a);  // b = b + (a + b)
    }
    auto va = a.to_vector();
    auto vb = b.to_vector();
    va.insert(va.end(), vb.begin(), vb.end());
    return std::make_pair(va, rt.fused_participants());
  };
  auto [off, off_fused] = run(rt::Fusion::Off);
  auto [on, on_fused] = run(rt::Fusion::On);
  EXPECT_EQ(off_fused, 0);
  EXPECT_GT(on_fused, 0);
  ASSERT_EQ(off.size(), on.size());
  EXPECT_EQ(std::memcmp(off.data(), on.data(), off.size() * sizeof(double)), 0);
}

TEST(Fusion, ReductionTerminatesWindowAndResolvesEagerly) {
  auto run = [](rt::Fusion mode) {
    sim::PerfParams pp;
    Runtime rt(sim::Machine::gpus(4, pp), fusion_opts(mode));
    auto x = DArray::random(rt, 3000, 7);
    auto y = DArray::random(rt, 3000, 9);
    x.axpy(2.0, y);
    x.iscale(0.5);
    dense::Scalar d = x.dot(y);  // terminal link: must resolve immediately
    EXPECT_EQ(rt.fuse_window_size(), 0u);
    return d.value;
  };
  double off = run(rt::Fusion::Off);
  double on = run(rt::Fusion::On);
  EXPECT_EQ(off, on) << "fused trailing reduction changed the scalar bits";
}

TEST(Fusion, StoreDestroyedMidWindowKeepsHazardEdges) {
  // Regression: a store destroyed while the window is open (the temporary of
  // an `x = f(x)`-style rebinding) must keep its hazard entry alive until the
  // window's records are enqueued, or the fused launch loses its dependence
  // edge on the temporary's producer and races it on the pool.
  auto run = [](rt::Fusion mode, int threads) {
    sim::PerfParams pp;
    Runtime rt(sim::Machine::gpus(2, pp), fusion_opts(mode, threads));
    auto x = DArray::random(rt, 4000, 3);
    for (int i = 0; i < 6; ++i) {
      auto t = DArray::random(rt, 4000, static_cast<std::uint64_t>(i));
      x.iadd(t);
      x.iscale(0.5);
    }  // t dies here, usually with the window still open
    return x.to_vector();
  };
  auto base = run(rt::Fusion::Off, 1);
  for (int threads : {1, 4, 8}) {
    auto v = run(rt::Fusion::On, threads);
    ASSERT_EQ(base.size(), v.size());
    EXPECT_EQ(std::memcmp(base.data(), v.data(), base.size() * sizeof(double)), 0)
        << "diverged at exec_threads=" << threads;
  }
}

TEST(Fusion, SpmvChainRebindingBitIdenticalAcrossThreads) {
  // The Fig. 5 steady-state loop with handle rebinding: spmv heads each
  // window (image solve reads real bytes), iscale joins it, and the dying
  // old vector exercises the deferred release + hazard retirement path.
  auto run = [](rt::Fusion mode, int threads) {
    sim::PerfParams pp;
    Runtime rt(sim::Machine::gpus(2, pp), fusion_opts(mode, threads));
    auto prob = apps::banded_matrix(4000, 1);
    auto A = CsrMatrix::from_host(rt, prob.rows, prob.cols, prob.indptr,
                                  prob.indices, prob.values);
    auto x = DArray::random(rt, prob.rows, 3);
    for (int it = 0; it < 6; ++it) {
      x = A.spmv(x);
      x.iscale(0.25);
    }
    return x.to_vector();
  };
  auto base = run(rt::Fusion::Off, 1);
  for (int threads : {1, 4, 8}) {
    auto v = run(rt::Fusion::On, threads);
    ASSERT_EQ(base.size(), v.size());
    EXPECT_EQ(std::memcmp(base.data(), v.data(), base.size() * sizeof(double)), 0)
        << "diverged at exec_threads=" << threads;
  }
}

TEST(Fusion, ComposesWithIntegrityVerifyOnRead) {
  // Integrity disables pipelining but not fusion: fused chains re-record
  // only their final outputs, and verify-on-read still sees correct bytes.
  auto run = [](rt::Fusion mode) {
    sim::PerfParams pp;
    RuntimeOptions opts = fusion_opts(mode);
    opts.integrity = rt::Integrity::Recover;
    Runtime rt(sim::Machine::gpus(2, pp), opts);
    auto x = DArray::random(rt, 2048, 17);
    auto y = DArray::random(rt, 2048, 19);
    for (int i = 0; i < 3; ++i) {
      x.axpy(0.25, y);
      x.iscale(1.5);
    }
    return std::make_pair(x.to_vector(), rt.fused_participants());
  };
  auto [off, off_fused] = run(rt::Fusion::Off);
  auto [on, on_fused] = run(rt::Fusion::On);
  EXPECT_EQ(off_fused, 0);
  EXPECT_GT(on_fused, 0) << "fusion should stay active under integrity";
  ASSERT_EQ(off.size(), on.size());
  EXPECT_EQ(std::memcmp(off.data(), on.data(), off.size() * sizeof(double)), 0);
}

TEST(Fusion, FaultInjectionDisablesFusion) {
  sim::PerfParams pp;
  RuntimeOptions opts = fusion_opts(rt::Fusion::On);
  opts.faults.enabled = true;
  Runtime rt(sim::Machine::gpus(2, pp), opts);
  EXPECT_FALSE(rt.fusion_enabled());
  EXPECT_EQ(rt.fusion_mode(), rt::Fusion::On);  // requested mode is preserved
}

TEST(Fusion, CgLaunchReductionAtLeastFortyPercent) {
  // Acceptance bar: fusion removes >= 40% of CG's per-iteration launches
  // (spmv+dot and axpy+axpy+norm chains fold; xpay stays alone), measured
  // through the stable counters and the per-solver telemetry gauge.
  // The bar was set on the equal row split (chains fold only over one
  // partition), so the split is pinned rather than left to LSR_PARTITION.
  sim::PerfParams pp;
  RuntimeOptions opts = fusion_opts(rt::Fusion::On);
  opts.partition = rt::PartitionStrategy::Rows;
  Runtime rt(sim::Machine::gpus(4, pp), opts);
  if (!rt.fusion_enabled()) GTEST_SKIP();
  CsrMatrix t = sparse::diags(rt, 20, {{-1, -1.0}, {0, 2.0}, {1, -1.0}});
  CsrMatrix i = sparse::eye(rt, 20);
  CsrMatrix A = sparse::kron(i, t).add(sparse::kron(t, i));
  auto b = DArray::full(rt, A.rows(), 1.0);
  long applied0 = rt.launches_applied();
  long elim0 = rt.fused_eliminated();
  auto res = solve::cg(A, b, 1e-10, 500);
  EXPECT_TRUE(res.converged);
  long applied = rt.launches_applied() - applied0;
  long elim = rt.fused_eliminated() - elim0;
  ASSERT_GT(applied + elim, 0);
  double fraction = static_cast<double>(elim) / static_cast<double>(applied + elim);
  EXPECT_GE(fraction, 0.40) << "eliminated " << elim << " of " << (applied + elim);

  metrics::Snapshot snap = rt.metrics_snapshot();
  const auto* elim_m = snap.find("lsr_fuse_launches_eliminated_total");
  ASSERT_NE(elim_m, nullptr);
  EXPECT_GE(elim_m->value, static_cast<double>(elim));
  const auto* frac_m = snap.find("lsr_solve_cg_fused_fraction");
  ASSERT_NE(frac_m, nullptr);
  EXPECT_GE(frac_m->value, 0.40);

  // Bit-identity of the accepted configuration against fusion off.
  Runtime rt_off(sim::Machine::gpus(4, pp), fusion_opts(rt::Fusion::Off));
  CsrMatrix t2 = sparse::diags(rt_off, 20, {{-1, -1.0}, {0, 2.0}, {1, -1.0}});
  CsrMatrix i2 = sparse::eye(rt_off, 20);
  CsrMatrix A2 = sparse::kron(i2, t2).add(sparse::kron(t2, i2));
  auto b2 = DArray::full(rt_off, A2.rows(), 1.0);
  auto res2 = solve::cg(A2, b2, 1e-10, 500);
  EXPECT_EQ(res.iterations, res2.iterations);
  auto x_on = res.x.to_vector();
  auto x_off = res2.x.to_vector();
  ASSERT_EQ(x_on.size(), x_off.size());
  EXPECT_EQ(std::memcmp(x_on.data(), x_off.data(), x_on.size() * sizeof(double)), 0);
}

TEST(Fusion, WindowCountersAreConsistent) {
  sim::PerfParams pp;
  Runtime rt(sim::Machine::gpus(2, pp), fusion_opts(rt::Fusion::On));
  if (!rt.fusion_enabled()) GTEST_SKIP();
  auto x = DArray::full(rt, 1000, 1.0);
  auto y = DArray::full(rt, 1000, 2.0);
  x.iadd(y);
  x.iscale(0.5);
  x.iadd(y);
  rt.fence();
  metrics::Snapshot snap = rt.metrics_snapshot();
  const auto* scanned = snap.find("lsr_fuse_windows_scanned_total");
  const auto* fused = snap.find("lsr_fuse_launches_fused_total");
  const auto* elim = snap.find("lsr_fuse_launches_eliminated_total");
  const auto* saved = snap.find("lsr_fuse_bytes_saved_total");
  ASSERT_NE(scanned, nullptr);
  ASSERT_NE(fused, nullptr);
  ASSERT_NE(elim, nullptr);
  ASSERT_NE(saved, nullptr);
  EXPECT_GT(scanned->value, 0.0);
  // Each fused window of k links eliminates k-1 launches.
  EXPECT_GT(fused->value, elim->value);
  EXPECT_GT(saved->value, 0.0) << "merged reads should discount round-trips";
  auto sp = x.to_vector();
  for (double v : sp) ASSERT_EQ(v, 3.5);  // (1+2)*0.5 + 2
}

}  // namespace
}  // namespace legate

// Reproduces the paper's Fig. 5 walk-through: a power-iteration loop
// (x = A @ x; x *= s) on two GPUs must reach a steady state where the only
// inter-GPU traffic is the one-element halo exchange of x, with no further
// allocation resizing. This exercises image partitioning, partition reuse,
// allocation coalescing and the out-of-scope allocation pool together.
#include <gtest/gtest.h>

#include <vector>

#include "rt/runtime.h"

namespace legate::rt {
namespace {

struct Csr {
  Store pos, crd, vals;
  coord_t rows;
};

/// Tridiagonal matrix with all entries 1/3 (any banded matrix works).
Csr make_tridiag(Runtime& rt, coord_t n) {
  std::vector<Rect1> pos(static_cast<std::size_t>(n));
  std::vector<coord_t> crd;
  std::vector<double> vals;
  for (coord_t i = 0; i < n; ++i) {
    coord_t lo = static_cast<coord_t>(crd.size());
    for (coord_t j = std::max<coord_t>(0, i - 1); j <= std::min(n - 1, i + 1); ++j) {
      crd.push_back(j);
      vals.push_back(1.0 / 3.0);
    }
    pos[static_cast<std::size_t>(i)] = {lo, static_cast<coord_t>(crd.size()) - 1};
  }
  Csr A;
  A.rows = n;
  A.pos = rt.create_store(DType::Rect1, {n});
  std::copy(pos.begin(), pos.end(), A.pos.span<Rect1>().begin());
  rt.mark_attached(A.pos);
  A.crd = rt.attach(crd);
  A.vals = rt.attach(vals);
  return A;
}

Store spmv(Runtime& rt, const Csr& A, const Store& x) {
  Store y = rt.create_store(DType::F64, {A.rows});
  TaskLauncher launch(rt, "spmv");
  int iy = launch.add_output(y);
  int ip = launch.add_input(A.pos);
  int ic = launch.add_input(A.crd);
  int iv = launch.add_input(A.vals);
  int ix = launch.add_input(x);
  launch.align(iy, ip);
  launch.image_rects(ip, ic);
  launch.image_rects(ip, iv);
  launch.image_points(ic, ix);
  launch.set_leaf([=](TaskContext& ctx) {
    auto yv = ctx.full<double>(iy);
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto vv = ctx.full<double>(iv);
    auto xv = ctx.full<double>(ix);
    Interval rows = ctx.elem_interval(iy);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      double acc = 0;
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) acc += vv[j] * xv[cv[j]];
      yv[i] = acc;
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double nnz = ctx.count(ic);  // the crd image: contiguous pos rows
    return TaskCost{nnz * 24 + ctx.count(iy) * 24, 2 * nnz};
  });
  launch.execute();
  return y;
}

void scale_inplace(Runtime& rt, Store& x, double s) {
  TaskLauncher launch(rt, "scale");
  int ix = launch.add_inout(x);
  launch.set_leaf([=](TaskContext& ctx) {
    auto xv = ctx.full<double>(ix);
    Interval iv = ctx.elem_interval(ix);
    for (coord_t i = iv.lo; i < iv.hi; ++i) xv[i] *= s;
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(ix);
    return TaskCost{static_cast<double>(iv.size()) * 16, static_cast<double>(iv.size())};
  });
  launch.execute();
}

class CoalescingFig5 : public ::testing::Test {
 protected:
  static constexpr coord_t kN = 1000;
};

TEST_F(CoalescingFig5, SteadyStateOnlyHaloTraffic) {
  sim::PerfParams pp;
  sim::Machine m = sim::Machine::gpus(2, pp);
  Runtime rt(m);
  Csr A = make_tridiag(rt, kN);
  std::vector<double> x0(static_cast<std::size_t>(kN), 1.0);
  Store x = rt.attach(x0);

  // Warm up past the paper's startup transitions (steady by iteration 3).
  for (int it = 0; it < 4; ++it) {
    Store y = spmv(rt, A, x);
    scale_inplace(rt, y, 0.5);
    x = y;
  }

  double nvlink0 = rt.engine().stats().bytes_nvlink;
  double intra0 = rt.engine().stats().bytes_intra;
  for (int it = 0; it < 5; ++it) {
    Store y = spmv(rt, A, x);
    scale_inplace(rt, y, 0.5);
    x = y;
    rt.fence();  // stats observation point: drain deferred launches
    const sim::Stats st = rt.engine().stats();
    // Per iteration: exactly one 8-byte halo element in each direction.
    EXPECT_DOUBLE_EQ(st.bytes_nvlink - nvlink0, 16.0 * (it + 1));
    // And no further allocation resizing.
    EXPECT_DOUBLE_EQ(st.bytes_intra, intra0);
  }
}

TEST_F(CoalescingFig5, WithoutCoalescingEveryIterationRecopies) {
  sim::PerfParams pp;
  sim::Machine m = sim::Machine::gpus(2, pp);
  RuntimeOptions opts;
  opts.coalescing = false;
  Runtime rt(m, opts);
  Csr A = make_tridiag(rt, kN);
  std::vector<double> x0(static_cast<std::size_t>(kN), 1.0);
  Store x = rt.attach(x0);
  for (int it = 0; it < 4; ++it) {
    Store y = spmv(rt, A, x);
    scale_inplace(rt, y, 0.5);
    x = y;
  }
  const sim::Stats st0 = rt.engine().stats();
  double total0 = st0.bytes_nvlink + st0.bytes_intra;
  for (int it = 0; it < 3; ++it) {
    Store y = spmv(rt, A, x);
    scale_inplace(rt, y, 0.5);
    x = y;
  }
  rt.fence();  // stats observation point: drain deferred launches
  const sim::Stats st = rt.engine().stats();
  // Far more than halo traffic: each iteration re-copies whole blocks
  // (block-sized local copies plus the halo elements).
  EXPECT_GT(st.bytes_nvlink + st.bytes_intra - total0, 3 * 16.0 * 10);
}

TEST_F(CoalescingFig5, ResultsIdenticalWithAndWithoutCoalescing) {
  sim::PerfParams pp;
  auto run = [&](bool coalesce) {
    sim::Machine m = sim::Machine::gpus(2, pp);
    RuntimeOptions opts;
    opts.coalescing = coalesce;
    Runtime rt(m, opts);
    Csr A = make_tridiag(rt, kN);
    std::vector<double> x0(static_cast<std::size_t>(kN), 1.0);
    Store x = rt.attach(x0);
    for (int it = 0; it < 6; ++it) {
      Store y = spmv(rt, A, x);
      scale_inplace(rt, y, 0.5);
      x = y;
    }
    auto sp = x.span<double>();
    return std::vector<double>(sp.begin(), sp.end());
  };
  // The mapper policy must never change results, only performance.
  EXPECT_EQ(run(true), run(false));
}

TEST_F(CoalescingFig5, SequentialOracleAgreement) {
  sim::PerfParams pp;
  sim::Machine m = sim::Machine::gpus(3, pp);
  Runtime rt(m);
  Csr A = make_tridiag(rt, kN);
  std::vector<double> ref(static_cast<std::size_t>(kN), 1.0);
  Store x = rt.attach(ref);
  for (int it = 0; it < 3; ++it) {
    Store y = spmv(rt, A, x);
    x = y;
    // Sequential tridiagonal SpMV oracle.
    std::vector<double> next(ref.size());
    for (coord_t i = 0; i < kN; ++i) {
      double acc = 0;
      for (coord_t j = std::max<coord_t>(0, i - 1); j <= std::min(kN - 1, i + 1); ++j)
        acc += ref[static_cast<std::size_t>(j)] / 3.0;
      next[static_cast<std::size_t>(i)] = acc;
    }
    ref = next;
  }
  auto sp = x.span<double>();
  for (coord_t i = 0; i < kN; ++i)
    EXPECT_NEAR(sp[i], ref[static_cast<std::size_t>(i)], 1e-12) << i;
}

}  // namespace
}  // namespace legate::rt

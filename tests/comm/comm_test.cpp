// Communication planner (src/comm + rt/runtime_comm.cpp): mode parsing,
// link coalescing, the combined (key, signature) plan cache, invalidation
// through span access / repartitioning / store destruction, bit-identical
// results across off|plan|overlap, and a deterministic hit/miss sequence.
//
// Assertion guide for the dirty-x SpMV loop (x is rewritten each iteration
// so the next spmv must re-gather it): csr_spmv reaches steady-state cache
// HITS from the third iteration, while axpy reads the freshly created y and
// misses every iteration by design (new store state = new signature, cached
// as a separate combined-slot entry). Loop tests therefore assert on hit
// *growth* per iteration, never on a global hit rate; the >= 90% acceptance
// rate is asserted on CG, whose working set is persistent.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/workloads.h"
#include "baselines/ref/ref.h"
#include "comm/comm.h"
#include "metrics/metrics.h"
#include "solve/krylov.h"
#include "sparse/formats.h"

namespace legate {
namespace {

using dense::DArray;
using sparse::CsrMatrix;

constexpr int kProcs = 12;

rt::RuntimeOptions comm_opts(comm::Mode m, int threads = 1) {
  rt::RuntimeOptions o;
  o.comm = m;
  o.exec_threads = threads;
  o.partition = rt::PartitionStrategy::Nnz;
  return o;
}

apps::HostProblem zipf_problem() {
  // Skewed rows so the nnz partition's gathers cross node boundaries.
  return apps::zipf_matrix(600 * kProcs, 1.05, 8, 97);
}

CsrMatrix from_problem(rt::Runtime& rt, const apps::HostProblem& p) {
  return CsrMatrix::from_host(rt, p.rows, p.cols, p.indptr, p.indices,
                              p.values);
}

struct LoopRun {
  std::vector<double> x;
  comm::PlanStats stats;
  double makespan{0};
};

// The comm-bound microbenchmark loop: y = A x; x += 1e-9 y.
LoopRun run_spmv_loop(comm::Mode mode, int iters, int threads = 1) {
  sim::PerfParams pp;
  rt::Runtime rt(sim::Machine::gpus(kProcs, pp), comm_opts(mode, threads));
  apps::HostProblem prob = zipf_problem();
  CsrMatrix A = from_problem(rt, prob);
  DArray x = DArray::full(rt, prob.rows, 1.0);
  for (int i = 0; i < iters; ++i) {
    DArray y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);
  }
  rt.fence();
  return {x.to_vector(), rt.comm_plan_stats(), rt.sim_time()};
}

CsrMatrix poisson2d(rt::Runtime& rt, coord_t g) {
  CsrMatrix t = sparse::diags(rt, g, {{-1, -1.0}, {0, 2.0}, {1, -1.0}});
  CsrMatrix i = sparse::eye(rt, g);
  return sparse::kron(i, t).add(sparse::kron(t, i));
}

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_FALSE(a.empty()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

TEST(CommMode, ParseAndName) {
  EXPECT_EQ(comm::parse_comm_mode(nullptr), comm::Mode::Unset);
  EXPECT_EQ(comm::parse_comm_mode(""), comm::Mode::Unset);
  EXPECT_EQ(comm::parse_comm_mode("off"), comm::Mode::Off);
  EXPECT_EQ(comm::parse_comm_mode("0"), comm::Mode::Off);
  EXPECT_EQ(comm::parse_comm_mode("plan"), comm::Mode::Plan);
  EXPECT_EQ(comm::parse_comm_mode("on"), comm::Mode::Plan);
  EXPECT_EQ(comm::parse_comm_mode("1"), comm::Mode::Plan);
  EXPECT_EQ(comm::parse_comm_mode("overlap"), comm::Mode::Overlap);
  EXPECT_EQ(comm::parse_comm_mode("bogus"), comm::Mode::Unset);
  EXPECT_STREQ(comm::comm_mode_name(comm::Mode::Off), "off");
  EXPECT_STREQ(comm::comm_mode_name(comm::Mode::Plan), "plan");
  EXPECT_STREQ(comm::comm_mode_name(comm::Mode::Overlap), "overlap");
}

TEST(CommPlan, CoalesceGroupsByModeledLink) {
  // Memories 0,1 on node 0; memories 2,3 on node 1.
  const std::vector<int> mem_node{0, 0, 1, 1};
  comm::ExchangePlan plan;
  auto ghost = [](int src, int dst, int color, double bytes) {
    comm::Ghost g;
    g.piece = {0, 8};
    g.src_mem = src;
    g.dst_mem = dst;
    g.color = color;
    g.bytes = bytes;
    return g;
  };
  plan.ghosts = {
      ghost(0, 0, 0, 10),  // intra-memory
      ghost(0, 1, 1, 20),  // nvlink (same node)
      ghost(0, 2, 2, 30),  // ib: (src_mem 0, node 1)
      ghost(0, 3, 2, 40),  // ib: same group as above (same src_mem, dst node)
      ghost(1, 2, 0, 50),  // ib: distinct group (different src_mem)
  };
  plan.coalesce(3, mem_node, true);

  ASSERT_EQ(plan.transfers.size(), 4u);
  // First-appearance order, so indices are stable.
  EXPECT_EQ(plan.transfers[0].bytes, 10);
  EXPECT_EQ(plan.transfers[1].bytes, 20);
  EXPECT_EQ(plan.transfers[2].bytes, 70);  // ghosts 2 and 3 coalesced
  EXPECT_EQ(plan.transfers[3].bytes, 50);
  EXPECT_EQ(plan.transfers[2].src_mem, 0);
  EXPECT_EQ(plan.transfers[2].dst_mem, 2);  // representative = first member
  EXPECT_EQ(plan.ghosts[2].transfer, 2u);
  EXPECT_EQ(plan.ghosts[3].transfer, 2u);
  EXPECT_EQ(plan.ghosts[4].transfer, 3u);
  EXPECT_EQ(plan.total_bytes, 150);
  ASSERT_EQ(plan.ghost_bytes_by_color.size(), 3u);
  EXPECT_EQ(plan.ghost_bytes_by_color[0], 60);
  EXPECT_EQ(plan.ghost_bytes_by_color[1], 20);
  EXPECT_EQ(plan.ghost_bytes_by_color[2], 70);

  // Off's ablation: one transfer per ghost, in ghost order; same tallies.
  plan.coalesce(3, mem_node, false);
  ASSERT_EQ(plan.transfers.size(), 5u);
  for (std::uint32_t gi = 0; gi < 5; ++gi) {
    EXPECT_EQ(plan.transfers[gi].bytes, plan.ghosts[gi].bytes);
    EXPECT_EQ(plan.ghosts[gi].transfer, gi);
  }
  EXPECT_EQ(plan.total_bytes, 150);
  EXPECT_EQ(plan.ghost_bytes_by_color[0], 60);
}

TEST(CommPlan, CacheKeepsDistinctSignaturesUnderOneKey) {
  comm::PlanCache cache;
  const std::uint64_t key = 0xabcdULL;

  EXPECT_EQ(cache.lookup(key, 1), nullptr);
  comm::ExchangePlan p1;
  p1.signature = 1;
  p1.total_bytes = 100;
  cache.insert(key, p1);
  comm::ExchangePlan p2;
  p2.signature = 2;
  p2.total_bytes = 200;
  cache.insert(key, p2);

  // A launch structure alternating between two store states must not thrash:
  // both plans coexist. (The cache keeps no counts; the runtime counts hits
  // and misses from these lookup results.)
  const comm::ExchangePlan* h1 = cache.lookup(key, 1);
  const comm::ExchangePlan* h2 = cache.lookup(key, 2);
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h2, nullptr);
  EXPECT_EQ(h1->total_bytes, 100);
  EXPECT_EQ(h2->total_bytes, 200);
  EXPECT_EQ(cache.lookup(key, 3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CommPlan, CacheInvalidateStoreDropsEveryReferencingPlan) {
  comm::PlanCache cache;
  comm::ExchangePlan pa;
  pa.signature = 1;
  pa.stores = {7, 9};
  cache.insert(0x1ULL, pa);
  comm::ExchangePlan pb;
  pb.signature = 2;
  pb.stores = {7};
  cache.insert(0x2ULL, pb);
  comm::ExchangePlan pc;
  pc.signature = 3;
  pc.stores = {9};
  cache.insert(0x3ULL, pc);

  EXPECT_EQ(cache.invalidate_store(42), 0);  // unknown id: no-op
  EXPECT_EQ(cache.invalidate_store(7), 2);  // the runtime's invalidation count
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(0x1ULL, 1), nullptr);
  EXPECT_EQ(cache.lookup(0x2ULL, 2), nullptr);
  EXPECT_NE(cache.lookup(0x3ULL, 3), nullptr);
  EXPECT_EQ(cache.invalidate_store(7), 0);  // index entry consumed
}

TEST(CommPlan, CacheCapDropsWholeMap) {
  // kMaxPlans = 512: the 513th distinct entry clears the map rather than
  // evicting in hash order.
  comm::PlanCache cache;
  for (std::uint64_t i = 0; i < 512; ++i) {
    comm::ExchangePlan p;
    p.signature = i + 1;
    cache.insert(i, p);
  }
  EXPECT_EQ(cache.size(), 512u);
  comm::ExchangePlan p;
  p.signature = 1000;
  cache.insert(9999, p);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.lookup(9999, 1000), nullptr);
}

TEST(CommRuntime, ModeGates) {
  sim::PerfParams pp;
  {
    rt::Runtime rt(sim::Machine::gpus(2, pp), comm_opts(comm::Mode::Off));
    EXPECT_FALSE(rt.comm_enabled());
    EXPECT_EQ(rt.comm_mode(), comm::Mode::Off);
  }
  {
    rt::Runtime rt(sim::Machine::gpus(2, pp), comm_opts(comm::Mode::Plan));
    EXPECT_TRUE(rt.comm_enabled());
    EXPECT_EQ(rt.comm_mode(), comm::Mode::Plan);
  }
  {
    rt::Runtime rt(sim::Machine::gpus(2, pp), comm_opts(comm::Mode::Overlap));
    EXPECT_TRUE(rt.comm_enabled());
    EXPECT_EQ(rt.comm_mode(), comm::Mode::Overlap);
  }
  {
    // The planner composes with fault injection: retries go through the
    // same point charge as the per-piece path (see tests/rt/recovery_test).
    rt::RuntimeOptions o = comm_opts(comm::Mode::Plan);
    o.faults.enabled = true;
    rt::Runtime rt(sim::Machine::gpus(2, pp), o);
    EXPECT_TRUE(rt.comm_enabled());
  }
  {
    // Without allocation coalescing the planner stays on: each ghost lands in
    // its own point's instance (see UncoalescedInstancesKeepPlans).
    rt::RuntimeOptions o = comm_opts(comm::Mode::Plan);
    o.coalescing = false;
    rt::Runtime rt(sim::Machine::gpus(2, pp), o);
    EXPECT_TRUE(rt.comm_enabled());
  }
}

// The coalescing=false ablation allocates exact extents, so one store's
// instances in a shared memory overlap (CPU sockets on one node hold
// neighbouring halo pieces). The planner finds each ghost's instance through
// its point's required interval and its overlay tells overlapping instances
// apart, so every comm mode runs on such instances: the answers agree bit
// for bit, and coalescing only regroups off's ghost bytes per link.
TEST(CommRuntime, UncoalescedInstancesKeepPlans) {
  struct Run {
    std::vector<double> x;
    std::vector<double> link_bytes;  ///< ghost bytes: intra, nvlink, ib
    bool enabled{false};
  };
  auto run = [](comm::Mode m) {
    sim::PerfParams pp;
    rt::RuntimeOptions o = comm_opts(m);
    o.coalescing = false;
    o.partition = rt::PartitionStrategy::Rows;
    o.fusion = rt::Fusion::Off;
    rt::Runtime rt(sim::Machine::sockets(8, pp), o);  // 2 sockets per node memory
    CsrMatrix A = poisson2d(rt, 32);
    DArray b = DArray::full(rt, A.rows(), 1.0);
    solve::SolveResult res = solve::cg(A, b, 0.0, 8);
    EXPECT_EQ(res.iterations, 8);
    Run r{res.x.to_vector(), {}, rt.comm_enabled()};
    const metrics::Snapshot snap = rt.metrics_snapshot();
    for (const char* name : {"lsr_comm_bytes_intra_total", "lsr_comm_bytes_nvlink_total",
                             "lsr_comm_bytes_ib_total"}) {
      const auto* mt = snap.find(name);
      r.link_bytes.push_back(mt != nullptr ? mt->value : -1.0);
    }
    const auto* ghost = snap.find("lsr_sim_copy_ghost_bytes_total");
    EXPECT_EQ(ghost != nullptr ? ghost->value : -1.0,
              r.link_bytes[0] + r.link_bytes[1] + r.link_bytes[2]);
    return r;
  };
  const Run off = run(comm::Mode::Off);
  const Run plan = run(comm::Mode::Plan);
  const Run overlap = run(comm::Mode::Overlap);
  expect_bits_equal(off.x, plan.x, "off vs plan");
  expect_bits_equal(off.x, overlap.x, "off vs overlap");
  EXPECT_FALSE(off.enabled);
  EXPECT_TRUE(plan.enabled);
  EXPECT_TRUE(overlap.enabled);
  EXPECT_GT(off.link_bytes[0], 0);  // ghosts between instances of one memory
  EXPECT_GT(off.link_bytes[2], 0);
  EXPECT_EQ(off.link_bytes, plan.link_bytes);
  EXPECT_EQ(off.link_bytes, overlap.link_bytes);
}

// One launch reads x twice: aligned, and widened by a halo on the high side.
// Without coalescing each point gets two exact-extent instances of x with
// the same lower bound, and each must end up holding everything its argument
// reads, else every repeat of the launch copies again. Two states of x cover
// the two ways to get this wrong. Host-attached, both instances pull the
// shared piece, which an overlay keyed by the lower bound schedules once.
// Rewritten in place on the GPUs (into the aligned instances), the wide
// instance pulls the point's own piece, which a ghost resolved through its
// piece alone lands in the aligned instance.
TEST(CommRuntime, RepeatedReadOfOverlappingInstancesCopiesNothing) {
  constexpr coord_t kN = 4096, kHalo = 64;
  std::vector<double> host(static_cast<std::size_t>(kN));
  for (coord_t i = 0; i < kN; ++i) host[static_cast<std::size_t>(i)] = 0.5 * static_cast<double>(i);
  auto run = [&](comm::Mode m) {
    sim::PerfParams pp;
    rt::RuntimeOptions o = comm_opts(m);
    o.coalescing = false;
    o.fusion = rt::Fusion::Off;
    rt::Runtime rt(sim::Machine::gpus(4, pp), o);
    DArray x = DArray::from_vector(rt, host);
    std::vector<double> ghost_bytes;
    std::vector<double> y;
    for (int rep = 0; rep < 4; ++rep) {
      if (rep == 2) x.iscale(dense::Scalar{1.0});
      const metrics::Snapshot before = rt.metrics_snapshot();
      DArray out(rt, rt.create_store(rt::DType::F64, {kN}));
      rt::TaskLauncher launch(rt, "shifted_sum");
      const int io = launch.add_output(out.store());
      const int ia = launch.add_input(x.store());
      const int ih = launch.add_input(x.store());
      launch.align(io, ia);
      launch.halo(ia, ih, 0, kHalo);
      launch.set_leaf([=](rt::TaskContext& ctx) {
        auto yv = ctx.full<double>(io);
        auto av = ctx.full<double>(ia);
        auto hv = ctx.full<double>(ih);
        const Interval iv = ctx.elem_interval(io);
        for (coord_t i = iv.lo; i < iv.hi; ++i) {
          yv[i] = av[i] + (i + kHalo < kN ? hv[i + kHalo] : 0.0);
        }
      });
      launch.set_cost([=](const rt::TaskContext& ctx) {
        const Interval iv = ctx.elem_interval(io);
        return rt::TaskCost{static_cast<double>(iv.size()) * 24.0, static_cast<double>(iv.size())};
      });
      launch.execute();
      y = out.to_vector();
      const metrics::Snapshot d = rt.metrics_snapshot().delta(before);
      const auto* g = d.find("lsr_sim_copy_ghost_bytes_total");
      ghost_bytes.push_back(g != nullptr ? g->value : -1.0);
    }
    for (int rep : {0, 2}) {
      EXPECT_GT(ghost_bytes[rep], 0) << comm::comm_mode_name(m) << " rep " << rep;
      EXPECT_EQ(ghost_bytes[rep + 1], 0) << comm::comm_mode_name(m) << " rep " << rep;
    }
    return y;
  };
  const std::vector<double> off = run(comm::Mode::Off);
  expect_bits_equal(off, run(comm::Mode::Plan), "off vs plan");
  expect_bits_equal(off, run(comm::Mode::Overlap), "off vs overlap");
  EXPECT_EQ(off[0], host[static_cast<std::size_t>(kHalo)]);
}

TEST(CommRuntime, SpmvLoopBitIdenticalAcrossModes) {
  LoopRun off = run_spmv_loop(comm::Mode::Off, 6);
  LoopRun plan = run_spmv_loop(comm::Mode::Plan, 6);
  LoopRun overlap = run_spmv_loop(comm::Mode::Overlap, 6);
  expect_bits_equal(off.x, plan.x, "off vs plan");
  expect_bits_equal(off.x, overlap.x, "off vs overlap");
  EXPECT_EQ(off.stats.hits, 0);
  EXPECT_EQ(off.stats.misses, 0);
  EXPECT_GT(plan.stats.hits, 0);
}

TEST(CommRuntime, SpmvLoopBitIdenticalAcrossThreads) {
  LoopRun t1 = run_spmv_loop(comm::Mode::Overlap, 6, 1);
  LoopRun t4 = run_spmv_loop(comm::Mode::Overlap, 6, 4);
  LoopRun t8 = run_spmv_loop(comm::Mode::Overlap, 6, 8);
  expect_bits_equal(t1.x, t4.x, "threads 1 vs 4");
  expect_bits_equal(t1.x, t8.x, "threads 1 vs 8");
  EXPECT_EQ(t1.makespan, t4.makespan);
  EXPECT_EQ(t1.makespan, t8.makespan);
  EXPECT_EQ(t1.stats.hits, t4.stats.hits);
  EXPECT_EQ(t1.stats.misses, t4.stats.misses);
  EXPECT_EQ(t1.stats.hits, t8.stats.hits);
  EXPECT_EQ(t1.stats.misses, t8.stats.misses);
}

TEST(CommRuntime, SpmvReachesSteadyStateHits) {
  sim::PerfParams pp;
  rt::Runtime rt(sim::Machine::gpus(kProcs, pp), comm_opts(comm::Mode::Plan));
  apps::HostProblem prob = zipf_problem();
  CsrMatrix A = from_problem(rt, prob);
  DArray x = DArray::full(rt, prob.rows, 1.0);
  for (int i = 0; i < 3; ++i) {
    DArray y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);
  }
  comm::PlanStats warm = rt.comm_plan_stats();
  const int extra = 5;
  for (int i = 0; i < extra; ++i) {
    DArray y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);
  }
  comm::PlanStats done = rt.comm_plan_stats();
  // csr_spmv replays its cached gather plan every iteration past warmup.
  // (axpy misses every iteration by design: it realigns the freshly created
  // y, whose destruction invalidates the plan — so no equality on misses or
  // invalidations here, only hit growth.)
  EXPECT_GE(done.hits - warm.hits, extra);
}

TEST(CommRuntime, HitMissSequenceIsDeterministic) {
  LoopRun a = run_spmv_loop(comm::Mode::Plan, 8);
  LoopRun b = run_spmv_loop(comm::Mode::Plan, 8);
  EXPECT_EQ(a.stats.hits, b.stats.hits);
  EXPECT_EQ(a.stats.misses, b.stats.misses);
  EXPECT_EQ(a.stats.invalidations, b.stats.invalidations);
  EXPECT_EQ(a.makespan, b.makespan);
  expect_bits_equal(a.x, b.x, "repeat run");
}

TEST(CommRuntime, SpanAccessForcesFreshPlan) {
  sim::PerfParams pp;
  rt::Runtime rt(sim::Machine::gpus(kProcs, pp), comm_opts(comm::Mode::Plan));
  apps::HostProblem prob = zipf_problem();
  CsrMatrix A = from_problem(rt, prob);
  DArray x = DArray::full(rt, prob.rows, 1.0);
  for (int i = 0; i < 4; ++i) {
    DArray y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);
  }
  comm::PlanStats warm = rt.comm_plan_stats();

  // Mutable span access to the gathered operand: every plan built from its
  // state must be dropped, and the next spmv must re-derive.
  x.store().span<double>()[0] += 0.5;
  comm::PlanStats after = rt.comm_plan_stats();
  EXPECT_GT(after.invalidations, warm.invalidations);

  DArray y = A.spmv(x);
  rt.fence();
  comm::PlanStats probe = rt.comm_plan_stats();
  EXPECT_GT(probe.misses, after.misses);
}

TEST(CommRuntime, RepartitionForcesFreshPlan) {
  sim::PerfParams pp;
  rt::RuntimeOptions o = comm_opts(comm::Mode::Plan);
  o.partition = rt::PartitionStrategy::Rows;
  rt::Runtime rt(sim::Machine::gpus(kProcs, pp), o);
  apps::HostProblem prob = zipf_problem();
  CsrMatrix A = from_problem(rt, prob);
  DArray x = DArray::full(rt, prob.rows, 1.0);
  for (int i = 0; i < 4; ++i) {
    DArray y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);
  }
  comm::PlanStats warm = rt.comm_plan_stats();

  // rows -> nnz changes the color runs, hence the structural key: the next
  // spmv cannot reuse any rows-keyed plan.
  A.set_partition_strategy(rt::PartitionStrategy::Nnz);
  {
    DArray y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);
  }
  rt.fence();
  comm::PlanStats probe = rt.comm_plan_stats();
  EXPECT_GT(probe.misses, warm.misses);

  // And the nnz structure warms up in turn.
  for (int i = 0; i < 3; ++i) {
    DArray y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);
  }
  comm::PlanStats warm2 = rt.comm_plan_stats();
  DArray y = A.spmv(x);
  rt.fence();
  comm::PlanStats steady = rt.comm_plan_stats();
  EXPECT_GT(steady.hits, warm2.hits);
}

TEST(CommRuntime, DestroyedStoreInvalidatesItsPlans) {
  sim::PerfParams pp;
  rt::Runtime rt(sim::Machine::gpus(kProcs, pp), comm_opts(comm::Mode::Plan));
  apps::HostProblem prob = zipf_problem();
  CsrMatrix A = from_problem(rt, prob);
  comm::PlanStats warm;
  {
    DArray x1 = DArray::full(rt, prob.rows, 1.0);
    for (int i = 0; i < 4; ++i) {
      DArray y = A.spmv(x1);
      x1.axpy(dense::Scalar{1e-9}, y);
    }
    warm = rt.comm_plan_stats();
  }
  // x1 destroyed: the csr_spmv plans gathering it must not survive, even if
  // a later store recycles its footprint.
  comm::PlanStats after = rt.comm_plan_stats();
  EXPECT_GT(after.invalidations, warm.invalidations);

  DArray x2 = DArray::full(rt, prob.rows, 1.0);
  DArray y = A.spmv(x2);
  rt.fence();
  comm::PlanStats probe = rt.comm_plan_stats();
  EXPECT_GT(probe.misses, after.misses);
}

TEST(CommRuntime, CgHitRateAtLeastNinetyPercent) {
  sim::PerfParams pp;
  // The Fig. 9 CG configuration row-splits every store identically, so the
  // whole working set is persistent: after the first iteration warms the
  // cache, each launch replays its plan. (Under an nnz split the vector ops
  // realign spmv's output, which dies each iteration and takes its plan with
  // it — a different, deliberately uncached pattern.)
  // The bar was set on unfused launches; fusion changes the launch stream
  // the planner sees, so it is pinned off rather than left to LSR_FUSE.
  rt::RuntimeOptions o = comm_opts(comm::Mode::Plan);
  o.partition = rt::PartitionStrategy::Rows;
  o.fusion = rt::Fusion::Off;
  rt::Runtime rt(sim::Machine::gpus(kProcs, pp), o);
  CsrMatrix A = poisson2d(rt, 40);
  DArray b = DArray::full(rt, A.rows(), 1.0);
  solve::SolveResult res = solve::cg(A, b, 1e-12, 25);
  EXPECT_GT(res.iterations, 5);
  comm::PlanStats st = rt.comm_plan_stats();
  ASSERT_GT(st.hits + st.misses, 0);
  const double rate =
      static_cast<double>(st.hits) / static_cast<double>(st.hits + st.misses);
  EXPECT_GE(rate, 0.9) << "hits=" << st.hits << " misses=" << st.misses;
}

TEST(CommRuntime, CgBitIdenticalAcrossModes) {
  auto run = [](comm::Mode m) {
    sim::PerfParams pp;
    rt::Runtime rt(sim::Machine::gpus(kProcs, pp), comm_opts(m));
    CsrMatrix A = poisson2d(rt, 30);
    DArray b = DArray::full(rt, A.rows(), 1.0);
    solve::SolveResult res = solve::cg(A, b, 1e-10, 60);
    rt.fence();
    return std::make_pair(res.x.to_vector(), res.residual);
  };
  auto off = run(comm::Mode::Off);
  auto plan = run(comm::Mode::Plan);
  auto overlap = run(comm::Mode::Overlap);
  expect_bits_equal(off.first, plan.first, "cg off vs plan");
  expect_bits_equal(off.first, overlap.first, "cg off vs overlap");
  EXPECT_EQ(off.second, plan.second);
  EXPECT_EQ(off.second, overlap.second);
}

TEST(CommRuntime, ComposesWithFusion) {
  auto run = [](comm::Mode m) {
    sim::PerfParams pp;
    rt::RuntimeOptions o = comm_opts(m);
    o.fusion = rt::Fusion::On;
    rt::Runtime rt(sim::Machine::gpus(kProcs, pp), o);
    CsrMatrix A = poisson2d(rt, 30);
    DArray b = DArray::full(rt, A.rows(), 1.0);
    solve::SolveResult res = solve::cg(A, b, 1e-10, 60);
    rt.fence();
    return res.x.to_vector();
  };
  std::vector<double> off = run(comm::Mode::Off);
  std::vector<double> plan = run(comm::Mode::Plan);
  expect_bits_equal(off, plan, "fusion+comm");
}

TEST(CommRuntime, MetricsMirrorPlannerActivity) {
  sim::PerfParams pp;
  rt::Runtime rt(sim::Machine::gpus(kProcs, pp), comm_opts(comm::Mode::Plan));
  apps::HostProblem prob = zipf_problem();
  CsrMatrix A = from_problem(rt, prob);
  DArray x = DArray::full(rt, prob.rows, 1.0);
  for (int i = 0; i < 6; ++i) {
    DArray y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);
  }
  rt.fence();
  comm::PlanStats st = rt.comm_plan_stats();
  metrics::Snapshot snap = rt.metrics_snapshot();
  const auto* hits = snap.find("lsr_comm_plan_hits_total");
  const auto* misses = snap.find("lsr_comm_plan_misses_total");
  const auto* msgs = snap.find("lsr_comm_messages_total");
  const auto* saved = snap.find("lsr_comm_messages_saved_total");
  const auto* bytes = snap.find("lsr_comm_bytes_total");
  const auto* intra = snap.find("lsr_comm_bytes_intra_total");
  const auto* nvlink = snap.find("lsr_comm_bytes_nvlink_total");
  const auto* ib = snap.find("lsr_comm_bytes_ib_total");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(msgs, nullptr);
  ASSERT_NE(saved, nullptr);
  ASSERT_NE(bytes, nullptr);
  ASSERT_NE(intra, nullptr);
  ASSERT_NE(nvlink, nullptr);
  ASSERT_NE(ib, nullptr);
  EXPECT_EQ(hits->value, static_cast<double>(st.hits));
  EXPECT_EQ(misses->value, static_cast<double>(st.misses));
  EXPECT_GT(msgs->value, 0);
  // Coalescing is the point: piece copies saved must dwarf messages sent.
  EXPECT_GT(saved->value, msgs->value);
  EXPECT_GT(bytes->value, 0);
  const double split = intra->value + nvlink->value + ib->value;
  EXPECT_NEAR(bytes->value, split, 1e-6 * bytes->value + 1e-9);
}

TEST(CommRuntime, OverlapSplitsKernelsAndNeverRegresses) {
  LoopRun plan = run_spmv_loop(comm::Mode::Plan, 6);
  LoopRun overlap = run_spmv_loop(comm::Mode::Overlap, 6);
  expect_bits_equal(plan.x, overlap.x, "plan vs overlap");
  // A split kernel finishes no later than the unsplit one: the interior
  // phase starts before the ghosts land and the boundary phase pays the
  // remainder.
  EXPECT_LE(overlap.makespan, plan.makespan + 1e-12);

  sim::PerfParams pp;
  rt::Runtime rt(sim::Machine::gpus(kProcs, pp),
                 comm_opts(comm::Mode::Overlap));
  // Comm-bound regime (the bench's scale): ghosts land after local deps, so
  // kernels actually split.
  rt.engine().set_cost_scale(64.0);
  apps::HostProblem prob = zipf_problem();
  CsrMatrix A = from_problem(rt, prob);
  DArray x = DArray::full(rt, prob.rows, 1.0);
  for (int i = 0; i < 6; ++i) {
    DArray y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);
  }
  rt.fence();
  metrics::Snapshot snap = rt.metrics_snapshot();
  const auto* splits = snap.find("lsr_comm_overlap_splits_total");
  ASSERT_NE(splits, nullptr);
  EXPECT_GT(splits->value, 0);
}

// ---- Image content is solved once per launch -------------------------------
// Every launch's partition content (including data-dependent images) comes
// from the one constraint solve; the replay only accounts for it. The probe
// below rewrites a matrix's column indices through a mutable span between
// two SpMVs: the second SpMV must gather x by the *new* pattern, exactly
// like a matrix built with that pattern from the start.

struct ImageProbe {
  std::vector<double> y2;
  std::vector<double> x2;  ///< the second spmv's operand
  std::map<std::string, double> delta;  ///< second spmv's traffic/copy deltas
};

constexpr coord_t kProbeRows = 4096;

// One nonzero per row: the diagonal, or (shifted) column (i + n/2) mod n,
// which makes every row read x from the processor holding the other half.
std::vector<coord_t> probe_cols(bool shifted) {
  std::vector<coord_t> cols(static_cast<std::size_t>(kProbeRows));
  for (coord_t i = 0; i < kProbeRows; ++i) {
    cols[static_cast<std::size_t>(i)] =
        shifted ? (i + kProbeRows / 2) % kProbeRows : i;
  }
  return cols;
}

std::vector<coord_t> probe_indptr() {
  std::vector<coord_t> indptr(static_cast<std::size_t>(kProbeRows) + 1);
  for (coord_t i = 0; i <= kProbeRows; ++i) indptr[static_cast<std::size_t>(i)] = i;
  return indptr;
}

std::vector<double> probe_vals() {
  std::vector<double> vals(static_cast<std::size_t>(kProbeRows));
  for (coord_t i = 0; i < kProbeRows; ++i) {
    vals[static_cast<std::size_t>(i)] = static_cast<double>(i + 1);
  }
  return vals;
}

ImageProbe run_image_probe(int threads, rt::Fusion fusion, bool rewrite) {
  sim::PerfParams pp;
  rt::RuntimeOptions o;
  o.exec_threads = threads;
  o.exec_pipeline = 1;
  o.fusion = fusion;
  o.comm = comm::Mode::Off;
  o.partition = rt::PartitionStrategy::Rows;
  rt::Runtime rt(sim::Machine::gpus(4, pp), o);
  // Either build the diagonal and rewrite it below, or build the shifted
  // pattern directly.
  CsrMatrix A = CsrMatrix::from_host(rt, kProbeRows, kProbeRows, probe_indptr(),
                                     probe_cols(!rewrite), probe_vals());
  DArray x = DArray::full(rt, kProbeRows, 1.0);
  DArray y1 = A.spmv(x);
  if (rewrite) {
    auto crd = A.crd().span<coord_t>();
    const auto shifted = probe_cols(true);
    std::copy(shifted.begin(), shifted.end(), crd.begin());
  }
  // The second operand is y1 (= vals under either pattern): it lives on the
  // GPUs, split by rows, so every x element a row reads off-GPU is a copy.
  metrics::Snapshot before = rt.metrics_snapshot();
  DArray y2 = A.spmv(y1);
  metrics::Snapshot d = rt.metrics_snapshot().delta(before);
  ImageProbe out{y2.to_vector(), y1.to_vector(), {}};
  for (const auto& m : d.metrics) {
    const bool traffic = m.name.rfind("lsr_sim_traffic_", 0) == 0 &&
                         m.name.size() > 12 &&
                         m.name.compare(m.name.size() - 12, 12, "_bytes_total") == 0;
    if (traffic || m.name == "lsr_sim_copies_total") out.delta[m.name] = m.value;
  }
  return out;
}

TEST(ImageContent, SpanRewriteOfCrdChargesTheNewPattern) {
  sim::PerfParams pp;
  baselines::ref::RefContext ctx(baselines::ref::Device::ScipyCpu, pp);
  baselines::ref::RefCsr ref(ctx, kProbeRows, kProbeRows, probe_indptr(),
                             probe_cols(true), probe_vals());
  for (int threads : {1, 4}) {
    for (rt::Fusion fusion : {rt::Fusion::Off, rt::Fusion::On}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " fusion="
                                      << rt::fusion_mode_name(fusion));
      ImageProbe rewritten, direct;
      ASSERT_NO_THROW(rewritten = run_image_probe(threads, fusion, true));
      ASSERT_NO_THROW(direct = run_image_probe(threads, fusion, false));
      baselines::ref::RefVector rx(ctx, rewritten.x2);
      EXPECT_EQ(rewritten.y2, ref.spmv(rx).data());
      EXPECT_EQ(rewritten.delta, direct.delta);
      ASSERT_EQ(direct.delta.count("lsr_sim_copies_total"), 1U);
      EXPECT_GT(direct.delta.at("lsr_sim_copies_total"), 0);
    }
  }
}

TEST(ImageContent, CacheEntriesBoundedByLiveSources) {
  // Fresh matrices, each used for one spmv and dropped: the dependent-
  // partition caches must forget a source once it is released.
  for (int threads : {1, 4}) {
    for (rt::Fusion fusion : {rt::Fusion::Off, rt::Fusion::On}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " fusion="
                                      << rt::fusion_mode_name(fusion));
      sim::PerfParams pp;
      rt::RuntimeOptions o = comm_opts(comm::Mode::Off, threads);
      o.fusion = fusion;
      rt::Runtime rt(sim::Machine::gpus(kProcs, pp), o);
      apps::HostProblem prob = apps::zipf_matrix(200 * kProcs, 1.05, 8, 5);
      DArray x = DArray::full(rt, prob.rows, 1.0);
      std::vector<std::size_t> entries;
      for (int cycle = 0; cycle < 24; ++cycle) {
        {
          CsrMatrix M = from_problem(rt, prob);
          DArray y = M.spmv(x);
        }
        rt.fence();
        entries.push_back(rt.image_cache_entries());
      }
      EXPECT_EQ(entries[3], entries.back());
      EXPECT_LE(entries.back(), entries.front());
    }
  }
}

}  // namespace
}  // namespace legate

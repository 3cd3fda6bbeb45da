// Pins the engine operations four staging-heavy workloads produce. Every
// copy the runtime charges is derived from the validity record (piece
// boundaries of its version, owner and held runs), so a changed boundary
// shows up here as a changed copy count, ghost count or per-link byte split,
// under every comm mode, long before it moves a simulated makespan.

#include <gtest/gtest.h>

#include <iomanip>
#include <ostream>
#include <string>

#include "apps/workloads.h"
#include "dense/array.h"
#include "rt/runtime.h"
#include "solve/krylov.h"
#include "sparse/formats.h"

namespace legate::rt {
namespace {

struct Ops {
  double copies, intra, nvlink, ib;
  double plan_hits, plan_misses, plan_invalidations;
  double ghosts_coalesced;  ///< planned ghosts minus the transfers carrying them
  double spills;
  /// The same bytes as intra + nvlink + ib, split by why they were copied.
  double ghost_bytes, resize_bytes, spill_bytes, shuffle_bytes;
  bool operator==(const Ops&) const = default;
};

void PrintTo(const Ops& o, std::ostream* os) {
  *os << std::setprecision(17) << "{" << o.copies << ", " << o.intra << ", " << o.nvlink
      << ", " << o.ib << ", " << o.plan_hits << ", " << o.plan_misses << ", "
      << o.plan_invalidations << ", " << o.ghosts_coalesced << ", " << o.spills << ", "
      << o.ghost_bytes << ", " << o.resize_bytes << ", " << o.spill_bytes << ", "
      << o.shuffle_bytes << "}";
}

Ops ops_of(Runtime& rt) {
  rt.fence();
  const metrics::Snapshot snap = rt.metrics_snapshot();
  auto v = [&](const std::string& name) {
    const auto* m = snap.find(name);
    EXPECT_NE(m, nullptr) << name;
    return m != nullptr ? m->value : -1.0;
  };
  return {v("lsr_sim_copies_total"),
          v("lsr_sim_traffic_intra_bytes_total"),
          v("lsr_sim_traffic_nvlink_bytes_total"),
          v("lsr_sim_traffic_ib_bytes_total"),
          v("lsr_comm_plan_hits_total"),
          v("lsr_comm_plan_misses_total"),
          v("lsr_comm_plan_invalidations_total"),
          v("lsr_comm_messages_saved_total"),
          v("lsr_sim_spills_total"),
          v("lsr_sim_copy_ghost_bytes_total"),
          v("lsr_sim_copy_resize_bytes_total"),
          v("lsr_sim_copy_spill_bytes_total"),
          v("lsr_sim_copy_shuffle_bytes_total")};
}

// Explicit options throughout: the tier-1 LSR_PARTITION/LSR_FUSE legs must
// not move the pinned counts.
RuntimeOptions opts_for(comm::Mode mode) {
  RuntimeOptions o;
  o.comm = mode;
  o.partition = PartitionStrategy::Rows;
  o.fusion = Fusion::Off;
  return o;
}

sparse::CsrMatrix from(Runtime& rt, const apps::HostProblem& p) {
  return sparse::CsrMatrix::from_host(rt, p.rows, p.cols, p.indptr, p.indices, p.values);
}

// CG on 8 CPU sockets (2 per node): sockets share their node's memory, so
// staging dedups ghosts between neighbours, and allocations coalesce.
Ops cpu_cg(comm::Mode mode) {
  sim::PerfParams pp;
  Runtime rt(sim::Machine::sockets(8, pp), opts_for(mode));
  auto A = from(rt, apps::poisson2d(64));
  auto b = dense::DArray::full(rt, A.rows(), 1.0);
  auto res = solve::cg(A, b, 0.0, 10);
  EXPECT_EQ(res.iterations, 10);
  return ops_of(rt);
}

// Zipf SpMV over 2 nodes with x dirtied every step: every launch re-gathers
// a skewed column footprint across NVLink and InfiniBand.
Ops zipf_spmv(comm::Mode mode) {
  sim::PerfParams pp;
  Runtime rt(sim::Machine::gpus(12, pp, 6), opts_for(mode));
  auto A = from(rt, apps::zipf_matrix(12000, 1.05, 8, 97));
  auto x = dense::DArray::full(rt, A.rows(), 1.0);
  for (int i = 0; i < 4; ++i) {
    auto y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);
  }
  return ops_of(rt);
}

// Zipf SpMV on 4 CPU sockets (2 nodes) with nnz-balanced rows and costs at
// bandwidth-bound scale: neighbouring sockets finish their writes of x at
// different times into the same node memory, so the record holds runs that
// agree in owner and differ in write time. A staleness copy must still
// fetch each owner run whole.
Ops cpu_zipf_spmv(comm::Mode mode) {
  sim::PerfParams pp;
  RuntimeOptions o = opts_for(mode);
  o.partition = PartitionStrategy::Nnz;
  Runtime rt(sim::Machine::sockets(4, pp), o);
  rt.engine().set_cost_scale(64.0);
  auto A = from(rt, apps::zipf_matrix(12000, 1.05, 8, 97));
  auto x = dense::DArray::full(rt, A.rows(), 1.0);
  for (int i = 0; i < 4; ++i) {
    auto y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);
  }
  return ops_of(rt);
}

// CG on framebuffers shrunk to ~80 KB: LRU eviction spills sole copies to
// system memory, and later reads fetch them back from there.
Ops spill_cg(comm::Mode mode) {
  sim::PerfParams pp;
  auto m = sim::Machine::gpus(4, pp, 2);
  double fb = 0;
  for (const auto& mem : m.memories()) {
    if (mem.kind == sim::MemKind::Frame) fb = mem.capacity;
  }
  RuntimeOptions o = opts_for(mode);
  o.faults.enabled = true;
  o.faults.oom_pressure_bytes = fb - 80e3;
  Runtime rt(m, o);
  auto A = from(rt, apps::poisson2d(48));
  auto b = dense::DArray::full(rt, A.rows(), 1.0);
  auto res = solve::cg(A, b, 0.0, 10);
  EXPECT_EQ(res.iterations, 10);
  return ops_of(rt);
}

// Counts captured before the validity record was merged into one map per
// store and one per allocation: {copies, intra, nvlink, ib bytes, plan hits,
// misses, invalidations, ghosts coalesced, spills, then ghost, resize, spill
// and shuffle bytes}.
TEST(EngineOps, CpuCg) {
  EXPECT_EQ(cpu_cg(comm::Mode::Off),
            (Ops{89, 57344, 0, 323072, 0, 0, 0, 0, 0, 323072, 57344, 0, 0}));
  EXPECT_EQ(cpu_cg(comm::Mode::Plan),
            (Ops{73, 57344, 0, 323072, 58, 10, 2, 16, 0, 323072, 57344, 0, 0}));
  EXPECT_EQ(cpu_cg(comm::Mode::Overlap),
            (Ops{73, 57344, 0, 323072, 58, 10, 2, 16, 0, 323072, 57344, 0, 0}));
}

TEST(EngineOps, ZipfSpmv) {
  EXPECT_EQ(zipf_spmv(comm::Mode::Off),
            (Ops{33492, 96000, 1950912, 671040, 0, 0, 0, 0, 0, 2621952, 96000, 0, 0}));
  EXPECT_EQ(zipf_spmv(comm::Mode::Plan),
            (Ops{307, 96000, 1950912, 671040, 5, 4, 0, 33185, 0, 2621952, 96000, 0, 0}));
  EXPECT_EQ(zipf_spmv(comm::Mode::Overlap),
            (Ops{307, 96000, 1950912, 671040, 5, 4, 0, 33185, 0, 2621952, 96000, 0, 0}));
}

TEST(EngineOps, CpuZipfSpmv) {
  EXPECT_EQ(cpu_zipf_spmv(comm::Mode::Off),
            (Ops{635, 9310208, 0, 98073600, 0, 0, 0, 0, 0, 98073600, 9310208, 0, 0}));
  EXPECT_EQ(cpu_zipf_spmv(comm::Mode::Plan),
            (Ops{25, 9310208, 0, 98073600, 2, 7, 4, 610, 0, 98073600, 9310208, 0, 0}));
  EXPECT_EQ(cpu_zipf_spmv(comm::Mode::Overlap),
            (Ops{25, 9310208, 0, 98073600, 2, 7, 4, 610, 0, 98073600, 9310208, 0, 0}));
}

TEST(EngineOps, SpillCg) {
  EXPECT_EQ(spill_cg(comm::Mode::Off),
            (Ops{88, 18432, 179712, 116736, 0, 0, 0, 0, 8, 259584, 18432, 36864, 0}));
  EXPECT_EQ(spill_cg(comm::Mode::Plan),
            (Ops{79, 18432, 179712, 116736, 57, 11, 2, 9, 8, 259584, 18432, 36864, 0}));
  EXPECT_EQ(spill_cg(comm::Mode::Overlap),
            (Ops{79, 18432, 179712, 116736, 57, 11, 2, 9, 8, 259584, 18432, 36864, 0}));
}

// Every copied byte has exactly one cause: the per-cause counters partition
// the per-link ones.
TEST(EngineOps, CauseBytesSumToLinkBytes) {
  for (comm::Mode mode : {comm::Mode::Off, comm::Mode::Plan, comm::Mode::Overlap}) {
    for (const Ops& o : {cpu_cg(mode), zipf_spmv(mode)}) {
      EXPECT_GT(o.ghost_bytes, 0);
      EXPECT_EQ(o.ghost_bytes + o.resize_bytes + o.spill_bytes + o.shuffle_bytes,
                o.intra + o.nvlink + o.ib)
          << comm::comm_mode_name(mode);
    }
  }
}

}  // namespace
}  // namespace legate::rt

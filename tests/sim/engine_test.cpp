#include "sim/engine.h"

#include <gtest/gtest.h>

namespace legate::sim {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  PerfParams pp;
};

TEST_F(EngineTest, ProcClocksSerializeWork) {
  Machine m = Machine::gpus(2, pp);
  Engine e(m);
  double t1 = e.busy_proc(0, 0.0, 1.0);
  double t2 = e.busy_proc(0, 0.0, 1.0);  // same proc: queues behind t1
  double t3 = e.busy_proc(1, 0.0, 1.0);  // other proc: parallel
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 2.0);
  EXPECT_DOUBLE_EQ(t3, 1.0);
  EXPECT_DOUBLE_EQ(e.makespan(), 2.0);
}

TEST_F(EngineTest, ReadyTimeDelaysStart) {
  Machine m = Machine::gpus(1, pp);
  Engine e(m);
  double t = e.busy_proc(0, 5.0, 1.0);
  EXPECT_DOUBLE_EQ(t, 6.0);
}

TEST_F(EngineTest, ControlLaneAccumulates) {
  Machine m = Machine::gpus(1, pp);
  Engine e(m);
  double a = e.control_advance(10e-6);
  double b = e.control_advance(10e-6);
  EXPECT_DOUBLE_EQ(b - a, 10e-6);
}

TEST_F(EngineTest, IntraNodeCopyUsesNvlink) {
  Machine m = Machine::gpus(2, pp);
  Engine e(m);
  int fb0 = m.proc(0).mem, fb1 = m.proc(1).mem;
  double bytes = 45e9;  // exactly one second at NVLink bandwidth
  double t = e.copy(Copy::Ghost, fb0, fb1, bytes, 0.0);
  EXPECT_NEAR(t, 1.0 + pp.nvlink_lat, 1e-9);
  EXPECT_DOUBLE_EQ(e.stats().bytes_nvlink, bytes);
  EXPECT_DOUBLE_EQ(e.stats().bytes_ib, 0.0);
}

TEST_F(EngineTest, InterNodeCopyUsesIbAndContends) {
  Machine m = Machine::gpus(12, pp);  // 2 nodes
  Engine e(m);
  int fb0 = m.proc(0).mem;        // node 0
  int fb6 = m.proc(6).mem;        // node 1
  int fb7 = m.proc(7).mem;        // node 1
  double bytes = pp.ib_bw;        // one second each
  double t1 = e.copy(Copy::Ghost, fb0, fb6, bytes, 0.0);
  // Second copy from the same node shares the NIC-out queue: its
  // transmission serializes behind the first (latency is per message, not
  // per queue slot).
  double t2 = e.copy(Copy::Ghost, fb0, fb7, bytes, 0.0);
  EXPECT_GT(t2, t1);
  EXPECT_NEAR(t2 - t1, 1.0, 1e-6);
  EXPECT_DOUBLE_EQ(e.stats().bytes_ib, 2 * bytes);
}

TEST_F(EngineTest, IntraMemoryCopyCountsAsIntra) {
  Machine m = Machine::gpus(1, pp);
  Engine e(m);
  int fb = m.proc(0).mem;
  e.copy(Copy::Resize, fb, fb, 1e6, 0.0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_intra, 1e6);
}

TEST_F(EngineTest, CopyChargesItsCauseCounter) {
  Machine m = Machine::gpus(12, pp);  // 2 nodes
  Engine e(m);
  e.set_cost_scale(2.0);
  const int fb0 = m.proc(0).mem, fb1 = m.proc(1).mem, fb6 = m.proc(6).mem;
  e.copy(Copy::Ghost, fb0, fb6, 100, 0.0);
  e.copy(Copy::Resize, fb0, fb0, 200, 0.0);
  e.copy(Copy::Spill, fb0, fb1, 300, 0.0);
  e.copy(Copy::Shuffle, fb1, fb6, 400, 0.0);
  e.copy(Copy::Mpi, fb6, fb0, 500, 0.0);
  e.copy(Copy::Ghost, fb1, fb0, 600, 0.0);
  const metrics::Snapshot snap = e.metrics().snapshot();
  auto bytes = [&](const std::string& cause) {
    const auto* mt = snap.find("lsr_sim_copy_" + cause + "_bytes_total");
    EXPECT_NE(mt, nullptr) << cause;
    return mt != nullptr ? mt->value : -1.0;
  };
  // Scaled bytes, like the link counters.
  EXPECT_EQ(bytes("ghost"), 1400.0);
  EXPECT_EQ(bytes("resize"), 400.0);
  EXPECT_EQ(bytes("spill"), 600.0);
  EXPECT_EQ(bytes("shuffle"), 800.0);
  EXPECT_EQ(bytes("mpi"), 1000.0);
  const Stats st = e.stats();
  EXPECT_EQ(st.bytes_intra + st.bytes_nvlink + st.bytes_ib, 4200.0);
}

TEST_F(EngineTest, CopyRejectsOutOfRangeMemoryIds) {
  Machine m = Machine::gpus(2, pp);
  Engine e(m);
  const int nmem = static_cast<int>(m.memories().size());
  int fb = m.proc(0).mem;
  EXPECT_THROW(e.copy(Copy::Ghost, -1, fb, 1e6, 0.0), IndexError);
  EXPECT_THROW(e.copy(Copy::Ghost, nmem, fb, 1e6, 0.0), IndexError);
  EXPECT_THROW(e.copy(Copy::Ghost, fb, -3, 1e6, 0.0), IndexError);
  EXPECT_THROW(e.copy(Copy::Ghost, fb, nmem + 7, 1e6, 0.0), IndexError);
  // The check precedes any accounting: a rejected copy must not half-apply.
  EXPECT_EQ(e.stats().copies, 0L);
  EXPECT_DOUBLE_EQ(e.stats().bytes_intra, 0.0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_nvlink, 0.0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_ib, 0.0);
  EXPECT_DOUBLE_EQ(e.makespan(), 0.0);
  // And the message names the offending axis and bound.
  try {
    e.copy(Copy::Ghost, fb, nmem, 1e6, 0.0);
    FAIL() << "expected IndexError";
  } catch (const IndexError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("destination memory id"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(nmem)), std::string::npos) << what;
  }
}

TEST_F(EngineTest, LegateAllreduceHasLinearTerm) {
  Machine m = Machine::gpus(6, pp);
  Engine e(m);
  double t_legate_small = e.allreduce(2, 0.0, true) ;
  double t_legate_big = e.allreduce(192, 0.0, true);
  double t_mpi_big = e.allreduce(192, 0.0, false);
  // The Legate-style reduction degrades much faster with processor count.
  EXPECT_GT(t_legate_big - t_legate_small, 192 * pp.legate_allreduce_linear * 0.9);
  EXPECT_LT(t_mpi_big, t_legate_big / 5);
}

TEST_F(EngineTest, AllreduceSingleProcIsFree) {
  Machine m = Machine::gpus(1, pp);
  Engine e(m);
  EXPECT_DOUBLE_EQ(e.allreduce(1, 3.0, true), 3.0);
}

TEST_F(EngineTest, CapacityOverflowThrows) {
  Machine m = Machine::gpus(1, pp);
  Engine e(m);
  int fb = m.proc(0).mem;
  double cap = m.memory(fb).capacity;
  e.alloc_bytes(fb, cap * 0.9);
  EXPECT_THROW(e.alloc_bytes(fb, cap * 0.2), OutOfMemoryError);
}

TEST_F(EngineTest, FreeBytesAllowsReuse) {
  Machine m = Machine::gpus(1, pp);
  Engine e(m);
  int fb = m.proc(0).mem;
  double cap = m.memory(fb).capacity;
  e.alloc_bytes(fb, cap * 0.9);
  e.free_bytes(fb, cap * 0.9);
  EXPECT_NO_THROW(e.alloc_bytes(fb, cap * 0.9));
  EXPECT_NEAR(e.peak_bytes(fb), cap * 0.9, 1.0);
}

TEST_F(EngineTest, CostModelRooflineCpuVsGpu) {
  CostModel cm(pp);
  Cost c{1e9, 1e6, 1.0};  // memory bound
  double cpu = cm.kernel_seconds(ProcKind::CPU, c, 1.0);
  double gpu = cm.kernel_seconds(ProcKind::GPU, c);
  EXPECT_NEAR(cpu, 1e9 / pp.cpu_mem_bw, 1e-12);
  EXPECT_NEAR(gpu, 1e9 / pp.gpu_mem_bw, 1e-12);
  // Core fraction scales CPU throughput (SciPy single-thread mode).
  double scipy = cm.kernel_seconds(ProcKind::CPU, c, pp.scipy_core_fraction);
  EXPECT_GT(scipy, 5 * cpu);
}

TEST_F(EngineTest, EfficiencyFactorSlowsKernel) {
  CostModel cm(pp);
  Cost fast{1e9, 0, 1.0}, slow{1e9, 0, 0.2};
  EXPECT_NEAR(cm.kernel_seconds(ProcKind::GPU, slow),
              5 * cm.kernel_seconds(ProcKind::GPU, fast), 1e-12);
}

TEST_F(EngineTest, AllreduceBytesAddsRingTerm) {
  Machine m = Machine::gpus(12, pp);  // 2 nodes -> IB bottleneck
  Engine e(m);
  double t0 = e.allreduce(12, 0.0, true);
  double t1 = e.allreduce_bytes(12, 12e9, 0.0, true);
  EXPECT_NEAR(t1 - t0, 2.0 * 12e9 * (11.0 / 12.0) / pp.ib_bw, 1e-6);
}

TEST_F(EngineTest, KernelSecondsRejectsNonPositiveEfficiency) {
  CostModel cm(pp);
  Cost zero{1e9, 0, 0.0};
  Cost negative{1e9, 0, -0.5};
  EXPECT_THROW((void)cm.kernel_seconds(ProcKind::GPU, zero), std::logic_error);
  EXPECT_THROW((void)cm.kernel_seconds(ProcKind::CPU, negative), std::logic_error);
}

// Ring all-reduce traffic attribution: every hop i -> i+1 carries
// 2*b*(p-1)/p bytes, booked by hop locality. The pre-fix accounting charged
// a flat 2*b to bytes_ib on any multi-node machine and nothing on one node.

TEST_F(EngineTest, SingleNodeGpuAllreduceBooksNvlink) {
  Machine m = Machine::gpus(6, pp);  // 1 node, 6 framebuffers
  Engine e(m);
  double bytes = 6e6;
  e.allreduce_bytes(6, bytes, 0.0, true);
  double hop = 2.0 * bytes * (5.0 / 6.0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_nvlink, 6 * hop);  // full ring on NVLink
  EXPECT_DOUBLE_EQ(e.stats().bytes_ib, 0.0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_intra, 0.0);
}

TEST_F(EngineTest, SharedSysmemAllreduceBooksIntra) {
  Machine m = Machine::sockets(2, pp);  // 1 node, sockets share sysmem
  Engine e(m);
  double bytes = 4e6;
  e.allreduce_bytes(2, bytes, 0.0, true);
  double hop = 2.0 * bytes * (1.0 / 2.0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_intra, 2 * hop);  // hops 0->1 and 1->0
  EXPECT_DOUBLE_EQ(e.stats().bytes_nvlink, 0.0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_ib, 0.0);
}

TEST_F(EngineTest, MultiNodeAllreduceBooksOnlyBoundaryHopsToIb) {
  Machine m = Machine::gpus(12, pp);  // 2 nodes x 6 GPUs
  Engine e(m);
  double bytes = 12e6;
  e.allreduce_bytes(12, bytes, 0.0, true);
  double hop = 2.0 * bytes * (11.0 / 12.0);
  // Ring 0..11: hops 5->6 and 11->0 cross the node boundary, the other ten
  // stay on NVLink inside a node.
  EXPECT_DOUBLE_EQ(e.stats().bytes_ib, 2 * hop);
  EXPECT_DOUBLE_EQ(e.stats().bytes_nvlink, 10 * hop);
  EXPECT_DOUBLE_EQ(e.stats().bytes_intra, 0.0);
}

TEST_F(EngineTest, SingleProcAllreduceMovesNothing) {
  Machine m = Machine::gpus(1, pp);
  Engine e(m);
  e.allreduce_bytes(1, 1e9, 0.0, true);
  EXPECT_DOUBLE_EQ(e.stats().bytes_ib, 0.0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_nvlink, 0.0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_intra, 0.0);
  EXPECT_EQ(e.stats().allreduces, 1);
}

TEST_F(EngineTest, NicInSerializesAtDestination) {
  Machine m = Machine::gpus(18, pp);  // 3 nodes x 6 GPUs
  Engine e(m);
  int src0 = m.proc(0).mem;    // node 0
  int src1 = m.proc(6).mem;    // node 1
  int dst = m.proc(12).mem;    // node 2
  double bytes = pp.ib_bw;     // one second of transmission each
  double t1 = e.copy(Copy::Ghost, src0, dst, bytes, 0.0);
  // Different source nodes, so NIC-out queues are independent — but both
  // transfers drain through node 2's NIC-in, which serializes them.
  double t2 = e.copy(Copy::Ghost, src1, dst, bytes, 0.0);
  EXPECT_NEAR(t1, 1.0 + pp.ib_lat, 1e-9);
  EXPECT_NEAR(t2, 2.0 + pp.ib_lat, 1e-9);
}

TEST_F(EngineTest, ResetClearsClocksStatsAndTimeline) {
  Machine m = Machine::gpus(2, pp);
  Engine e(m);
  e.recorder().enable();
  int mem = m.proc(0).mem;
  e.alloc_bytes(mem, 1e6);
  e.busy_proc(0, 0.0, 1.0, "work");
  e.copy(Copy::Ghost, m.proc(0).mem, m.proc(1).mem, 1e6, 0.0);
  e.allreduce_bytes(2, 1e3, 0.0, true);
  e.control_advance(10e-6);
  ASSERT_GT(e.makespan(), 0.0);
  ASSERT_GT(e.stats().copies, 0);

  e.reset();
  EXPECT_DOUBLE_EQ(e.makespan(), 0.0);
  EXPECT_EQ(e.stats().copies, 0);
  EXPECT_EQ(e.stats().tasks, 0);
  EXPECT_EQ(e.stats().allreduces, 0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_intra, 0.0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_nvlink, 0.0);
  EXPECT_DOUBLE_EQ(e.stats().bytes_ib, 0.0);
  EXPECT_TRUE(e.recorder().events().empty());
  // Live allocations survive (they belong to the owning Runtime); peak
  // restarts from current usage.
  EXPECT_DOUBLE_EQ(e.used_bytes(mem), 1e6);
  EXPECT_DOUBLE_EQ(e.peak_bytes(mem), 1e6);
  // Every clock rewound: identical work replays to identical times.
  EXPECT_DOUBLE_EQ(e.busy_proc(0, 0.0, 1.0), 1.0);
  EXPECT_NEAR(e.copy(Copy::Ghost, m.proc(0).mem, m.proc(1).mem, 45e9, 0.0),
              1.0 + pp.nvlink_lat, 1e-9);
}

}  // namespace
}  // namespace legate::sim

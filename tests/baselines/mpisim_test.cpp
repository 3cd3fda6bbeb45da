#include "baselines/mpisim/mpisim.h"

#include <gtest/gtest.h>

namespace legate::baselines::mpisim {
namespace {

class MpiSimTest : public ::testing::Test {
 protected:
  sim::PerfParams pp_;
};

TEST_F(MpiSimTest, ComputeAdvancesOnlyTheOwningRank) {
  MpiSim sim(sim::ProcKind::GPU, 4, pp_);
  sim.compute(1, 790e9, 0);  // one second of GPU bandwidth
  EXPECT_GT(sim.now(1), 1.0);
  EXPECT_DOUBLE_EQ(sim.now(0), 0.0);
  EXPECT_DOUBLE_EQ(sim.now(3), 0.0);
  EXPECT_GT(sim.makespan(), 1.0);
}

TEST_F(MpiSimTest, BarrierEqualizesClocks) {
  MpiSim sim(sim::ProcKind::GPU, 3, pp_);
  sim.compute(0, 790e9, 0);
  sim.barrier();
  EXPECT_DOUBLE_EQ(sim.now(1), sim.now(0));
  EXPECT_DOUBLE_EQ(sim.now(2), sim.now(0));
}

TEST_F(MpiSimTest, AllreduceIsLogTree) {
  MpiSim sim2(sim::ProcKind::GPU, 2, pp_);
  MpiSim sim64(sim::ProcKind::GPU, 64, pp_);
  sim2.allreduce_scalar();
  sim64.allreduce_scalar();
  EXPECT_NEAR(sim2.makespan(), pp_.mpi_allreduce_alpha, 1e-12);
  EXPECT_NEAR(sim64.makespan(), 6 * pp_.mpi_allreduce_alpha, 1e-12);
}

TEST_F(MpiSimTest, ExchangeDoesNotCascadeAcrossNodes) {
  // A ring of same-sized messages across many nodes must cost roughly one
  // NIC's share, not the sum of all hops (regression test for the copy-
  // coupling bug found during Fig. 8 calibration).
  MpiSim sim(sim::ProcKind::GPU, 24, pp_);  // 4 nodes
  std::map<std::pair<int, int>, double> bytes;
  for (int r = 0; r < 23; ++r) {
    bytes[{r, r + 1}] = 1e6;
    bytes[{r + 1, r}] = 1e6;
  }
  sim.exchange(bytes);
  // Per-NIC share: ~2 inter-node messages of 1 MB at IB bandwidth.
  double per_msg = 1e6 / pp_.ib_bw;
  EXPECT_LT(sim.makespan(), 6 * per_msg + 1e-3);
}

TEST_F(MpiSimTest, ExchangeChargesMpiCopyBytes) {
  MpiSim sim(sim::ProcKind::GPU, 12, pp_);  // 2 nodes
  std::map<std::pair<int, int>, double> bytes{{{0, 1}, 1e6}, {{0, 7}, 2e6}};
  sim.exchange(bytes);
  const metrics::Snapshot snap = sim.engine().metrics().snapshot();
  const auto* mpi = snap.find("lsr_sim_copy_mpi_bytes_total");
  ASSERT_NE(mpi, nullptr);
  EXPECT_EQ(mpi->value, 3e6);
  const sim::Stats st = sim.engine().stats();
  EXPECT_EQ(st.bytes_intra + st.bytes_nvlink + st.bytes_ib, 3e6);
}

TEST_F(MpiSimTest, ExchangeSynchronizesParticipants) {
  MpiSim sim(sim::ProcKind::GPU, 2, pp_);
  sim.compute(0, 790e9, 0);  // rank 0 ahead by ~1s
  std::map<std::pair<int, int>, double> bytes{{{0, 1}, 1e6}};
  sim.exchange(bytes);
  EXPECT_GE(sim.now(1), sim.now(0) - 1e-9);
}

TEST_F(MpiSimTest, AllreduceBytesChargesRing) {
  MpiSim sim(sim::ProcKind::GPU, 12, pp_);  // 2 nodes -> IB
  double t0 = sim.makespan();
  sim.allreduce_bytes(12e9);
  EXPECT_GT(sim.makespan() - t0, 1.0);  // 2*b*(p-1)/p over 12 GB/s > 1 s
}

TEST_F(MpiSimTest, AllocRespectsFramebufferCapacity) {
  MpiSim sim(sim::ProcKind::GPU, 1, pp_);
  double cap = sim.machine().memory(sim.machine().proc(0).mem).capacity;
  sim.alloc(0, cap * 0.9);
  EXPECT_THROW(sim.alloc(0, cap * 0.2), OutOfMemoryError);
}

}  // namespace
}  // namespace legate::baselines::mpisim

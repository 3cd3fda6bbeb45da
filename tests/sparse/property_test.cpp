// Property sweeps across formats, shapes and seeds: every format's SpMV
// agrees with the host oracle, conversion chains are lossless, and algebraic
// identities hold under arbitrary partitioning.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "oracle.h"
#include "sparse/csr.h"
#include "sparse/formats.h"

namespace legate::sparse {
namespace {

using dense::DArray;
using testing::HostCsr;
using testing::download;
using testing::random_host_csr;
using testing::upload;

struct SweepParam {
  int procs;
  coord_t rows, cols;
  double density;
  std::uint64_t seed;
};

// Names each sweep case by its fields. Without it gtest prints the raw bytes
// of the struct, padding included, and the test names change between builds.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "procs" << p.procs << "_" << p.rows << "x" << p.cols << "_density" << p.density
      << "_seed" << p.seed;
}

class FormatSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  FormatSweep()
      : machine_(sim::Machine::gpus(GetParam().procs, pp_)), rt_(machine_) {}
  sim::PerfParams pp_;
  sim::Machine machine_;
  rt::Runtime rt_;
};

TEST_P(FormatSweep, AllFormatsAgreeOnSpmv) {
  auto [procs, rows, cols, density, seed] = GetParam();
  HostCsr h = random_host_csr(rows, cols, density, seed);
  CsrMatrix a = upload(rt_, h);
  auto x = DArray::random(rt_, cols, seed + 1);
  auto ref = h.spmv(x.to_vector());

  auto check = [&](const std::vector<double>& got, const char* what) {
    ASSERT_EQ(got.size(), ref.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(got[i], ref[i], 1e-11) << what << " row " << i;
  };
  check(a.spmv(x).to_vector(), "csr");
  check(a.tocoo().spmv(x).to_vector(), "coo");
  check(a.tocsc().spmv(x).to_vector(), "csc");
  check(a.todia().spmv(x).to_vector(), "dia");
  if (rows % 4 == 0 && cols % 4 == 0) {
    check(BsrMatrix::from_csr(a, 4).spmv(x).to_vector(), "bsr");
  }
}

TEST_P(FormatSweep, ConversionChainIsLossless) {
  auto [procs, rows, cols, density, seed] = GetParam();
  HostCsr h = random_host_csr(rows, cols, density, seed);
  CsrMatrix a = upload(rt_, h);
  // csr -> coo -> csr -> csc -> csr -> dia -> csr(pruned like the original)
  CsrMatrix b = a.tocoo().tocsr().tocsc().tocsr().todia().tocsr().prune(0.0);
  HostCsr hb = download(b);
  EXPECT_EQ(hb.indptr, h.indptr);
  EXPECT_EQ(hb.indices, h.indices);
  EXPECT_EQ(hb.values, h.values);
}

TEST_P(FormatSweep, AlgebraicIdentities) {
  auto [procs, rows, cols, density, seed] = GetParam();
  HostCsr h = random_host_csr(rows, cols, density, seed);
  CsrMatrix a = upload(rt_, h);
  auto x = DArray::random(rt_, cols, seed + 2);

  // (2A)x == 2(Ax)
  auto lhs = a.scale(2.0).spmv(x).to_vector();
  auto rhs = a.spmv(x).scale(2.0).to_vector();
  for (std::size_t i = 0; i < lhs.size(); ++i) ASSERT_NEAR(lhs[i], rhs[i], 1e-11);

  // (A + A)x == 2(Ax)
  auto sum = a.add(a).spmv(x).to_vector();
  for (std::size_t i = 0; i < sum.size(); ++i) ASSERT_NEAR(sum[i], rhs[i], 1e-11);

  // (A - A) pruned is empty
  EXPECT_EQ(a.sub(a).prune().nnz(), 0);

  // A ⊙ A == values squared on the same pattern
  HostCsr sq = download(a.multiply(a));
  for (std::size_t i = 0; i < sq.values.size(); ++i)
    ASSERT_NEAR(sq.values[i], h.values[i] * h.values[i], 1e-12);

  // (Aᵀ)ᵀ x == A x
  auto tt = a.transpose().transpose().spmv(x).to_vector();
  auto ax = a.spmv(x).to_vector();
  for (std::size_t i = 0; i < tt.size(); ++i) ASSERT_NEAR(tt[i], ax[i], 1e-12);
}

TEST_P(FormatSweep, SpgemmAssociatesWithSpmv) {
  auto [procs, rows, cols, density, seed] = GetParam();
  // (A B) x == A (B x) for square operands.
  coord_t n = rows;
  HostCsr ha = random_host_csr(n, n, density, seed);
  HostCsr hb = random_host_csr(n, n, density, seed + 7);
  CsrMatrix a = upload(rt_, ha), b = upload(rt_, hb);
  auto x = DArray::random(rt_, n, seed + 3);
  auto lhs = a.spgemm(b).spmv(x).to_vector();
  auto rhs = a.spmv(b.spmv(x)).to_vector();
  for (std::size_t i = 0; i < lhs.size(); ++i) ASSERT_NEAR(lhs[i], rhs[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FormatSweep,
    ::testing::Values(SweepParam{1, 16, 16, 0.3, 1}, SweepParam{2, 32, 24, 0.2, 2},
                      SweepParam{3, 48, 48, 0.1, 3}, SweepParam{5, 40, 64, 0.15, 4},
                      SweepParam{8, 64, 64, 0.08, 5}, SweepParam{16, 96, 96, 0.05, 6},
                      SweepParam{4, 20, 20, 0.5, 7}, SweepParam{6, 128, 32, 0.1, 8}));

}  // namespace
}  // namespace legate::sparse

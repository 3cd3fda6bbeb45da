#include "solve/multigrid.h"

namespace legate::solve {

using dense::DArray;
using sparse::CsrMatrix;

namespace {

/// Element-wise reciprocal of the operator diagonal (zero-safe).
DArray reciprocal_diag(const CsrMatrix& A) {
  DArray d = A.diagonal();
  rt::Runtime& rt = A.runtime();
  rt::Store out = rt.create_store(rt::DType::F64, {d.size()});
  rt::TaskLauncher launch(rt, "recip_diag");
  int ia = launch.add_input(d.store());
  int io = launch.add_output(out);
  launch.align(ia, io);
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto x = ctx.full<double>(ia);
    auto y = ctx.full<double>(io);
    Interval iv = ctx.elem_interval(io);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = x[i] != 0.0 ? 1.0 / x[i] : 0.0;
  });
  launch.set_cost(rt::per_element(io, 16.0, 1.0));
  launch.execute();
  return DArray(rt, out);
}

}  // namespace

TwoLevelGmg::TwoLevelGmg(const CsrMatrix& A, const CsrMatrix& R, double omega,
                         int pre_sweeps, int post_sweeps, int coarse_sweeps,
                         double prolong_scale)
    : A_(A),
      R_(R),
      P_(R.transpose().scale(prolong_scale)),
      Ac_(R.spgemm(A).spgemm(P_)),
      omega_(omega),
      pre_(pre_sweeps),
      post_(post_sweeps),
      coarse_sweeps_(coarse_sweeps) {
  dinv_fine_ = reciprocal_diag(A_);
  dinv_coarse_ = reciprocal_diag(Ac_);
}

void TwoLevelGmg::jacobi_sweeps(const CsrMatrix& A, const DArray& dinv, DArray& x,
                                const DArray& b, int sweeps) const {
  for (int s = 0; s < sweeps; ++s) {
    // x += omega * Dinv (b - A x)
    DArray r = b.sub(A.spmv(x));
    DArray corr = r.mul(dinv);
    x.axpy(omega_, corr);
  }
}

DArray TwoLevelGmg::apply(const DArray& r) const {
  rt::Runtime& rt = A_.runtime();
  rt::ProvenanceScope prof_scope(rt, "gmg-vcycle");
  DArray x = DArray::zeros(rt, r.size());
  jacobi_sweeps(A_, dinv_fine_, x, r, pre_);
  // Coarse-grid correction.
  DArray resid = r.sub(A_.spmv(x));
  DArray rc = R_.spmv(resid);
  DArray ec = DArray::zeros(rt, rc.size());
  jacobi_sweeps(Ac_, dinv_coarse_, ec, rc, coarse_sweeps_);
  x.iadd(P_.spmv(ec));
  jacobi_sweeps(A_, dinv_fine_, x, r, post_);
  return x;
}

CsrMatrix TwoLevelGmg::injection_1d(rt::Runtime& rt, coord_t n) {
  coord_t nc = n / 2;
  std::vector<coord_t> indptr, indices;
  std::vector<double> values;
  indptr.push_back(0);
  for (coord_t i = 0; i < nc; ++i) {
    indices.push_back(2 * i);
    values.push_back(1.0);
    indptr.push_back(static_cast<coord_t>(indices.size()));
  }
  return CsrMatrix::from_host(rt, nc, n, indptr, indices, values);
}

CsrMatrix TwoLevelGmg::injection_2d(rt::Runtime& rt, coord_t n) {
  coord_t nc = n / 2;
  std::vector<coord_t> indptr, indices;
  std::vector<double> values;
  indptr.push_back(0);
  for (coord_t ic = 0; ic < nc; ++ic) {
    for (coord_t jc = 0; jc < nc; ++jc) {
      indices.push_back((2 * ic) * n + (2 * jc));
      values.push_back(1.0);
      indptr.push_back(static_cast<coord_t>(indices.size()));
    }
  }
  return CsrMatrix::from_host(rt, nc * nc, n * n, indptr, indices, values);
}

}  // namespace legate::solve

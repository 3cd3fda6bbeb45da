#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "apps/workloads.h"
#include "baselines/ref/ref.h"
#include "solve/krylov.h"
#include "sparse/csr.h"
#include "stats.h"
#include "util/rng.h"

namespace perfbench {

using namespace legate;
using baselines::ref::RefContext;
using baselines::ref::RefCsr;
using baselines::ref::RefVector;
using dense::DArray;
using dense::Scalar;
using sparse::CsrMatrix;

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

std::string describe_config(rt::Runtime& rt) {
  std::ostringstream os;
  os << "exec_threads=" << rt.exec_threads() << " pipelining=" << rt.pipelining()
     << " fusion_enabled=" << rt.fusion_enabled() << " ("
     << rt::fusion_mode_name(rt.fusion_mode()) << ")"
     << " comm_enabled=" << rt.comm_enabled() << " ("
     << comm::comm_mode_name(rt.comm_mode()) << ")"
     << " partition=" << rt::partition_strategy_name(rt.partition_strategy());
  return os.str();
}

void Workload::make_runtime() {
  const Pinned p = pinned();
  rt::RuntimeOptions o;
  o.exec_threads = kExecThreads;
  o.exec_pipeline = 1;
  o.fusion = p.fusion;
  o.comm = p.comm;
  o.partition = p.partition;
  o.diag = diag::Mode::Off;
  o.diag_opts = diag::Options{};
  o.integrity = rt::Integrity::Off;
  o.faults = sim::FaultConfig{};
  sim::PerfParams pp;
  rt_ = std::make_unique<rt::Runtime>(sim::Machine::gpus(p.procs, pp), o);
  rt_->engine().set_cost_scale(p.cost_scale);
  const bool ok = rt_->exec_threads() == kExecThreads && rt_->pipelining() &&
                  rt_->fusion_enabled() == (p.fusion != rt::Fusion::Off) &&
                  rt_->fusion_mode() == p.fusion &&
                  rt_->comm_enabled() == (p.comm != comm::Mode::Off) &&
                  rt_->comm_mode() == p.comm &&
                  rt_->partition_strategy() == p.partition;
  if (!ok) {
    throw std::runtime_error(std::string(name()) +
                             ": runtime resolved a configuration other than the "
                             "pinned one: " +
                             describe_config(*rt_));
  }
}

namespace {

/// Wall milliseconds of one call.
template <typename F>
double time_ms(F&& f) {
  double t0 = now_s();
  f();
  return (now_s() - t0) * 1e3;
}

/// Bytes one CSR SpMV touches: indptr, indices, values, x and y.
double spmv_bytes(coord_t rows, coord_t cols, coord_t nnz) {
  return 8.0 * static_cast<double>(rows + 1) + 16.0 * static_cast<double>(nnz) +
         8.0 * static_cast<double>(cols) + 8.0 * static_cast<double>(rows);
}

/// Seeded uniform values in [lo, hi).
std::vector<double> uniform(std::uint64_t seed, std::size_t n, double lo, double hi) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& e : v) e = lo + (hi - lo) * rng.next_double();
  return v;
}

/// Median single-thread ref dot and axpy timings on vectors of length n.
void time_ref_vector_ops(RefContext& ctx, const std::vector<double>& data,
                         RefTimings& out) {
  RefVector a(ctx, data), b(ctx, data);
  std::vector<double> dot, axpy;
  double sink = 0;
  for (int k = 0; k < 7; ++k) {
    dot.push_back(time_ms([&] { sink += a.dot(b); }));
    axpy.push_back(time_ms([&] { a.axpy(1e-12, b); }));
  }
  out.dot_ms = median(dot);
  out.axpy_ms = median(axpy);
  if (!std::isfinite(sink)) out.dot_ms = -1;
}

// ---------------------------------------------------------------------------
// cg-poisson: CG steps on the Fig. 9 2-D Poisson operator at 192 GPUs.
// ---------------------------------------------------------------------------

class CgPoisson final : public Workload {
 public:
  static constexpr coord_t kRowsPerProc = 25600;
  static constexpr int kProcs = 192;
  /// Leading iterations compared against reference CG residual norms.
  static constexpr int kRefIters = 12;
  /// solve::cg iterations per solve.cg_iter_ms sample.
  static constexpr int kSolveIters = 10;

  [[nodiscard]] const char* name() const override { return "cg-poisson"; }
  [[nodiscard]] Pinned pinned() const override {
    return {kProcs, 64.0, rt::Fusion::On, comm::Mode::Plan, rt::PartitionStrategy::Rows};
  }

  void generate(std::uint64_t seed) override {
    const auto grid = static_cast<coord_t>(
        std::ceil(std::sqrt(static_cast<double>(kRowsPerProc) * kProcs)));
    apps::HostProblem prob = apps::poisson2d(grid);
    b_host_ = uniform(seed, static_cast<std::size_t>(prob.rows), 0.5, 1.5);
    ctx_ = std::make_unique<RefContext>(baselines::ref::Device::ScipyCpu, sim::PerfParams{});
    refA_ = std::make_unique<RefCsr>(*ctx_, prob.rows, prob.cols, std::move(prob.indptr),
                                     std::move(prob.indices), std::move(prob.values));
    // Reference CG, the same recurrence the workload issues, one thread.
    RefVector b(*ctx_, b_host_);
    RefVector x(*ctx_, refA_->rows(), 0.0);
    RefVector r = b;
    RefVector p = r;
    double rr = r.dot(r);
    ref_res_.clear();
    std::vector<double> spmv, dot, axpy;
    for (int it = 0; it < kRefIters; ++it) {
      RefVector Ap;
      spmv.push_back(time_ms([&] { Ap = refA_->spmv(p); }));
      double pAp = 0;
      dot.push_back(time_ms([&] { pAp = p.dot(Ap); }));
      double alpha = rr / pAp;
      axpy.push_back(time_ms([&] { x.axpy(alpha, p); }));
      r.axpy(-alpha, Ap);
      double rr_new = r.dot(r);
      p.xpay(rr_new / rr, r);
      rr = rr_new;
      ref_res_.push_back(std::sqrt(rr));
    }
    bnorm_ = b.norm();
    ref_.spmv_ms = median(spmv);
    ref_.dot_ms = median(dot);
    ref_.axpy_ms = median(axpy);
    ref_.spmv_bytes = spmv_bytes(refA_->rows(), refA_->cols(), refA_->nnz());
  }

  void setup(Tracer* t) override {
    teardown();
    make_runtime();
    {
      Span s(t, "sparse.from_host");
      A_ = CsrMatrix::from_host(*rt_, refA_->rows(), refA_->cols(), refA_->indptr(),
                                refA_->indices(), refA_->values());
    }
    {
      Span s(t, "dense.from_vector");
      b_ = DArray::from_vector(*rt_, b_host_);
    }
    x_ = DArray::zeros(*rt_, A_.rows());
    r_ = b_.copy();
    p_ = b_.copy();
    {
      Span s(t, "dense.dot", SpanKind::Drain);
      rr_ = r_.dot(r_);
    }
    res_.clear();
    iterate(t);
  }

  void iterate(Tracer* t) override {
    {
      DArray Ap;
      {
        Span s(t, "sparse.spmv");
        Ap = A_.spmv(p_);
      }
      Scalar pAp;
      {
        Span s(t, "dense.dot", SpanKind::Drain);
        pAp = p_.dot(Ap);
      }
      Scalar alpha{rr_.value / pAp.value, std::max(rr_.ready, pAp.ready)};
      {
        Span s(t, "dense.axpy");
        x_.axpy(alpha, p_);
      }
      {
        Span s(t, "dense.axpy");
        r_.axpy(Scalar{-alpha.value, alpha.ready}, Ap);
      }
      Scalar rr_new;
      {
        Span s(t, "dense.dot", SpanKind::Drain);
        rr_new = r_.dot(r_);
      }
      Scalar beta{rr_new.value / rr_.value, std::max(rr_new.ready, rr_.ready)};
      {
        Span s(t, "dense.xpay");
        p_.xpay(beta, r_);
      }
      rr_ = rr_new;
      res_.push_back(std::sqrt(rr_new.value));
    }
    Span s(t, "rt.fence", SpanKind::Drain);
    rt_->fence();
  }

  void check_iteration(Checks& c) override {
    const std::size_t k = res_.size() - 1;
    if (k < ref_res_.size()) {
      c.expect(close_rel(res_[k], ref_res_[k], 1e-6),
               "cg residual " + std::to_string(k) + " differs from reference CG");
    } else {
      c.expect(std::isfinite(res_[k]) && res_[k] > 0,
               "cg residual " + std::to_string(k) + " is not finite and positive");
    }
  }

  void check_final(Checks& c) override {
    // The recurrence residual must match the true residual ||b - A x||.
    RefVector x(*ctx_, x_.to_vector());
    RefVector r(*ctx_, b_host_);
    r.isub(refA_->spmv(x));
    c.expect(std::fabs(r.norm() - res_.back()) <= 1e-6 * bnorm_,
             "cg recurrence residual drifted from the true residual");
  }

  double solve_cg_iter_ms(Tracer* t) override {
    double ms = 0;
    for (int rep = 0; rep < 2; ++rep) {  // the first solve allocates its vectors
      Span s(t, "solve.cg");
      ms = time_ms([&] {
             solve::cg(A_, b_, /*tol=*/0.0, kSolveIters);
             rt_->fence();
           }) /
           kSolveIters;
    }
    return ms;
  }

  RefTimings ref_timings() override { return ref_; }

  void teardown() override {
    A_ = {};
    b_ = x_ = r_ = p_ = {};
    rt_.reset();
  }

  void release_inputs() override {
    refA_.reset();
    b_host_ = {};
  }

 private:
  std::vector<double> b_host_;
  std::unique_ptr<RefContext> ctx_;
  std::unique_ptr<RefCsr> refA_;  ///< also the host CSR the runtime attaches
  std::vector<double> ref_res_;
  double bnorm_{1};
  RefTimings ref_;

  CsrMatrix A_;
  DArray b_, x_, r_, p_;
  Scalar rr_;
  std::vector<double> res_;  ///< residual norm after each iteration
};

// ---------------------------------------------------------------------------
// spmv-comm: y = A@x; x += 1e-9 y on a Zipf matrix over 2 nodes.
// ---------------------------------------------------------------------------

class SpmvComm final : public Workload {
 public:
  static constexpr coord_t kRows = 240000;
  static constexpr double kZipfS = 1.05;
  static constexpr coord_t kAvgNnz = 8;
  static constexpr double kEps = 1e-9;
  static constexpr std::uint64_t kPatternSeed = 97;

  [[nodiscard]] const char* name() const override { return "spmv-comm"; }
  [[nodiscard]] Pinned pinned() const override {
    return {12, 64.0, rt::Fusion::Off, comm::Mode::Plan, rt::PartitionStrategy::Nnz};
  }

  void generate(std::uint64_t seed) override {
    // The sparsity pattern is fixed: it is the matrix of the committed
    // Comm/SpMV/plan/12 gate point (bench_spmv, pattern seed 97). Which
    // columns the hub rows cover sets the ghost volume, and with it the
    // simulated time, so a seeded pattern would spread that metric over 10%
    // between seeds. The seed draws the values and the initial x.
    apps::HostProblem prob = apps::zipf_matrix(kRows, kZipfS, kAvgNnz, kPatternSeed);
    prob.values = uniform(seed, prob.values.size(), 1.0, 2.0);
    x0_ = uniform(seed ^ 0x5eedULL, static_cast<std::size_t>(prob.cols), 0.5, 1.5);
    ctx_ = std::make_unique<RefContext>(baselines::ref::Device::ScipyCpu, sim::PerfParams{});
    refA_ = std::make_unique<RefCsr>(*ctx_, prob.rows, prob.cols, std::move(prob.indptr),
                                     std::move(prob.indices), std::move(prob.values));
    ref_spmv_ms_.clear();
  }

  void setup(Tracer* t) override {
    teardown();
    xref_ = RefVector(*ctx_, x0_);
    make_runtime();
    {
      Span s(t, "sparse.from_host");
      A_ = CsrMatrix::from_host(*rt_, refA_->rows(), refA_->cols(), refA_->indptr(),
                                refA_->indices(), refA_->values());
    }
    {
      Span s(t, "dense.from_vector");
      x_ = DArray::from_vector(*rt_, x0_);
    }
    iterate(t);
  }

  void iterate(Tracer* t) override {
    y_ = {};
    {
      Span s(t, "sparse.spmv");
      y_ = A_.spmv(x_);
    }
    {
      Span s(t, "dense.axpy");
      x_.axpy(Scalar{kEps}, y_);
    }
    Span s(t, "rt.fence", SpanKind::Drain);
    rt_->fence();
  }

  void check_iteration(Checks& c) override {
    RefVector yref;
    ref_spmv_ms_.push_back(time_ms([&] { yref = refA_->spmv(xref_); }));
    c.expect(close_vec(y_.to_vector(), yref.data(), 1e-12),
             "spmv y differs from reference SpMV");
    xref_.axpy(kEps, yref);
  }

  void check_final(Checks& c) override {
    c.expect(close_vec(x_.to_vector(), xref_.data(), 1e-12),
             "final x differs from the reference x sequence");
  }

  RefTimings ref_timings() override {
    RefTimings r;
    r.spmv_ms = median(ref_spmv_ms_);
    r.spmv_bytes = spmv_bytes(refA_->rows(), refA_->cols(), refA_->nnz());
    time_ref_vector_ops(*ctx_, x0_, r);
    return r;
  }

  void teardown() override {
    A_ = {};
    x_ = y_ = {};
    rt_.reset();
  }

  void release_inputs() override {
    refA_.reset();
    xref_ = {};
    x0_ = {};
  }

 private:
  std::vector<double> x0_;
  std::unique_ptr<RefContext> ctx_;
  std::unique_ptr<RefCsr> refA_;
  RefVector xref_;
  std::vector<double> ref_spmv_ms_;

  CsrMatrix A_;
  DArray x_, y_;
};

// ---------------------------------------------------------------------------
// factorization: SGD steps of the Fig. 12 bias factorization (ML-100M / 10).
// ---------------------------------------------------------------------------

/// Attach host data as a 2-D row-major store (the 2-D analog of
/// Runtime::attach / DArray::from_vector).
DArray attach2d(rt::Runtime& rt, coord_t m, coord_t n, const std::vector<double>& v) {
  rt::Store s = rt.create_store(rt::DType::F64, {m, n});
  std::copy(v.begin(), v.end(), s.span<double>().begin());
  rt.mark_attached(s);
  return {rt, s};
}

class Factorization final : public Workload {
 public:
  static constexpr double kS = 10.0;       ///< dataset sample factor
  static constexpr coord_t kFactors = 64;  ///< latent dimension
  static constexpr int kBatches = 16;      ///< pre-generated batches, cycled
  static constexpr double kLr = 1e-3;
  /// Device bytes per modeled rating (see bench/bench_factorization.cpp).
  static constexpr double kBytesPerRating = 544.0;

  [[nodiscard]] const char* name() const override { return "factorization"; }
  [[nodiscard]] Pinned pinned() const override {
    return {12, kS, rt::Fusion::On, comm::Mode::Plan, rt::PartitionStrategy::Rows};
  }

  void generate(std::uint64_t seed) override {
    const apps::MovieLensProfile& prof = apps::movielens_profiles().back();  // ML-100M
    apps::RatingsDataset d = apps::synthetic_movielens(
        static_cast<coord_t>(prof.users / kS), static_cast<coord_t>(prof.items / kS),
        static_cast<coord_t>(static_cast<double>(prof.nnz) / kS), seed);
    users_ = d.users;
    items_ = d.items;
    staging_ = static_cast<double>(prof.nnz) * kBytesPerRating / kS;
    const coord_t batch = std::max<coord_t>(2048, d.nnz() / 256);
    batches_.assign(kBatches, {});
    for (int k = 0; k < kBatches; ++k) {
      Batch& b = batches_[static_cast<std::size_t>(k)];
      const coord_t lo = k * batch, hi = lo + batch;
      b.indptr.push_back(0);
      for (coord_t u = 0; u < d.users; ++u) {
        for (coord_t j = std::max(lo, d.indptr[static_cast<std::size_t>(u)]);
             j < std::min(hi, d.indptr[static_cast<std::size_t>(u) + 1]); ++j) {
          b.indices.push_back(d.indices[static_cast<std::size_t>(j)]);
          b.values.push_back(d.ratings[static_cast<std::size_t>(j)]);
        }
        b.indptr.push_back(static_cast<coord_t>(b.indices.size()));
      }
    }
    U0_ = uniform(seed ^ 0x11ULL, static_cast<std::size_t>(users_ * kFactors), 0.0, 0.1);
    V0_ = uniform(seed ^ 0x22ULL, static_cast<std::size_t>(items_ * kFactors), 0.0, 0.1);
    ctx_ = std::make_unique<RefContext>(baselines::ref::Device::ScipyCpu, sim::PerfParams{});
  }

  void setup(Tracer* t) override {
    teardown();
    make_runtime();
    // Device residency of the training pipeline, spread across framebuffers.
    sim::Engine& eng = rt_->engine();
    for (const auto& proc : rt_->machine().procs()) {
      eng.alloc_bytes(proc.mem, staging_ / rt_->machine().num_procs());
    }
    {
      Span s(t, "dense.from_vector");
      U_ = attach2d(*rt_, users_, kFactors, U0_);
      V_ = attach2d(*rt_, items_, kFactors, V0_);
      bu_ = DArray::from_vector(*rt_, std::vector<double>(static_cast<std::size_t>(users_)));
      bi_ = DArray::from_vector(*rt_, std::vector<double>(static_cast<std::size_t>(items_)));
    }
    step_ = 0;
    iterate(t);
  }

  void iterate(Tracer* t) override { step(t, nullptr); }

  void check_iteration(Checks& c) override { (void)c; }

  void check_final(Checks& c) override {
    // One sampled step: its SDDMM and SpMM outputs against baselines::ref on
    // the factors the step read.
    const std::vector<double> U = U_.to_vector(), V = V_.to_vector();
    const Batch& b = batches_[static_cast<std::size_t>(step_ % kBatches)];
    Sampled out;
    step(nullptr, &out);

    std::vector<double> Vt(V.size());
    for (coord_t i = 0; i < items_; ++i) {
      for (coord_t l = 0; l < kFactors; ++l) {
        Vt[static_cast<std::size_t>(l * items_ + i)] = V[static_cast<std::size_t>(i * kFactors + l)];
      }
    }
    RefCsr mask(*ctx_, users_, items_, b.indptr, b.indices,
                std::vector<double>(b.values.size(), 1.0));
    RefCsr want_s = mask.sddmm(U, Vt, kFactors);
    std::vector<coord_t> ip, ix;
    std::vector<double> got_s;
    out.sddmm.to_host(ip, ix, got_s);
    c.expect(ip == want_s.indptr() && ix == want_s.indices() &&
                 close_vec(got_s, want_s.values(), 1e-12),
             "sampled step: sddmm differs from reference");

    std::vector<double> err_vals;
    out.err.to_host(ip, ix, err_vals);
    RefCsr err(*ctx_, users_, items_, ip, ix, err_vals);
    c.expect(close_vec(out.dU.to_vector(), err.spmm(V, kFactors), 1e-12),
             "sampled step: spmm differs from reference");
  }

  RefTimings ref_timings() override {
    const Batch& b = batches_.front();
    RefCsr A(*ctx_, users_, items_, b.indptr, b.indices, b.values);
    RefVector x(*ctx_, items_, 1.0);
    std::vector<double> spmv;
    for (int k = 0; k < 7; ++k) spmv.push_back(time_ms([&] { auto y = A.spmv(x); }));
    RefTimings r;
    r.spmv_ms = median(spmv);
    r.spmv_bytes = spmv_bytes(users_, items_, A.nnz());
    time_ref_vector_ops(*ctx_, U0_, r);
    return r;
  }

  void teardown() override {
    U_ = V_ = bu_ = bi_ = {};
    rt_.reset();
  }

  void release_inputs() override {
    batches_ = {};
    U0_ = V0_ = {};
  }

 private:
  struct Batch {
    std::vector<coord_t> indptr, indices;
    std::vector<double> values;
  };
  /// Outputs of a sampled step kept for checking.
  struct Sampled {
    CsrMatrix sddmm, err;
    DArray dU;
  };

  /// One SGD step on the next pre-generated batch.
  void step(Tracer* t, Sampled* keep) {
    const Batch& b = batches_[static_cast<std::size_t>(step_ % kBatches)];
    ++step_;
    {
      CsrMatrix batch, mask, pred, err, errT;
      DArray Vt, dU, dV, dbu, dbi;
      {
        Span s(t, "sparse.from_host");
        batch = CsrMatrix::from_host(*rt_, users_, items_, b.indptr, b.indices, b.values);
      }
      {
        Span s(t, "sparse.power_values");
        mask = batch.power_values(0.0);
      }
      {
        Span s(t, "dense.transpose", SpanKind::Drain);
        Vt = V_.transpose();  // the dense all-to-all the paper calls out
      }
      {
        Span s(t, "sparse.sddmm");
        pred = mask.sddmm(U_, Vt);
      }
      if (keep != nullptr) keep->sddmm = pred;
      CsrMatrix term;
      {
        Span s(t, "sparse.scale_rows");
        term = mask.scale_rows(bu_);
      }
      {
        Span s(t, "sparse.add");
        pred = pred.add(term);
      }
      {
        Span s(t, "sparse.scale_cols");
        term = mask.scale_cols(bi_);
      }
      {
        Span s(t, "sparse.add");
        pred = pred.add(term);
      }
      {
        Span s(t, "sparse.scale");
        term = mask.scale(3.0);
      }
      {
        Span s(t, "sparse.add");
        pred = pred.add(term);
      }
      {
        Span s(t, "sparse.sub");
        err = pred.sub(batch);
      }
      {
        Span s(t, "sparse.spmm");
        dU = err.spmm(V_);
      }
      {
        Span s(t, "sparse.transpose");
        errT = err.transpose();
      }
      {
        Span s(t, "sparse.spmm");
        dV = errT.spmm(U_);
      }
      {
        Span s(t, "sparse.sum");
        dbu = err.sum(1);
      }
      {
        Span s(t, "sparse.sum");
        dbi = err.sum(0);
      }
      {
        Span s(t, "dense.axpy");
        U_.axpy(-kLr, dU);
      }
      {
        Span s(t, "dense.axpy");
        V_.axpy(-kLr, dV);
      }
      {
        Span s(t, "dense.axpy");
        bu_.axpy(-kLr, dbu);
      }
      {
        Span s(t, "dense.axpy");
        bi_.axpy(-kLr, dbi);
      }
      if (keep != nullptr) {
        keep->err = err;
        keep->dU = dU;
      }
    }
    Span s(t, "rt.fence", SpanKind::Drain);
    rt_->fence();
  }

  coord_t users_{0}, items_{0};
  double staging_{0};
  std::vector<Batch> batches_;
  std::vector<double> U0_, V0_;
  std::unique_ptr<RefContext> ctx_;

  DArray U_, V_, bu_, bi_;
  long step_{0};
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cg-poisson") return std::make_unique<CgPoisson>();
  if (name == "spmv-comm") return std::make_unique<SpmvComm>();
  if (name == "factorization") return std::make_unique<Factorization>();
  return nullptr;
}

}  // namespace perfbench

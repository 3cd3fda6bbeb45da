#include "solve/krylov.h"

#include <cmath>
#include <optional>
#include <vector>

#include "diag/diag.h"
#include "rt/checkpoint.h"

namespace legate::solve {

using dense::DArray;
using dense::Scalar;

namespace {

/// Combine two scalar futures; the result is ready when both inputs are and
/// poisoned when either is.
Scalar fdiv(Scalar a, Scalar b) {
  return {a.value / b.value, std::max(a.ready, b.ready), a.poisoned || b.poisoned};
}
Scalar fneg(Scalar a) { return {-a.value, a.ready, a.poisoned}; }

/// Faults a solver survives before giving up (repeated node losses faster
/// than the checkpoint cadence make no forward progress).
constexpr int kMaxRestores = 8;

/// Re-executions of an ABFT-failed SpMV under Integrity::Recover before the
/// solver falls back to a checkpoint rollback. A retry draws a fresh
/// output-flip lottery, so a clean retry reproduces the fault-free product
/// bit-for-bit.
constexpr int kAbftRetries = 3;
/// Rounding slack of the checksum test, scaled by |A|-magnitude column sums.
constexpr double kAbftRtol = 1e-8;
/// Residual-replacement drift threshold: recursive vs true residual gaps
/// beyond this (relative to the larger of the two, floored at tol·‖b‖) mean
/// corruption escaped the checksum layers.
constexpr double kRrDriftRtol = 1e-3;

/// ABFT-protected y = A @ x. With integrity off this is a plain spmv.
/// Otherwise verify the Huang–Abraham checksum invariant Σ(Ax) == c·x for the
/// cached check row c = colsums(A), with slack kAbftRtol·(|A|colsums·|x| +
/// |c·x|) — the magnitude scale is essential because plain column sums of
/// stencil operators cancel to ~0. Under Detect a violation reports *ok =
/// false (the solver aborts unconverged); under Recover the product is
/// recomputed up to kAbftRetries times and the event counted recovered.
DArray checked_spmv(const sparse::CsrMatrix& A, const DArray& x, bool& ok) {
  rt::Runtime& rt = A.runtime();
  const rt::Integrity mode = rt.options().integrity;
  if (mode == rt::Integrity::Off) return A.spmv(x);
  const int attempts = mode == rt::Integrity::Recover ? 1 + kAbftRetries : 1;
  for (int t = 0; t < attempts; ++t) {
    DArray y = A.spmv(x);
    Scalar lhs = y.sum();
    Scalar rhs = A.check_row().dot(x);
    Scalar scale = A.abs_check_row().dot(x.abs());
    // Fail-stop poison (lost node mid-product) is the retry machinery's
    // problem, not ABFT's — hand the poisoned result straight back.
    if (lhs.poisoned || rhs.poisoned || scale.poisoned) return y;
    if (std::fabs(lhs.value - rhs.value) <=
        kAbftRtol * (scale.value + std::fabs(rhs.value))) {
      if (t > 0) rt.engine().emit(sim::Ev::FlipRecovered);
      return y;
    }
    rt.engine().emit(sim::Ev::FlipDetected);
  }
  ok = false;
  return A.spmv(x);  // caller aborts or rolls back via ok
}

/// Per-solver convergence telemetry (lsr_solve_<name>_*). Owns the
/// ProvenanceScope labeling the solver's launches on recorded timelines and
/// registers the solver's metrics on the runtime's registry. Everything here
/// runs on the control thread between launches against bit-identical values
/// (residuals, iteration counts, simulated time), so all of it is Stable.
class Telemetry {
 public:
  Telemetry(rt::Runtime& rt, const char* name)
      : rt_(rt), scope_(rt, name), scope_name_(name),
        guard_(rt.flight(), name) {
    auto& reg = rt.metrics();
    std::string p = std::string("lsr_solve_") + name + "_";
    solves_ = reg.counter(p + "solves_total", "solve invocations");
    iters_ = reg.counter(p + "iterations_total", "iterations summed over solves");
    residual_ = reg.gauge(p + "residual", "final residual of the last solve");
    converged_ = reg.gauge(p + "converged", "1 when the last solve converged");
    time_to_tol_ = reg.gauge(p + "time_to_tol_seconds",
                             "simulated seconds from solve start to finish");
    res_log10_ =
        reg.histogram(p + "residual_log10", "per-iteration log10(residual)",
                      metrics::Registry::log10_buckets());
    part_nnz_ = reg.gauge(
        p + "partition_nnz",
        "1 when the last solve's system matrix ran over the nnz-balanced "
        "row split (DESIGN.md section 12), 0 for the equal row split");
    fused_fraction_ = reg.gauge(
        p + "fused_fraction",
        "fraction of the last solve's original launches that were folded "
        "into fused launches (0 with fusion off; DESIGN.md section 13)");
    solves_.inc();
    t0_ = rt.sim_time();
    base_applied_ = rt.launches_applied();
    base_fused_ = rt.fused_participants();
    base_eliminated_ = rt.fused_eliminated();
  }

  /// Record the system matrix's effective row-split strategy so convergence
  /// telemetry can be correlated with the partitioning it ran under.
  void matrix(const sparse::CsrMatrix& A) {
    part_nnz_.set(
        A.partition_strategy() == rt::PartitionStrategy::Nnz ? 1.0 : 0.0);
  }

  /// Record one iteration's residual (the solve's convergence history).
  /// Feeds the diag flight recorder (stable SolverIter event) and the
  /// divergence guard: both run on the sequential control path against
  /// bit-identical residuals, so neither perturbs determinism.
  void iteration(double residual) {
    res_log10_.observe(residual > 0 ? std::log10(residual) : -16.0);
    const long it = it_++;
    auto& fr = rt_.flight();
    if (fr.enabled()) {
      fr.record(diag::EventKind::SolverIter, scope_name_, it, 0, residual);
      fr.progress();
    }
    guard_.observe(static_cast<int>(it), residual);
  }

  /// Stamp the final outcome; call once before returning the result.
  void finish(const SolveResult& res) {
    iters_.inc(static_cast<double>(res.iterations));
    residual_.set(res.residual);
    converged_.set(res.converged ? 1.0 : 0.0);
    time_to_tol_.set(rt_.sim_time() - t0_);
    // Fused fraction: of the original launches this solve issued (applied
    // after fusion + eliminated), how many were folded into fused launches.
    const double applied =
        static_cast<double>(rt_.launches_applied() - base_applied_);
    const double fused =
        static_cast<double>(rt_.fused_participants() - base_fused_);
    const double eliminated =
        static_cast<double>(rt_.fused_eliminated() - base_eliminated_);
    const double issued = applied + eliminated;
    fused_fraction_.set(issued > 0 ? fused / issued : 0.0);
  }

 private:
  rt::Runtime& rt_;
  rt::ProvenanceScope scope_;
  const char* scope_name_;
  diag::DivergenceGuard guard_;
  long it_{0};
  double t0_{0};
  long base_applied_{0}, base_fused_{0}, base_eliminated_{0};
  metrics::Counter solves_, iters_;
  metrics::Gauge residual_, converged_, time_to_tol_, part_nnz_, fused_fraction_;
  metrics::Histogram res_log10_;
};

}  // namespace

SolveResult cg(const sparse::CsrMatrix& A, const DArray& b, double tol, int maxiter,
               const Precond& M, const CheckpointPolicy& ckpt) {
  rt::Runtime& rt = A.runtime();
  Telemetry tel(rt, "cg");
  tel.matrix(A);
  coord_t n = A.rows();
  DArray x = DArray::zeros(rt, n);
  DArray r = b.copy();
  DArray z = M ? M(r) : r.copy();
  DArray p = z.copy();
  Scalar rz = r.dot(z);
  double bnorm = b.norm().value;
  if (bnorm == 0) bnorm = 1;

  SolveResult res;
  {
    double r0 = r.norm().value;
    if (r0 / bnorm < tol) {
      res.converged = true;
      res.residual = r0;
      res.x = x;
      tel.finish(res);
      return res;
    }
  }
  // {x, r, p} plus the rz recurrence and the iteration counter pin the
  // whole remaining solve (z is recomputed in-loop when preconditioned).
  std::optional<rt::Checkpoint> snap;
  int restores_left = kMaxRestores;
  auto roll_back = [&]() {
    --restores_left;
    (void)rt.consume_node_loss();  // the rollback handles any pending loss
    double t = rt.restore(*snap);
    rz = {snap->scalar("rz"), t};
    res.residual = snap->scalar("rnorm");
    return static_cast<int>(snap->scalar("it"));
  };
  int it = 0;
  while (it < maxiter) {
    if (ckpt.every > 0) {
      if (rt.consume_node_loss() || rt.store_poisoned(x.store()) ||
          rt.store_poisoned(r.store()) || rt.store_poisoned(p.store())) {
        if (!snap || restores_left <= 0) break;  // unrecoverable
        it = roll_back();
      }
      // Residual replacement (Recover): at the checkpoint cadence compare the
      // recursive residual against the true ‖b − Ax‖. Drift beyond rounding
      // means corruption escaped the checksum layers, so rewind to the last
      // snapshot instead of polishing tainted recurrences.
      if (rt.options().integrity == rt::Integrity::Recover && it > 0 &&
          it % ckpt.every == 0 && snap &&
          static_cast<int>(snap->scalar("it")) != it) {
        bool rr_ok = true;
        double tn = b.sub(checked_spmv(A, x, rr_ok)).norm().value;
        if (!rr_ok || std::fabs(tn - res.residual) >
                          kRrDriftRtol * std::max({tn, res.residual, tol * bnorm})) {
          if (restores_left <= 0) break;  // unrecoverable
          it = roll_back();
        }
      }
      if (it % ckpt.every == 0 &&
          (!snap || static_cast<int>(snap->scalar("it")) != it)) {
        rt::Checkpoint c = rt.checkpoint({x.store(), r.store(), p.store()});
        c.set_scalar("rz", rz.value);
        c.set_scalar("it", it);
        c.set_scalar("rnorm", res.residual);
        snap = std::move(c);
      }
    }
    bool abft_ok = true;
    DArray Ap = checked_spmv(A, p, abft_ok);
    if (!abft_ok) {
      // Recover with retries exhausted: fall back to the snapshot. Detect:
      // abort unconverged — the product is known corrupt.
      if (rt.options().integrity == rt::Integrity::Recover && ckpt.every > 0 &&
          snap && restores_left > 0) {
        it = roll_back();
        continue;
      }
      break;
    }
    Scalar pAp = p.dot(Ap);
    Scalar alpha = fdiv(rz, pAp);
    x.axpy(alpha, p);
    r.axpy(fneg(alpha), Ap);
    Scalar rnorm = r.norm();
    res.iterations = it + 1;
    res.residual = rnorm.value;
    tel.iteration(rnorm.value);
    if (rnorm.poisoned) {
      // Exhausted task retries mid-iteration: replay from the snapshot.
      if (ckpt.every > 0 && snap && restores_left > 0) {
        it = roll_back();
        continue;
      }
      break;  // unrecoverable
    }
    if (rnorm.value / bnorm < tol) {
      // A loss that spared r may still have taken pieces of x.
      if (rt.consume_node_loss() || rt.store_poisoned(x.store())) {
        if (ckpt.every > 0 && snap && restores_left > 0) {
          it = roll_back();
          continue;
        }
        break;  // unrecoverable: converged stays false
      }
      res.converged = true;
      break;
    }
    if (M) z = M(r);
    Scalar rz_new = M ? r.dot(z) : Scalar{rnorm.value * rnorm.value, rnorm.ready};
    Scalar beta = fdiv(rz_new, rz);
    if (M) {
      p.xpay(beta, z);  // p = z + beta p
    } else {
      p.xpay(beta, r);  // unpreconditioned: z == r
    }
    rz = rz_new;
    ++it;
  }
  res.x = x;
  tel.finish(res);
  return res;
}

SolveResult cgs(const sparse::CsrMatrix& A, const DArray& b, double tol, int maxiter) {
  rt::Runtime& rt = A.runtime();
  Telemetry tel(rt, "cgs");
  tel.matrix(A);
  coord_t n = A.rows();
  DArray x = DArray::zeros(rt, n);
  DArray r = b.copy();
  DArray rtilde = r.copy();
  DArray u = r.copy();
  DArray p = r.copy();
  Scalar rho = rtilde.dot(r);
  double bnorm = b.norm().value;
  if (bnorm == 0) bnorm = 1;

  SolveResult res;
  {
    double r0 = r.norm().value;
    if (r0 / bnorm < tol) {
      res.converged = true;
      res.residual = r0;
      res.x = x;
      tel.finish(res);
      return res;
    }
  }
  for (int it = 0; it < maxiter; ++it) {
    DArray Ap = A.spmv(p);
    Scalar sigma = rtilde.dot(Ap);
    Scalar alpha = fdiv(rho, sigma);
    DArray q = u.copy();
    q.axpy(fneg(alpha), Ap);  // q = u - alpha A p
    DArray uq = u.add(q);
    x.axpy(alpha, uq);
    DArray Auq = A.spmv(uq);
    r.axpy(fneg(alpha), Auq);
    Scalar rnorm = r.norm();
    res.iterations = it + 1;
    res.residual = rnorm.value;
    tel.iteration(rnorm.value);
    if (rnorm.value / bnorm < tol) {
      res.converged = true;
      break;
    }
    Scalar rho_new = rtilde.dot(r);
    Scalar beta = fdiv(rho_new, rho);
    u = r.copy();
    u.axpy(beta, q);  // u = r + beta q
    // p = u + beta (q + beta p)
    DArray tmp = q.copy();
    tmp.axpy(beta, p);
    p = u.copy();
    p.axpy(beta, tmp);
    rho = rho_new;
  }
  res.x = x;
  tel.finish(res);
  return res;
}

SolveResult bicg(const sparse::CsrMatrix& A, const DArray& b, double tol, int maxiter) {
  rt::Runtime& rt = A.runtime();
  Telemetry tel(rt, "bicg");
  tel.matrix(A);
  coord_t n = A.rows();
  sparse::CsrMatrix At = A.transpose();
  DArray x = DArray::zeros(rt, n);
  DArray r = b.copy();
  DArray rtilde = r.copy();
  DArray p = r.copy();
  DArray ptilde = r.copy();
  Scalar rho = rtilde.dot(r);
  double bnorm = b.norm().value;
  if (bnorm == 0) bnorm = 1;

  SolveResult res;
  {
    double r0 = r.norm().value;
    if (r0 / bnorm < tol) {
      res.converged = true;
      res.residual = r0;
      res.x = x;
      tel.finish(res);
      return res;
    }
  }
  for (int it = 0; it < maxiter; ++it) {
    DArray Ap = A.spmv(p);
    DArray Atp = At.spmv(ptilde);
    Scalar denom = ptilde.dot(Ap);
    Scalar alpha = fdiv(rho, denom);
    x.axpy(alpha, p);
    r.axpy(fneg(alpha), Ap);
    rtilde.axpy(fneg(alpha), Atp);
    Scalar rnorm = r.norm();
    res.iterations = it + 1;
    res.residual = rnorm.value;
    tel.iteration(rnorm.value);
    if (rnorm.value / bnorm < tol) {
      res.converged = true;
      break;
    }
    Scalar rho_new = rtilde.dot(r);
    Scalar beta = fdiv(rho_new, rho);
    p.xpay(beta, r);
    ptilde.xpay(beta, rtilde);
    rho = rho_new;
  }
  res.x = x;
  tel.finish(res);
  return res;
}

SolveResult bicgstab(const sparse::CsrMatrix& A, const DArray& b, double tol,
                     int maxiter) {
  rt::Runtime& rt = A.runtime();
  Telemetry tel(rt, "bicgstab");
  tel.matrix(A);
  coord_t n = A.rows();
  DArray x = DArray::zeros(rt, n);
  DArray r = b.copy();
  DArray rtilde = r.copy();
  DArray p = r.copy();
  Scalar rho = rtilde.dot(r);
  double bnorm = b.norm().value;
  if (bnorm == 0) bnorm = 1;

  SolveResult res;
  {
    double r0 = r.norm().value;
    if (r0 / bnorm < tol) {
      res.converged = true;
      res.residual = r0;
      res.x = x;
      tel.finish(res);
      return res;
    }
  }
  for (int it = 0; it < maxiter; ++it) {
    DArray v = A.spmv(p);
    Scalar denom = rtilde.dot(v);
    Scalar alpha = fdiv(rho, denom);
    DArray s = r.copy();
    s.axpy(fneg(alpha), v);
    Scalar snorm = s.norm();
    if (snorm.value / bnorm < tol) {
      x.axpy(alpha, p);
      res.iterations = it + 1;
      res.residual = snorm.value;
      tel.iteration(snorm.value);
      res.converged = true;
      break;
    }
    DArray t = A.spmv(s);
    Scalar ts = t.dot(s);
    Scalar tt = t.dot(t);
    Scalar omega = fdiv(ts, tt);
    x.axpy(alpha, p);
    x.axpy(omega, s);
    r = s;
    r.axpy(fneg(omega), t);
    Scalar rnorm = r.norm();
    res.iterations = it + 1;
    res.residual = rnorm.value;
    tel.iteration(rnorm.value);
    if (rnorm.value / bnorm < tol) {
      res.converged = true;
      break;
    }
    Scalar rho_new = rtilde.dot(r);
    Scalar beta = {rho_new.value / rho.value * alpha.value / omega.value,
                   std::max({rho_new.ready, alpha.ready, omega.ready}),
                   rho_new.poisoned || alpha.poisoned || omega.poisoned};
    // p = r + beta (p - omega v)
    p.axpy(fneg(omega), v);
    p.xpay(beta, r);
    rho = rho_new;
  }
  res.x = x;
  tel.finish(res);
  return res;
}

SolveResult gmres(const sparse::CsrMatrix& A, const DArray& b, int restart,
                  double tol, int maxiter, const CheckpointPolicy& ckpt) {
  rt::Runtime& rt = A.runtime();
  Telemetry tel(rt, "gmres");
  tel.matrix(A);
  coord_t n = A.rows();
  DArray x = DArray::zeros(rt, n);
  double bnorm = b.norm().value;
  if (bnorm == 0) bnorm = 1;

  SolveResult res;
  int total_iters = 0;
  const int m = restart;

  // Only `x` carries state across outer cycles; the Arnoldi basis is
  // rebuilt every cycle, so snapshots at cycle boundaries suffice. `b` is
  // immutable but part of every replay's read set — it goes into the
  // snapshot so a node loss that takes its only copy stays recoverable.
  std::optional<rt::Checkpoint> snap;
  int restores_left = kMaxRestores;
  auto roll_back = [&]() {
    --restores_left;
    (void)rt.consume_node_loss();  // the rollback handles any pending loss
    rt.restore(*snap);
    return static_cast<int>(snap->scalar("iters"));
  };

  while (total_iters < maxiter) {
    if (ckpt.every > 0) {
      if (rt.consume_node_loss() || rt.store_poisoned(x.store())) {
        if (!snap || restores_left <= 0) break;  // unrecoverable
        total_iters = roll_back();
      }
      if (!snap ||
          total_iters - static_cast<int>(snap->scalar("iters")) >= ckpt.every) {
        rt::Checkpoint c = rt.checkpoint({x.store(), b.store()});
        c.set_scalar("iters", total_iters);
        snap = std::move(c);
      }
    }
    bool abft_ok = true;
    DArray r = b.sub(checked_spmv(A, x, abft_ok));
    Scalar rn = r.norm();
    if (rn.poisoned || !abft_ok) {
      if (ckpt.every > 0 && snap && restores_left > 0) {
        total_iters = roll_back();
        continue;
      }
      res.residual = rn.value;
      break;  // unrecoverable
    }
    double beta = rn.value;
    res.residual = beta;
    if (beta / bnorm < tol) {
      res.converged = true;
      break;
    }
    // Arnoldi basis (distributed vectors) + host-side Hessenberg/Givens.
    std::vector<DArray> V;
    V.push_back(r.scale(1.0 / beta));
    std::vector<double> H(static_cast<std::size_t>((m + 1) * m), 0.0);
    std::vector<double> cs(static_cast<std::size_t>(m), 0.0),
        sn(static_cast<std::size_t>(m), 0.0),
        g(static_cast<std::size_t>(m) + 1, 0.0);
    g[0] = beta;
    int k = 0;
    for (; k < m && total_iters < maxiter; ++k, ++total_iters) {
      DArray w = checked_spmv(A, V[static_cast<std::size_t>(k)], abft_ok);
      if (!abft_ok) break;  // corrupted Arnoldi vector: handled below
      for (int i = 0; i <= k; ++i) {
        Scalar h = w.dot(V[static_cast<std::size_t>(i)]);
        H[static_cast<std::size_t>(i * m + k)] = h.value;
        w.axpy(fneg(h), V[static_cast<std::size_t>(i)]);
      }
      double hk1 = w.norm().value;
      if (hk1 > 0) V.push_back(w.scale(1.0 / hk1));
      // Apply accumulated Givens rotations to the new column.
      double hik;
      for (int i = 0; i < k; ++i) {
        hik = H[static_cast<std::size_t>(i * m + k)];
        double hik1 = H[static_cast<std::size_t>((i + 1) * m + k)];
        H[static_cast<std::size_t>(i * m + k)] =
            cs[static_cast<std::size_t>(i)] * hik + sn[static_cast<std::size_t>(i)] * hik1;
        H[static_cast<std::size_t>((i + 1) * m + k)] =
            -sn[static_cast<std::size_t>(i)] * hik + cs[static_cast<std::size_t>(i)] * hik1;
      }
      double hkk = H[static_cast<std::size_t>(k * m + k)];
      double denom = std::sqrt(hkk * hkk + hk1 * hk1);
      if (denom == 0) denom = 1e-300;
      cs[static_cast<std::size_t>(k)] = hkk / denom;
      sn[static_cast<std::size_t>(k)] = hk1 / denom;
      H[static_cast<std::size_t>(k * m + k)] = denom;
      g[static_cast<std::size_t>(k) + 1] = -sn[static_cast<std::size_t>(k)] * g[static_cast<std::size_t>(k)];
      g[static_cast<std::size_t>(k)] = cs[static_cast<std::size_t>(k)] * g[static_cast<std::size_t>(k)];
      res.residual = std::fabs(g[static_cast<std::size_t>(k) + 1]);
      tel.iteration(res.residual);
      if (res.residual / bnorm < tol || hk1 == 0) {
        ++k;
        break;
      }
    }
    if (!abft_ok) {
      // A checksum violation inside the cycle taints the whole Krylov basis:
      // never fold it into x. Rewind to the last cycle-boundary snapshot.
      if (ckpt.every > 0 && snap && restores_left > 0) {
        total_iters = roll_back();
        continue;
      }
      break;  // unrecoverable: converged stays false
    }
    // Back-substitute y and update x += V y.
    std::vector<double> y(static_cast<std::size_t>(k), 0.0);
    for (int i = k - 1; i >= 0; --i) {
      double sum = g[static_cast<std::size_t>(i)];
      for (int j = i + 1; j < k; ++j)
        sum -= H[static_cast<std::size_t>(i * m + j)] * y[static_cast<std::size_t>(j)];
      y[static_cast<std::size_t>(i)] = sum / H[static_cast<std::size_t>(i * m + i)];
    }
    for (int i = 0; i < k; ++i)
      x.axpy(y[static_cast<std::size_t>(i)], V[static_cast<std::size_t>(i)]);
    res.iterations = total_iters;
    if (res.residual / bnorm < tol) {
      // Recompute the true residual before declaring victory. The Hessenberg
      // recurrence runs on host scalars, so a node loss mid-cycle surfaces
      // only here — as poison on the recomputed residual or on x itself.
      Scalar true_res = b.sub(checked_spmv(A, x, abft_ok)).norm();
      if (true_res.poisoned || !abft_ok || rt.consume_node_loss() ||
          rt.store_poisoned(x.store())) {
        if (ckpt.every > 0 && snap && restores_left > 0) {
          total_iters = roll_back();
          continue;
        }
        res.residual = true_res.value;
        break;  // unrecoverable: converged stays false
      }
      res.residual = true_res.value;
      if (true_res.value / bnorm < tol * 10) {
        res.converged = true;
        break;
      }
      // Under Recover, a Givens estimate that met tol while the true residual
      // did not means corruption slipped past the checksum layers mid-cycle:
      // rewind rather than polish a tainted x.
      if (rt.options().integrity == rt::Integrity::Recover && ckpt.every > 0 &&
          snap && restores_left > 0) {
        total_iters = roll_back();
        continue;
      }
    }
  }
  res.iterations = total_iters;
  res.x = x;
  tel.finish(res);
  return res;
}

EigenResult power_iteration(const sparse::CsrMatrix& A, int iters, std::uint64_t seed) {
  rt::Runtime& rt = A.runtime();
  DArray x = DArray::random(rt, A.rows(), seed);
  for (int i = 0; i < iters; ++i) {
    x = A.spmv(x);
    Scalar nrm = x.norm();
    x.iscale({1.0 / nrm.value, nrm.ready, nrm.poisoned});
  }
  EigenResult r;
  r.iterations = iters;
  r.eigenvalue = x.dot(A.spmv(x)).value;
  r.eigenvector = x;
  return r;
}

}  // namespace legate::solve

// Figure 12 (table): sparse matrix factorization with bias on the
// MovieLens-profile datasets — training throughput (samples/s) and minimum
// required resources per dataset.
//
// Reproduced effects (Section 6.2):
//  * CuPy is markedly faster on ML-10M (Legate's per-task overheads on the
//    small mini-batch ops),
//  * at ML-25M CuPy runs close to the single-GPU memory limit and its
//    cuSPARSE SDDMM dominates, while Legate simply adds a GPU,
//  * CuPy cannot fit ML-50M/100M at all; Legate handles them by adding
//    GPUs. The per-rating device footprint (dataset copies + the training
//    pipeline's staged sample embeddings) is calibrated to the paper's two
//    capacity observations: ML-25M nearly fills one 16 GB V100, ML-50M
//    exceeds it. Minimum-GPU counts are reported at true GPU granularity;
//    the paper reports whole-node allocations (see EXPERIMENTS.md).
#include "common.h"

#include <cmath>

#include "apps/workloads.h"
#include "baselines/ref/ref.h"
#include "sparse/formats.h"

namespace {

using namespace legate;

constexpr double kS = 10.0;        ///< dataset sample factor (nnz 1/10)
constexpr coord_t kFactors = 64;   ///< latent dimension
constexpr int kSteps = 3;          ///< timed SGD steps
/// Device bytes per (modeled) rating: CSR + COO copy + shuffle state +
/// staged sample embeddings. Calibrated to the paper's capacity anchors.
constexpr double kBytesPerRating = 544.0;

struct Sample {
  apps::RatingsDataset data;
  coord_t batch;           // real samples per step
  double modeled_samples;  // samples per step on the modeled machine
  double staging_real;     // bytes/kS of modeled pipeline residency
};

Sample make_sample(const apps::MovieLensProfile& prof) {
  Sample s;
  // Users, items and ratings all shrink by kS, so the factor matrices and
  // the dataset are modeled at exactly full size under cost_scale = kS.
  // (Density rises by kS but stays sparse, and every cost is nnz-linear.)
  s.data = apps::synthetic_movielens(
      static_cast<coord_t>(prof.users / kS),
      static_cast<coord_t>(prof.items / kS),
      static_cast<coord_t>(static_cast<double>(prof.nnz) / kS), 42);
  s.batch = std::max<coord_t>(2048, s.data.nnz() / 256);
  s.modeled_samples = static_cast<double>(s.batch) * kS;
  // Residency follows the *profile* nnz (the functional sample loses a few
  // percent to deduplication, the modeled dataset must not).
  s.staging_real = static_cast<double>(prof.nnz) * kBytesPerRating / kS;
  return s;
}

sparse::CsrMatrix make_batch(rt::Runtime& rt, const apps::RatingsDataset& d,
                             coord_t offset, coord_t count) {
  std::vector<coord_t> indptr{0}, indices;
  std::vector<double> vals;
  for (coord_t u = 0; u < d.users; ++u) {
    for (coord_t j = d.indptr[static_cast<std::size_t>(u)];
         j < d.indptr[static_cast<std::size_t>(u) + 1]; ++j) {
      if (j >= offset && j < offset + count) {
        indices.push_back(d.indices[static_cast<std::size_t>(j)]);
        vals.push_back(d.ratings[static_cast<std::size_t>(j)]);
      }
    }
    indptr.push_back(static_cast<coord_t>(indices.size()));
  }
  return sparse::CsrMatrix::from_host(rt, d.users, d.items, indptr, indices, vals);
}

/// One Legate training run; returns samples/s. Throws OutOfMemoryError when
/// the configuration does not fit.
double run_legate(const Sample& s, int gpus, const std::string& point = {}) {
  sim::PerfParams pp;
  sim::Machine machine = sim::Machine::gpus(gpus, pp);
  rt::Runtime runtime(machine);
  runtime.engine().set_cost_scale(kS);
  // Device residency of the training pipeline, spread across framebuffers.
  for (const auto& proc : machine.procs())
    runtime.engine().alloc_bytes(proc.mem, s.staging_real / gpus);

  auto U = dense::DArray::random2d(runtime, s.data.users, kFactors, 1);
  auto V = dense::DArray::random2d(runtime, s.data.items, kFactors, 2);
  auto bu = dense::DArray::zeros(runtime, s.data.users);
  auto bi = dense::DArray::zeros(runtime, s.data.items);
  double lr = 1e-3;

  auto step = [&](coord_t off) {
    auto batch = make_batch(runtime, s.data, off, s.batch);
    auto mask = batch.power_values(0.0);
    auto Vt = V.transpose();  // the dense all-to-all the paper calls out
    auto pred = mask.sddmm(U, Vt)
                    .add(mask.scale_rows(bu))
                    .add(mask.scale_cols(bi))
                    .add(mask.scale(3.0));
    auto err = pred.sub(batch);
    auto dU = err.spmm(V);
    auto dV = err.transpose().spmm(U);
    auto dbu = err.sum(1);
    auto dbi = err.sum(0);
    U.axpy(-lr, dU);
    V.axpy(-lr, dV);
    bu.axpy(-lr, dbu);
    bi.axpy(-lr, dbi);
  };
  step(0);  // warmup: distributes factors, reaches allocation steady state
  lsr_bench::profile_begin(runtime.engine(), point);
  auto mbase = lsr_bench::metrics_begin(runtime, point);
  double t0 = runtime.sim_time();
  for (int k = 1; k <= kSteps; ++k) step(k * s.batch);
  double dt = (runtime.sim_time() - t0) / kSteps;
  lsr_bench::metrics_end(runtime, point, mbase, dt);
  lsr_bench::profile_end(runtime.engine(), point);
  return s.modeled_samples / dt;
}

/// CuPy training run; throws OutOfMemoryError on the larger datasets.
double run_cupy(const Sample& s) {
  using baselines::ref::RefCsr;
  using baselines::ref::RefVector;
  sim::PerfParams pp;
  baselines::ref::RefContext ctx(baselines::ref::Device::CupyGpu, pp);
  ctx.set_cost_scale(kS);
  ctx.alloc(s.staging_real);

  coord_t users = s.data.users, items = s.data.items;
  std::vector<double> U(static_cast<std::size_t>(users * kFactors), 0.05);
  std::vector<double> V(static_cast<std::size_t>(items * kFactors), 0.05);
  ctx.alloc(static_cast<double>(U.size() + V.size()) * 8.0);

  auto make_ref_batch = [&](coord_t off) {
    std::vector<coord_t> indptr{0}, indices;
    std::vector<double> vals;
    for (coord_t u = 0; u < users; ++u) {
      for (coord_t j = s.data.indptr[static_cast<std::size_t>(u)];
           j < s.data.indptr[static_cast<std::size_t>(u) + 1]; ++j) {
        if (j >= off && j < off + s.batch) {
          indices.push_back(s.data.indices[static_cast<std::size_t>(j)]);
          vals.push_back(s.data.ratings[static_cast<std::size_t>(j)]);
        }
      }
      indptr.push_back(static_cast<coord_t>(indices.size()));
    }
    return RefCsr(ctx, users, items, indptr, indices, vals);
  };

  auto step = [&](coord_t off) {
    RefCsr batch = make_ref_batch(off);
    // V^T materialization + SDDMM (cuSPARSE kernel: slow) + SpMM gradients.
    std::vector<double> Vt(static_cast<std::size_t>(kFactors * items));
    for (coord_t i = 0; i < items; ++i)
      for (coord_t l = 0; l < kFactors; ++l)
        Vt[static_cast<std::size_t>(l * items + i)] =
            V[static_cast<std::size_t>(i * kFactors + l)];
    ctx.charge(static_cast<double>(V.size()) * 16.0, 0);
    RefCsr err = batch.sddmm(U, Vt, kFactors);
    // CuPy cannot fuse: the bias terms and the subtraction are four more
    // library ops, each a full pass over the batch values.
    {
      double n = static_cast<double>(err.nnz());
      std::vector<double> vals = err.values();
      const auto& iptr = err.indptr();
      const auto& idx = err.indices();
      for (coord_t u = 0; u < users; ++u)
        for (coord_t j = iptr[static_cast<std::size_t>(u)];
             j < iptr[static_cast<std::size_t>(u) + 1]; ++j)
          vals[static_cast<std::size_t>(j)] += 3.0;
      (void)idx;
      for (int pass = 0; pass < 4; ++pass) ctx.charge(n * 40.0, n);
      err = RefCsr(ctx, users, items, iptr, idx, vals);
    }
    auto dU = err.spmm(V, kFactors);
    auto dV = err.transpose().spmm(U, kFactors);
    for (std::size_t i = 0; i < U.size(); ++i) U[i] -= 1e-3 * dU[i];
    for (std::size_t i = 0; i < V.size(); ++i) V[i] -= 1e-3 * dV[i];
    ctx.charge(static_cast<double>(U.size() + V.size()) * 24.0,
               static_cast<double>(U.size() + V.size()));
  };
  step(0);
  double t0 = ctx.now();
  for (int k = 1; k <= kSteps; ++k) step(k * s.batch);
  double dt = (ctx.now() - t0) / kSteps;
  return s.modeled_samples / dt;
}

void register_all() {
  using lsr_bench::register_oom;
  using lsr_bench::register_point;
  for (const auto& prof : apps::movielens_profiles()) {
    // Shared pointer so the (expensive) dataset is built once per profile.
    auto sample = std::make_shared<Sample>(make_sample(prof));
    std::string base = std::string("Fig12/Factorization/") + prof.name;

    // CuPy: single GPU or bust.
    try {
      double thr = run_cupy(*sample);
      (void)thr;
      register_point(base + "/CuPy-1GPU", 1, [sample] { return 1.0 / run_cupy(*sample); });
    } catch (const OutOfMemoryError&) {
      register_oom(base + "/CuPy-OOM", 1);
    }

    // Legate: smallest GPU count that fits.
    for (int gpus : {1, 2, 3, 4, 6, 8, 12, 16, 24}) {
      try {
        double thr = run_legate(*sample, gpus);
        (void)thr;
        std::string pname = base + "/Legate-minGPUs";
        register_point(pname, gpus, [sample, gpus, pname] {
          return 1.0 / run_legate(*sample, gpus, pname);
        });
        break;
      } catch (const OutOfMemoryError&) {
        continue;
      }
    }
    // The paper ran ML-100M on 12 GPUs (two full nodes), which pushes the
    // gradient's dense transposes onto Infiniband — the throughput cliff it
    // reports. Register that configuration too.
    if (std::string(prof.name) == "ML-100M") {
      std::string pname = base + "/Legate-2nodes";
      register_point(pname, 12,
                     [sample, pname] { return 1.0 / run_legate(*sample, 12, pname); });
    }
  }
}

const int registered = (register_all(), 0);

}  // namespace

LSR_BENCH_MAIN();

// Figure 8: weak scaling of an SpMV microbenchmark on banded matrices.
//
// Series (as in the paper): Legate-GPU, Legate-CPU, PETSc-GPU, PETSc-CPU,
// CuPy (1 GPU), SciPy (problem keeps growing, single thread). Banded SpMV is
// embarrassingly parallel: Legate and PETSc weak-scale flat, Legate pays a
// small global-CSR reshape penalty relative to PETSc/CuPy (Section 3), and
// SciPy's throughput decays as 1/P.
#include "common.h"

#include "apps/workloads.h"
#include "baselines/petsc/petsc.h"
#include "baselines/ref/ref.h"
#include "sparse/csr.h"

namespace {

using namespace legate;

// Functional sample: 40k rows per processor, half-bandwidth 5 (11 nnz/row);
// cost_scale 64 models 2.56M rows per processor, the regime where SpMV is
// bandwidth-bound on a V100 like the paper's runs.
constexpr coord_t kRowsPerProc = 40000;
constexpr coord_t kHalfBand = 5;
constexpr double kScale = 64.0;
constexpr int kIters = 5;

double run_legate(sim::ProcKind kind, int procs, const std::string& point) {
  sim::PerfParams pp;
  sim::Machine machine = kind == sim::ProcKind::GPU ? sim::Machine::gpus(procs, pp)
                                                    : sim::Machine::sockets(procs, pp);
  rt::RuntimeOptions opts;
  opts.exec_threads = lsr_bench::bench_threads();
  opts.partition = lsr_bench::bench_partition();
  opts.fusion = lsr_bench::bench_fusion();
  opts.comm = lsr_bench::bench_comm();
  rt::Runtime runtime(machine, opts);
  runtime.engine().set_cost_scale(kScale);
  apps::HostProblem prob = apps::banded_matrix(kRowsPerProc * procs, kHalfBand);
  auto A = sparse::CsrMatrix::from_host(runtime, prob.rows, prob.cols, prob.indptr,
                                        prob.indices, prob.values);
  auto x = dense::DArray::full(runtime, prob.rows, 1.0);
  auto warm = A.spmv(x);  // first iteration pays startup copies
  lsr_bench::profile_begin(runtime.engine(), point);
  auto mbase = lsr_bench::metrics_begin(runtime, point);
  double t0 = runtime.sim_time();
  for (int i = 0; i < kIters; ++i) {
    auto y = A.spmv(x);
    benchmark::DoNotOptimize(y.store().span<double>().data());
  }
  double sim_per_iter = (runtime.sim_time() - t0) / kIters;
  lsr_bench::metrics_end(runtime, point, mbase, sim_per_iter);
  lsr_bench::profile_end(runtime.engine(), point);
  lsr_bench::note_fusion(point, runtime);
  return sim_per_iter;
}

// Partition-strategy sweep: a Zipf-skewed matrix (power-law head, row 0
// holds a few percent of all nonzeros by itself) where the equal row split
// piles the head onto color 0. Both strategies run on the same matrix so
// BENCH_spmv_skew.json records the rows-vs-nnz gap directly. Fewer rows per
// processor than Fig8: the head row dominates regardless of scale.
constexpr coord_t kSkewRowsPerProc = 20000;
constexpr coord_t kSkewAvgNnz = 8;
constexpr double kSkewS = 1.05;

double run_skew(int procs, rt::PartitionStrategy strat, const std::string& point) {
  sim::PerfParams pp;
  rt::RuntimeOptions opts;
  opts.exec_threads = lsr_bench::bench_threads();
  opts.partition = strat;
  opts.comm = lsr_bench::bench_comm();
  rt::Runtime runtime(sim::Machine::gpus(procs, pp), opts);
  runtime.engine().set_cost_scale(kScale);
  apps::HostProblem prob =
      apps::zipf_matrix(kSkewRowsPerProc * procs, kSkewS, kSkewAvgNnz, 97);
  auto A = sparse::CsrMatrix::from_host(runtime, prob.rows, prob.cols, prob.indptr,
                                        prob.indices, prob.values);
  auto x = dense::DArray::full(runtime, prob.rows, 1.0);
  auto warm = A.spmv(x);
  lsr_bench::profile_begin(runtime.engine(), point);
  auto mbase = lsr_bench::metrics_begin(runtime, point);
  double t0 = runtime.sim_time();
  for (int i = 0; i < kIters; ++i) {
    auto y = A.spmv(x);
    benchmark::DoNotOptimize(y.store().span<double>().data());
  }
  double sim_per_iter = (runtime.sim_time() - t0) / kIters;
  lsr_bench::metrics_end(runtime, point, mbase, sim_per_iter);
  lsr_bench::profile_end(runtime.engine(), point);
  return sim_per_iter;
}

// Communication-planner sweep: the same Zipf-skewed matrix under nnz-balanced
// partitioning, but with x *updated every iteration* so each SpMV must
// re-gather its skewed column footprint — a comm-bound steady state where the
// exchange structure repeats while the data is always stale. Per comm mode
// this records the plan-cache hit rate, the coalesced message count, and the
// per-link byte split; off vs plan shows the message-coalescing win, plan vs
// overlap the interior/boundary compute-comm overlap win.
double run_comm(int procs, comm::Mode mode, const std::string& point) {
  sim::PerfParams pp;
  rt::RuntimeOptions opts;
  opts.exec_threads = lsr_bench::bench_threads();
  opts.partition = rt::PartitionStrategy::Nnz;
  opts.comm = mode;
  rt::Runtime runtime(sim::Machine::gpus(procs, pp), opts);
  runtime.engine().set_cost_scale(kScale);
  apps::HostProblem prob =
      apps::zipf_matrix(kSkewRowsPerProc * procs, kSkewS, kSkewAvgNnz, 97);
  auto A = sparse::CsrMatrix::from_host(runtime, prob.rows, prob.cols, prob.indptr,
                                        prob.indices, prob.values);
  auto x = dense::DArray::full(runtime, prob.rows, 1.0);
  {
    auto warm = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, warm);
  }
  lsr_bench::profile_begin(runtime.engine(), point);
  auto mbase = lsr_bench::metrics_begin(runtime, point);
  double t0 = runtime.sim_time();
  for (int i = 0; i < kIters; ++i) {
    auto y = A.spmv(x);
    x.axpy(dense::Scalar{1e-9}, y);  // dirty x: next spmv re-gathers it
    benchmark::DoNotOptimize(y.store().span<double>().data());
  }
  double sim_per_iter = (runtime.sim_time() - t0) / kIters;
  lsr_bench::metrics_end(runtime, point, mbase, sim_per_iter);
  lsr_bench::profile_end(runtime.engine(), point);
  return sim_per_iter;
}

double run_petsc(sim::ProcKind kind, int procs) {
  sim::PerfParams pp;
  baselines::mpisim::MpiSim sim(kind, procs, pp);
  sim.engine().set_cost_scale(kScale);
  apps::HostProblem prob = apps::banded_matrix(kRowsPerProc * procs, kHalfBand);
  baselines::petsc::Mat A(sim, prob.rows, prob.cols, prob.indptr, prob.indices,
                          prob.values);
  baselines::petsc::Vec x(sim, std::vector<double>(
                                   static_cast<std::size_t>(prob.rows), 1.0));
  baselines::petsc::Vec y(sim, prob.rows);
  A.mult(x, y);  // warmup
  double t0 = sim.makespan();
  for (int i = 0; i < kIters; ++i) A.mult(x, y);
  return (sim.makespan() - t0) / kIters;
}

double run_ref(baselines::ref::Device dev, int scale_procs) {
  sim::PerfParams pp;
  baselines::ref::RefContext ctx(dev, pp);
  ctx.set_cost_scale(kScale);
  apps::HostProblem prob = apps::banded_matrix(kRowsPerProc * scale_procs, kHalfBand);
  baselines::ref::RefCsr A(ctx, prob.rows, prob.cols, prob.indptr, prob.indices,
                           prob.values);
  baselines::ref::RefVector x(ctx, prob.rows, 1.0);
  double t0 = ctx.now();
  for (int i = 0; i < kIters; ++i) {
    auto y = A.spmv(x);
    benchmark::DoNotOptimize(y.data().data());
  }
  return (ctx.now() - t0) / kIters;
}

void register_all() {
  using lsr_bench::register_point;
  for (int p : lsr_bench::gpu_points()) {
    std::string name = "Fig8/SpMV/Legate-GPU/" + std::to_string(p);
    register_point(name, p,
                   [p, name] { return run_legate(sim::ProcKind::GPU, p, name); });
    register_point("Fig8/SpMV/PETSc-GPU/" + std::to_string(p), p,
                   [p] { return run_petsc(sim::ProcKind::GPU, p); });
  }
  for (int p : lsr_bench::socket_points()) {
    std::string name = "Fig8/SpMV/Legate-CPU/" + std::to_string(p);
    register_point(name, p,
                   [p, name] { return run_legate(sim::ProcKind::CPU, p, name); });
    register_point("Fig8/SpMV/PETSc-CPU/" + std::to_string(p), p,
                   [p] { return run_petsc(sim::ProcKind::CPU, p); });
    // SciPy runs the growing problem on one thread: no weak scaling.
    register_point("Fig8/SpMV/SciPy/" + std::to_string(p), p, [p] {
      return run_ref(baselines::ref::Device::ScipyCpu, p);
    });
  }
  register_point("Fig8/SpMV/CuPy-1GPU/1", 1,
                 [] { return run_ref(baselines::ref::Device::CupyGpu, 1); });
  // Skew points deliberately avoid the "Legate" substring so the existing
  // --benchmark_filter=Legate baseline runs are unaffected; CI selects them
  // with --benchmark_filter=Skew into BENCH_spmv_skew.json.
  for (int p : {4, 12, 48}) {
    for (rt::PartitionStrategy strat :
         {rt::PartitionStrategy::Rows, rt::PartitionStrategy::Nnz}) {
      std::string name = std::string("Skew/SpMV/") +
                         rt::partition_strategy_name(strat) + "/" +
                         std::to_string(p);
      register_point(name, p,
                     [p, strat, name] { return run_skew(p, strat, name); });
    }
  }
  // Comm sweep: CI selects these with --benchmark_filter=Comm into
  // BENCH_spmv_comm.json (gated by scripts/bench_compare.py).
  for (int p : {12, 48}) {
    for (comm::Mode mode : {comm::Mode::Off, comm::Mode::Plan, comm::Mode::Overlap}) {
      std::string name = std::string("Comm/SpMV/") + comm::comm_mode_name(mode) +
                         "/" + std::to_string(p);
      register_point(name, p,
                     [p, mode, name] { return run_comm(p, mode, name); });
    }
  }
}

const int registered = (register_all(), 0);

}  // namespace

LSR_BENCH_MAIN();

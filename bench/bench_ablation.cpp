// Ablation benchmarks for the design decisions the paper motivates:
//  * allocation coalescing + out-of-scope reuse (Section 4.2 / Fig. 5),
//  * key-partition reuse in the constraint solver (Section 4.1),
//  * the global-CSR reshape penalty (Section 3),
//  * Legion's all-reduce overhead vs an MPI-style tree (Fig. 9 footnote).
#include "common.h"

#include <cmath>

#include "apps/workloads.h"
#include "solve/krylov.h"
#include "sparse/csr.h"

namespace {

using namespace legate;

constexpr double kScale = 64.0;

/// Power iteration (x = A@x; x /= ||x||) on a banded matrix: the Fig. 5
/// workload. Returns seconds/iteration; exports copied bytes as counters.
void power_iteration_ablation(benchmark::State& state, bool coalescing,
                              const std::string& point) {
  sim::PerfParams pp;
  sim::Machine machine = sim::Machine::gpus(6, pp);
  rt::RuntimeOptions opts;
  opts.coalescing = coalescing;
  rt::Runtime runtime(machine, opts);
  runtime.engine().set_cost_scale(kScale);
  apps::HostProblem prob = apps::banded_matrix(240000, 5);
  auto A = sparse::CsrMatrix::from_host(runtime, prob.rows, prob.cols, prob.indptr,
                                        prob.indices, prob.values);
  auto x = dense::DArray::random(runtime, prob.rows, 3);
  for (int i = 0; i < 4; ++i) {  // warmup to steady state
    x = A.spmv(x);
    auto n = x.norm();
    x.iscale({1.0 / n.value, n.ready});
  }
  lsr_bench::profile_begin(runtime.engine(), point);
  auto mbase = lsr_bench::metrics_begin(runtime, point);
  double t0 = runtime.sim_time();
  auto st0 = runtime.engine().stats();
  constexpr int kIters = 10;
  for (int i = 0; i < kIters; ++i) {
    x = A.spmv(x);
    auto n = x.norm();
    x.iscale({1.0 / n.value, n.ready});
  }
  double sec = (runtime.sim_time() - t0) / kIters;
  lsr_bench::metrics_end(runtime, point, mbase, sec);
  lsr_bench::profile_end(runtime.engine(), point);
  for (auto _ : state) state.SetIterationTime(sec);
  const auto& st = runtime.engine().stats();
  state.counters["iters_per_s"] = 1.0 / sec;
  state.counters["copied_MB_per_iter"] =
      (st.bytes_intra + st.bytes_nvlink + st.bytes_ib - st0.bytes_intra -
       st0.bytes_nvlink - st0.bytes_ib) /
      1e6 / kIters;
}

/// Repeated aligned element-wise chains: with reuse the solver re-partitions
/// nothing after the first launch.
void partition_reuse_ablation(benchmark::State& state, bool reuse,
                              const std::string& point) {
  sim::PerfParams pp;
  sim::Machine machine = sim::Machine::gpus(6, pp);
  rt::RuntimeOptions opts;
  opts.partition_reuse = reuse;
  rt::Runtime runtime(machine, opts);
  runtime.engine().set_cost_scale(kScale);
  auto a = dense::DArray::full(runtime, 1 << 20, 1.0);
  auto b = dense::DArray::full(runtime, 1 << 20, 2.0);
  a.iadd(b);  // warmup
  long parts0 = runtime.partitions_created();
  lsr_bench::profile_begin(runtime.engine(), point);
  auto mbase = lsr_bench::metrics_begin(runtime, point);
  double t0 = runtime.sim_time();
  constexpr int kIters = 50;
  for (int i = 0; i < kIters; ++i) a.iadd(b);
  double sec = (runtime.sim_time() - t0) / kIters;
  lsr_bench::metrics_end(runtime, point, mbase, sec);
  lsr_bench::profile_end(runtime.engine(), point);
  for (auto _ : state) state.SetIterationTime(sec);
  state.counters["iters_per_s"] = 1.0 / sec;
  state.counters["partitions_per_iter"] =
      static_cast<double>(runtime.partitions_created() - parts0) / kIters;
}

/// SpMV with and without the Section-3 local reshape cost.
void reshape_ablation(benchmark::State& state, bool reshape,
                      const std::string& point) {
  sim::PerfParams pp;
  sim::Machine machine = sim::Machine::gpus(6, pp);
  rt::RuntimeOptions opts;
  opts.model_reshape = reshape;
  rt::Runtime runtime(machine, opts);
  runtime.engine().set_cost_scale(kScale);
  apps::HostProblem prob = apps::banded_matrix(240000, 5);
  auto A = sparse::CsrMatrix::from_host(runtime, prob.rows, prob.cols, prob.indptr,
                                        prob.indices, prob.values);
  auto x = dense::DArray::full(runtime, prob.rows, 1.0);
  auto warm = A.spmv(x);
  lsr_bench::profile_begin(runtime.engine(), point);
  auto mbase = lsr_bench::metrics_begin(runtime, point);
  double t0 = runtime.sim_time();
  constexpr int kIters = 10;
  for (int i = 0; i < kIters; ++i) {
    auto y = A.spmv(x);
    benchmark::DoNotOptimize(y.size());
  }
  double sec = (runtime.sim_time() - t0) / kIters;
  lsr_bench::metrics_end(runtime, point, mbase, sec);
  lsr_bench::profile_end(runtime.engine(), point);
  for (auto _ : state) state.SetIterationTime(sec);
  state.counters["iters_per_s"] = 1.0 / sec;
}

/// CG at 192 GPUs with Legion's all-reduce vs a hypothetical MPI-quality
/// tree (the fix the Legion developers planned, per the paper's footnote).
void allreduce_ablation(benchmark::State& state, bool legion_style,
                        const std::string& point) {
  sim::PerfParams pp;
  if (!legion_style) {
    pp.legate_allreduce_alpha = pp.mpi_allreduce_alpha;
    pp.legate_allreduce_linear = 0.0;
  }
  sim::Machine machine = sim::Machine::gpus(192, pp);
  rt::Runtime runtime(machine);
  runtime.engine().set_cost_scale(kScale);
  coord_t grid = static_cast<coord_t>(std::ceil(std::sqrt(25600.0 * 192)));
  apps::HostProblem prob = apps::poisson2d(grid);
  auto A = sparse::CsrMatrix::from_host(runtime, prob.rows, prob.cols, prob.indptr,
                                        prob.indices, prob.values);
  auto b = dense::DArray::full(runtime, prob.rows, 1.0);
  auto warm = solve::cg(A, b, 0.0, 2);
  lsr_bench::profile_begin(runtime.engine(), point);
  auto mbase = lsr_bench::metrics_begin(runtime, point);
  double t0 = runtime.sim_time();
  constexpr int kIters = 10;
  auto res = solve::cg(A, b, 0.0, kIters);
  benchmark::DoNotOptimize(res.residual);
  double sec = (runtime.sim_time() - t0) / kIters;
  lsr_bench::metrics_end(runtime, point, mbase, sec);
  lsr_bench::profile_end(runtime.engine(), point);
  for (auto _ : state) state.SetIterationTime(sec);
  state.counters["iters_per_s"] = 1.0 / sec;
}

void register_all() {
  auto reg = [](const std::string& name,
                void (*fn)(benchmark::State&, bool, const std::string&),
                bool flag) {
    benchmark::RegisterBenchmark(
        name.c_str(),
        [fn, flag, name](benchmark::State& s) { fn(s, flag, name); })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  };
  reg("Ablation/Coalescing/on", power_iteration_ablation, true);
  reg("Ablation/Coalescing/off", power_iteration_ablation, false);
  reg("Ablation/PartitionReuse/on", partition_reuse_ablation, true);
  reg("Ablation/PartitionReuse/off", partition_reuse_ablation, false);
  reg("Ablation/Reshape/modeled", reshape_ablation, true);
  reg("Ablation/Reshape/off", reshape_ablation, false);
  reg("Ablation/Allreduce192/legion", allreduce_ablation, true);
  reg("Ablation/Allreduce192/mpi-tree", allreduce_ablation, false);
}

const int registered = (register_all(), 0);

}  // namespace

LSR_BENCH_MAIN();

#pragma once

// Shared helpers for the figure-reproduction benchmarks.
//
// Each benchmark executes a 1/S functional sample of the paper-scale
// workload and sets the engine's cost_scale to S, which charges full-size
// bytes/flops/capacity (exact for these linear-cost workloads; DESIGN.md
// "Execution & performance model"). Simulated seconds are reported through
// google-benchmark's manual-time mode, so `items_per_second`-style counters
// are directly comparable with the paper's iterations/second axes.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <iostream>
#include <string>

#include <fstream>

#include "diag/diag.h"
#include "metrics/metrics.h"
#include "prof/analysis.h"
#include "prof/trace.h"
#include "rt/runtime.h"
#include "sim/engine.h"
#include "sim/machine.h"

namespace lsr_bench {

// ---------------------------------------------------------------------------
// Profiling hooks (off by default; zero effect on simulated time and stats).
//
//   bench_cg --prof                  print utilization / traffic-matrix /
//                                    critical-path summary per profiled point
//   bench_cg --trace out.json        additionally dump a Chrome-trace JSON
//                                    (chrome://tracing, Perfetto); the file is
//                                    rewritten per point, so the last profiled
//                                    point's timeline is what remains — use
//                                    --prof-filter to pick one
//   bench_cg --prof-filter 192       only profile points whose name contains
//                                    the substring
//   bench_cg --fuse on               launch-window fusion mode (off|on)
//                                    for the Legate runtime points; fused
//                                    launch counts appear as the
//                                    fused_launches / fused_eliminated
//                                    counters
//   bench_cg --comm plan             communication-planner mode
//                                    (off|plan|overlap) for the Legate
//                                    runtime points; plan-cache hits/misses
//                                    and coalesced-message counts appear as
//                                    lsr_comm_* stable counters
//   bench_cg --metrics out.json      write a per-point metrics snapshot file
//                                    (stable metrics only, so the file is
//                                    bit-identical at any --threads value);
//                                    compared against the committed
//                                    BENCH_*.json by scripts/bench_compare.py
//   bench_cg --dump-on-exit          write an lsr_diag post-mortem dump at
//                                    the end of every point (implies
//                                    LSR_DIAG=on); summarize the file with
//                                    scripts/diagnose.py
//   bench_cg --log-level info        lsr_diag stderr verbosity
//                                    (silent|warn|info|debug; LSR_DIAG_LOG)
// ---------------------------------------------------------------------------

struct ProfOptions {
  bool enabled = false;       ///< --prof or --trace given
  std::string trace_path;     ///< empty: summary only
  std::string filter;         ///< substring of the point name; empty: all
  int threads = 0;            ///< --threads N executor threads (0 = env/default)
  std::string metrics_path;   ///< --metrics PATH metrics snapshot output
  /// --partition rows|nnz|auto row-split strategy for the Legate runtime
  /// points (Unset: the runtime falls back to LSR_PARTITION, then rows).
  legate::rt::PartitionStrategy partition = legate::rt::PartitionStrategy::Unset;
  /// --fuse off|on launch-window fusion mode for the Legate runtime
  /// points (Unset: the runtime falls back to LSR_FUSE, then off).
  legate::rt::Fusion fusion = legate::rt::Fusion::Unset;
  /// --comm off|plan|overlap communication-planner mode for the Legate
  /// runtime points (Unset: the runtime falls back to LSR_COMM, then off).
  legate::comm::Mode comm = legate::comm::Mode::Unset;
  /// --dump-on-exit: write an lsr_diag post-mortem dump at the end of each
  /// profiled point, even without a watchdog trip (implies LSR_DIAG=on for
  /// the benchmark's runtimes unless the env says otherwise).
  bool dump_on_exit = false;
  /// --log-level silent|warn|info|debug: lsr_diag stderr verbosity.
  std::string log_level;
};

inline ProfOptions& prof_options() {
  static ProfOptions po;
  return po;
}

/// Strip --prof / --trace PATH / --trace=PATH / --prof-filter SUB /
/// --threads N from argv before handing the rest to google-benchmark
/// (which rejects unknown flags).
inline void init_prof_flags(int* argc, char** argv) {
  ProfOptions& po = prof_options();
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string a = argv[i];
    auto value_of = [&](const std::string& flag) -> const char* {
      if (a.rfind(flag + "=", 0) == 0) return argv[i] + flag.size() + 1;
      if (a == flag && i + 1 < *argc) return argv[++i];
      return nullptr;
    };
    if (a == "--prof") {
      po.enabled = true;
    } else if (const char* v = value_of("--trace")) {
      po.enabled = true;
      po.trace_path = v;
    } else if (const char* v2 = value_of("--prof-filter")) {
      po.filter = v2;
    } else if (const char* v3 = value_of("--threads")) {
      po.threads = std::atoi(v3);
    } else if (const char* v4 = value_of("--metrics")) {
      po.metrics_path = v4;
    } else if (const char* v5 = value_of("--partition")) {
      po.partition = legate::rt::parse_partition_strategy(v5);
      if (po.partition == legate::rt::PartitionStrategy::Unset) {
        std::cerr << "warning: unknown --partition value '" << v5
                  << "' (expected rows|nnz|auto), using the runtime default\n";
      }
    } else if (const char* v6 = value_of("--fuse")) {
      po.fusion = legate::rt::parse_fusion_mode(v6);
      if (po.fusion == legate::rt::Fusion::Unset) {
        std::cerr << "warning: unknown --fuse value '" << v6
                  << "' (expected off|on), using the runtime default\n";
      }
    } else if (const char* v8 = value_of("--comm")) {
      po.comm = legate::comm::parse_comm_mode(v8);
      if (po.comm == legate::comm::Mode::Unset) {
        std::cerr << "warning: unknown --comm value '" << v8
                  << "' (expected off|plan|overlap), using the runtime default\n";
      }
    } else if (a == "--dump-on-exit") {
      po.dump_on_exit = true;
    } else if (const char* v7 = value_of("--log-level")) {
      po.log_level = v7;
      legate::diag::set_log_level(legate::diag::parse_log_level(v7));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (po.dump_on_exit) {
    // The exit dump should carry flight-recorder events, so make sure the
    // recorder is on unless the environment explicitly chose a mode.
    ::setenv("LSR_DIAG", "on", /*overwrite=*/0);
  }
}

/// Executor threads requested with --threads (0: let the runtime read
/// LSR_EXEC_THREADS / default to 1).
inline int bench_threads() { return prof_options().threads; }

/// Row-split strategy requested with --partition (Unset: runtime default,
/// i.e. LSR_PARTITION or rows).
inline legate::rt::PartitionStrategy bench_partition() {
  return prof_options().partition;
}

/// Fusion mode requested with --fuse (Unset: runtime default, i.e. LSR_FUSE
/// or off).
inline legate::rt::Fusion bench_fusion() { return prof_options().fusion; }

/// Communication-planner mode requested with --comm (Unset: runtime default,
/// i.e. LSR_COMM or off).
inline legate::comm::Mode bench_comm() { return prof_options().comm; }

/// Extra per-point counters (fused-launch totals) attached by the run
/// functions and exported by register_point.
inline std::map<std::string, std::map<std::string, double>>& extra_counters() {
  static std::map<std::string, std::map<std::string, double>> m;
  return m;
}

/// Record a run's fused-launch counters (whole-runtime totals, warm-up
/// included): how many original launches were folded into fused launches and
/// how many dispatches that eliminated. Exported as benchmark counters by
/// register_point, and absent with fusion off.
inline void note_fusion(const std::string& point, legate::rt::Runtime& rt) {
  if (point.empty() || !rt.fusion_enabled()) return;
  auto& c = extra_counters()[point];
  c["fused_launches"] = static_cast<double>(rt.fused_participants());
  c["fused_eliminated"] = static_cast<double>(rt.fused_eliminated());
}

/// Write an lsr_diag post-mortem dump for a finished point when
/// --dump-on-exit was given (fences first; see Runtime::diag_dump). The dump
/// lands in LSR_DIAG_DIR (default: the working directory) and is summarized
/// by scripts/diagnose.py.
inline void diag_point_end(legate::rt::Runtime& rt, const std::string& point) {
  if (!prof_options().dump_on_exit || point.empty()) return;
  const std::string path = rt.diag_dump("exit:" + point);
  if (!path.empty()) std::cerr << "diag dump written to " << path << "\n";
}

/// Whether the point `name` should be profiled under the current flags.
/// Unnamed runs (registration-time probes) are never profiled.
inline bool profiling_point(const std::string& name) {
  const ProfOptions& po = prof_options();
  return po.enabled && !name.empty() &&
         (po.filter.empty() || name.find(po.filter) != std::string::npos);
}

/// Enable timeline recording on `eng` if this point is being profiled.
/// With --trace, also install a flush sink: timeline windows closed by
/// Engine::reset mid-run (bench repetitions, solver restarts) export to
/// numbered `<path>.resetN` side files instead of being silently dropped.
inline void profile_begin(legate::sim::Engine& eng, const std::string& point) {
  if (!profiling_point(point)) return;
  eng.recorder().enable();
  const ProfOptions& po = prof_options();
  if (!po.trace_path.empty()) {
    std::string base = po.trace_path;
    eng.recorder().set_flush_sink([base](const legate::prof::Recorder& rec) {
      static int n = 0;
      legate::prof::write_chrome_trace(rec, base + ".reset" + std::to_string(++n));
    });
  }
}

/// Print the utilization / traffic / critical-path summary for a profiled
/// run and dump the Chrome trace when --trace was given.
inline void profile_end(legate::sim::Engine& eng, const std::string& point) {
  if (!eng.recorder().enabled()) return;
  std::cerr << "\n== profile: " << point << "\n"
            << legate::prof::summary(eng.recorder(), eng.makespan());
  const ProfOptions& po = prof_options();
  if (!po.trace_path.empty()) {
    legate::prof::write_chrome_trace(eng.recorder(), po.trace_path);
    std::cerr << "trace written to " << po.trace_path << " ("
              << eng.recorder().events().size() << " events)\n";
  }
}

// ---------------------------------------------------------------------------
// Per-point metrics snapshots (--metrics out.json).
//
// metrics_begin/metrics_end bracket the timed region of a Legate run: the
// delta between the two runtime snapshots isolates the timed iterations from
// warm-up (data distribution, steady-state allocation). Only the runtime's
// Stable metrics are written — those are incremented exclusively during the
// sequential replay at fence(), so the emitted file is bit-identical for any
// --threads value. scripts/bench_compare.py gates CI on these files.
// ---------------------------------------------------------------------------

inline bool metrics_enabled() { return !prof_options().metrics_path.empty(); }

/// One recorded point: simulated seconds/iteration plus the stable-metric
/// delta across the timed region.
struct MetricsEntry {
  double sim_s_per_iter = 0;
  legate::metrics::Snapshot snap;
};

inline std::map<std::string, MetricsEntry>& metrics_entries() {
  static std::map<std::string, MetricsEntry> m;
  return m;
}

/// Snapshot the runtime's metrics before the timed region (fences, so the
/// warm-up's deferred launches are fully attributed to the base). Unnamed
/// runs are never recorded.
inline legate::metrics::Snapshot metrics_begin(legate::rt::Runtime& rt,
                                               const std::string& point) {
  if (!metrics_enabled() || point.empty()) return {};
  return rt.metrics_snapshot();
}

/// Record the timed region's metric delta and simulated seconds/iteration.
inline void metrics_end(legate::rt::Runtime& rt, const std::string& point,
                        const legate::metrics::Snapshot& base,
                        double sim_s_per_iter) {
  if (!metrics_enabled() || point.empty()) return;
  MetricsEntry& e = metrics_entries()[point];
  e.sim_s_per_iter = sim_s_per_iter;
  e.snap = rt.metrics_snapshot().delta(base);
}

/// Write the BENCH_*.json schema consumed by scripts/bench_compare.py:
///   {"schema":1,"bench":"<name>","points":{"<point>":
///      {"sim_s_per_iter":S,"snapshot":{"metrics":[...]}}, ...}}
/// Only deterministic simulated numbers go here: host wall time is
/// machine-specific, so it is measured by perfbench A/B runs instead.
/// Returns false (and prints to stderr) if the file cannot be written.
inline bool metrics_write(const std::string& bench_name) {
  if (!metrics_enabled()) return true;
  std::ofstream os(prof_options().metrics_path);
  if (!os) {
    std::cerr << "error: cannot write metrics file " << prof_options().metrics_path
              << "\n";
    return false;
  }
  os << "{\"schema\":1,\"bench\":\"" << bench_name << "\",\"points\":{";
  bool first = true;
  for (const auto& [point, e] : metrics_entries()) {
    if (!first) os << ',';
    first = false;
    std::string pname = point;  // point names never need JSON escaping, but
    // keep the exporter honest anyway.
    std::string quoted;
    legate::metrics::append_json_string(quoted, pname);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", e.sim_s_per_iter);
    os << quoted << ":{\"sim_s_per_iter\":" << buf;
    os << ",\"snapshot\":" << e.snap.to_json(/*stable_only=*/true) << '}';
  }
  os << "}}\n";
  std::cerr << "metrics written to " << prof_options().metrics_path << " ("
            << metrics_entries().size() << " points)\n";
  return true;
}

/// Benchmark name for the metrics file: basename of argv[0].
inline std::string bench_name_from(const char* argv0) {
  std::string s = argv0 ? argv0 : "bench";
  std::size_t slash = s.find_last_of('/');
  if (slash != std::string::npos) s = s.substr(slash + 1);
  return s;
}

/// GPU scale points of the paper's weak-scaling plots (Figs. 8-10):
/// 1 GPU, then whole sockets' worth (3) up to 32 nodes (192).
inline const std::vector<int>& gpu_points() {
  static const std::vector<int> v{1, 3, 6, 12, 24, 48, 96, 192};
  return v;
}

/// CPU-socket scale points (1 socket ... 64 sockets = 32 nodes).
inline const std::vector<int>& socket_points() {
  static const std::vector<int> v{1, 2, 4, 8, 16, 32, 64};
  return v;
}

/// Register a single weak-scaling point. `run` returns simulated seconds
/// per solver/benchmark iteration; the reciprocal matches the paper's
/// throughput axes and is exported as the `iters_per_s` counter.
inline void register_point(const std::string& name, int procs,
                           std::function<double()> run) {
  benchmark::RegisterBenchmark(name.c_str(),
                               [name, procs, run](benchmark::State& state) {
                                 double sec_per_iter = 0;
                                 for (auto _ : state) {
                                   sec_per_iter = run();
                                   state.SetIterationTime(sec_per_iter);
                                 }
                                 state.counters["procs"] = procs;
                                 state.counters["iters_per_s"] =
                                     sec_per_iter > 0 ? 1.0 / sec_per_iter : 0;
                                 auto it = extra_counters().find(name);
                                 if (it != extra_counters().end()) {
                                   for (const auto& [k, v] : it->second)
                                     state.counters[k] = v;
                                 }
                               })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

/// Register a point that reports out-of-memory instead of a throughput
/// (Fig. 11's 64-GPU case, Fig. 12's CuPy large datasets).
inline void register_oom(const std::string& name, int procs) {
  benchmark::RegisterBenchmark(name.c_str(),
                               [procs](benchmark::State& state) {
                                 for (auto _ : state) {
                                   state.SetIterationTime(1e-9);
                                 }
                                 state.counters["procs"] = procs;
                                 state.counters["OOM"] = 1;
                               })
      ->UseManualTime()
      ->Iterations(1);
}

}  // namespace lsr_bench

/// Drop-in replacement for BENCHMARK_MAIN() that strips the profiling flags
/// (--prof, --trace, --prof-filter) before google-benchmark sees argv.
#define LSR_BENCH_MAIN()                                                  \
  int main(int argc, char** argv) {                                       \
    std::string bench_name = lsr_bench::bench_name_from(argv[0]);         \
    lsr_bench::init_prof_flags(&argc, argv);                              \
    benchmark::Initialize(&argc, argv);                                   \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;     \
    benchmark::RunSpecifiedBenchmarks();                                  \
    benchmark::Shutdown();                                                \
    if (!lsr_bench::metrics_write(bench_name)) return 1;                  \
    return 0;                                                             \
  }                                                                       \
  int main(int, char**)

// Host-wall benchmark: the perfbench binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Untraced (--trace 0): generate seeded inputs, set up the workload several
// times (setup_s is the median), run the closed loop for S seconds (at least
// kMinIters iterations), check every output against baselines::ref, and
// print the end-to-end metrics. Traced (--trace 1): one set-up, a few
// iterations under the prof recorder (simulated critical path), an untraced
// loop for S/2 seconds (metric deltas over its first kWindow iterations),
// then a traced loop of the same length with spans around every public
// call, followed by the layer probes (metrics snapshot cost, solve::cg, ref
// timings, STREAM triad); prints the per-layer metrics. Either way the last
// stdout line is one JSON object {correct, attempted, failed, metrics}; the
// exit code is non-zero when any check failed.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "floor.h"
#include "metrics/metrics.h"
#include "prof/analysis.h"
#include "prof/trace.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace metrics = legate::metrics;

/// Set-ups per untraced run (setup_s is their median): at least kMinSetups,
/// and more while they add up to less than kSetupBudgetS, so cheap set-ups
/// get enough samples for a steady median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;
constexpr double kSetupBudgetS = 3.0;
constexpr int kMinIters = 100;    ///< so ten samples lie beyond p90
constexpr int kWindow = 16;       ///< fixed window for counters and simulated time
constexpr int kRecordIters = 3;   ///< iterations the prof recorder captures
constexpr int kSnapshotReps = 5;  ///< metrics_snapshot() calls timed
constexpr double kLlcMultiple = 4.0;  ///< STREAM arrays vs last-level cache

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  bool trace{false};
  std::string out_dir{"."};
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--out-dir DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && a.seconds > 0;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || a.workload.empty()) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

/// Per-iteration wall times and the fixed-window observations of one loop.
struct Loop {
  std::vector<double> iter_s;
  double window_sim_s{0};   ///< simulated seconds over the first kWindow iterations
  double window_wall_s{0};  ///< measured wall seconds over the same iterations
  metrics::Snapshot window;  ///< metric deltas over the window (when requested)
};

/// Closed loop: issue the next iteration only when the previous one has
/// finished and been checked. Runs until `seconds` have passed and at least
/// `min_iters` iterations are done, or exactly `fixed_iters` when positive.
Loop run_loop(Workload& w, Tracer* t, double seconds, int min_iters, int fixed_iters,
              bool snapshot, Checks& checks) {
  legate::rt::Runtime& rt = w.runtime();
  Loop L;
  metrics::Snapshot base;
  if (snapshot) base = rt.metrics_snapshot();
  const double sim0 = rt.sim_time();
  const double start = now_s();
  for (int i = 0;; ++i) {
    if (fixed_iters > 0) {
      if (i >= fixed_iters) break;
    } else {
      const double elapsed = now_s() - start;
      if (i >= min_iters && elapsed >= seconds) break;
      // A machine far slower than expected still ends within the run limit.
      if (i >= kWindow && elapsed >= 4 * seconds) break;
    }
    if (t != nullptr) t->set_iter(i);
    const double t0 = now_s();
    {
      Span root(t, "iteration", SpanKind::Root);
      w.iterate(t);
    }
    L.iter_s.push_back(now_s() - t0);
    if (t != nullptr) t->set_iter(-1);
    w.check_iteration(checks);
    if (i + 1 == kWindow) {
      L.window_sim_s = rt.sim_time() - sim0;
      for (double s : L.iter_s) L.window_wall_s += s;
      if (snapshot) L.window = rt.metrics_snapshot().delta(base);
    }
  }
  return L;
}

/// Counter value (or histogram sum) of a metric in a snapshot; 0 if absent.
double metric(const metrics::Snapshot& s, const char* name) {
  const metrics::Snapshot::Metric* m = s.find(name);
  if (m == nullptr) return 0;
  return m->kind == metrics::Kind::Histogram ? m->sum : m->value;
}

/// Result line: {"correct", "attempted", "failed", "metrics"}.
class Result {
 public:
  void add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  void print(const Checks& c) const {
    std::string out = "{\"correct\": ";
    out += c.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(c.attempted);
    out += ", \"failed\": " + std::to_string(c.failed) + ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += "\"" + entries_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             entries_[i].unit + "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

double ms_per_iter(double seconds, std::size_t iters) {
  return iters == 0 ? 0 : seconds * 1e3 / static_cast<double>(iters);
}

int run_untraced(Workload& w, const Args& a, Checks& checks) {
  std::vector<double> setup_s;
  double setup_total = 0;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
    w.teardown();  // destroying the previous runtime is not set-up time
    const double t0 = now_s();
    w.setup(nullptr);
    setup_s.push_back(now_s() - t0);
    setup_total += setup_s.back();
  }
  std::cout << "config: " << describe_config(w.runtime()) << "\n";
  w.check_iteration(checks);  // the set-up's first iteration
  Loop L = run_loop(w, nullptr, a.seconds, kMinIters, 0, false, checks);
  w.check_final(checks);
  w.teardown();
  w.release_inputs();

  std::cout << "iterations: " << L.iter_s.size() << "  setups: " << setup_s.size() << "\n";
  Result res;
  res.add("iter_ms.p50", percentile(L.iter_s, 0.5) * 1e3, "ms");
  res.add("iter_ms.p90", percentile(L.iter_s, 0.9) * 1e3, "ms");
  res.add("setup_s", median(setup_s), "s");
  res.add("sim_ms_per_iter", L.window_sim_s * 1e3 / kWindow, "sim_ms");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
  res.print(checks);
  return checks.failed == 0 ? 0 : 1;
}

/// The per-layer table: span → kind, calls/iter, self ms/iter, % of iteration
/// wall. Returns the self time of all call spans (everything but glue).
double print_layer_table(const std::map<std::string, Tracer::SelfTime>& self,
                         std::size_t iters, double wall_s) {
  std::printf("%-22s %6s %10s %12s %8s\n", "layer (span)", "kind", "calls/iter",
              "self ms/iter", "% wall");
  double covered = 0;
  for (const auto& [name, st] : self) {
    const bool root = name == "iteration";
    const char* kind = root                     ? "glue"
                       : st.drain == 0          ? "issue"
                       : st.drain == st.total   ? "drain"
                                                : "mixed";
    std::printf("%-22s %6s %10.2f %12.4f %7.2f%%\n", root ? "(iteration glue)" : name.c_str(),
                kind, static_cast<double>(st.calls) / static_cast<double>(iters),
                ms_per_iter(st.total, iters), 100.0 * st.total / wall_s);
    if (!root) covered += st.total;
  }
  std::printf("%-22s %6s %10s %12.4f %7.2f%%\n", "spans total", "", "",
              ms_per_iter(covered, iters), 100.0 * covered / wall_s);
  return covered;
}

int run_traced(Workload& w, const Args& a, Checks& checks) {
  Tracer tr;
  tr.set_pending_probe(
      [&w] { return w.has_runtime() ? w.runtime().pending_launches() : std::size_t{0}; });
  {
    Span root(&tr, "setup", SpanKind::Root);
    w.setup(&tr);
  }
  std::cout << "config: " << describe_config(w.runtime()) << "\n";
  w.check_iteration(checks);
  legate::rt::Runtime& rt = w.runtime();
  const std::string stem = a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed);

  // Simulated critical-path split over the first iterations after set-up
  // (a fixed point of the run, so the split repeats exactly for a seed).
  legate::prof::Recorder& rec = rt.engine().recorder();
  rec.enable();
  for (int k = 0; k < kRecordIters; ++k) {
    w.iterate(nullptr);
    w.check_iteration(checks);
  }
  const legate::prof::CriticalPath cp = legate::prof::critical_path(rt.engine().recorder());
  legate::prof::write_chrome_trace(rec, stem + ".sim.json");
  rec.enable(false);
  rec.reset();
  auto crit = [&cp](const char* cat) {
    auto it = cp.by_category.find(cat);
    return it == cp.by_category.end() || cp.total_seconds <= 0
               ? 0.0
               : it->second / cp.total_seconds;
  };

  // Untraced reference half (its first kWindow iterations give the metric
  // deltas), then the traced loop of the same length.
  Loop U = run_loop(w, nullptr, a.seconds / 2, kWindow, 0, true, checks);
  Loop T = run_loop(w, &tr, 0, 0, static_cast<int>(U.iter_s.size()), false, checks);
  const std::size_t n = T.iter_s.size();

  std::vector<double> snap_ms;
  for (int k = 0; k < kSnapshotReps; ++k) {
    const double t0 = now_s();
    (void)rt.metrics_snapshot();
    snap_ms.push_back((now_s() - t0) * 1e3);
  }
  const double solve_ms = w.solve_cg_iter_ms(&tr);

  w.check_final(checks);
  const RefTimings ref = w.ref_timings();
  w.teardown();
  w.release_inputs();

  const std::size_t llc = llc_bytes();
  const std::size_t triad_bytes =
      static_cast<std::size_t>(kLlcMultiple * static_cast<double>(llc > 0 ? llc : (64u << 20)));
  const TriadResult triad = stream_triad(triad_bytes, kExecThreads + 1, 5);
  std::cout << "llc_bytes: " << llc << "  triad_array_bytes: " << triad.array_bytes
            << "  triad_threads: " << kExecThreads + 1 << "\n";

  tr.write_chrome_trace(stem + ".spans.json");
  std::cout << "traces: " << stem << ".spans.json " << stem << ".sim.json\n";

  // Self times over the traced iterations.
  const auto self = tr.self_times(0, static_cast<int>(n) - 1);
  double wall = 0;
  for (double s : T.iter_s) wall += s;
  std::cout << "iterations: " << n << " traced, " << U.iter_s.size() << " untraced\n";
  const double covered = print_layer_table(self, n, wall);
  auto sum_self = [&](std::initializer_list<const char*> names) {
    double s = 0;
    for (const char* nm : names) {
      auto it = self.find(nm);
      if (it != self.end()) s += it->second.total;
    }
    return s;
  };
  double sparse_s = 0, dense_s = 0, drain = 0;
  for (const auto& [name, st] : self) {
    drain += st.drain;
    if (name.rfind("sparse.", 0) == 0) sparse_s += st.total;
    if (name.rfind("dense.", 0) == 0) dense_s += st.total;
  }
  const auto all = tr.self_times(INT_MIN, INT_MAX);
  const auto fh = all.find("sparse.from_host");
  const double from_host_ms =
      fh == all.end() ? 0 : fh->second.total * 1e3 / fh->second.calls;
  const double untraced_p50 = median(U.iter_s);
  const double traced_p50 = median(T.iter_s);
  auto pct = [&](double s) { return 100.0 * s / wall; };
  const metrics::Snapshot& m = U.window;
  auto per_iter = [&](const char* name) { return metric(m, name) / kWindow; };
  const double hits = metric(m, "lsr_comm_plan_hits_total");
  const double misses = metric(m, "lsr_comm_plan_misses_total");
  const double busy_s = metric(m, "lsr_exec_task_wall_seconds");

  Result res;
  // rt control path
  res.add("rt.fence_ms", ms_per_iter(sum_self({"rt.fence"}), n), "ms");
  res.add("rt.fence_pct", pct(sum_self({"rt.fence"})), "%");
  res.add("rt.launches_per_iter", per_iter("lsr_rt_launches_total"), "count");
  res.add("rt.image_misses_per_iter", per_iter("lsr_rt_image_cache_misses_total"), "count");
  res.add("rt.image_hits_per_iter", per_iter("lsr_rt_image_cache_hits_total"), "count");
  res.add("rt.alloc_fresh_per_iter", per_iter("lsr_rt_alloc_fresh_total"), "count");
  res.add("rt.partitions_created_per_iter", per_iter("lsr_rt_partitions_created_total"),
          "count");
  res.add("rt.part_reuse_misses_per_iter", per_iter("lsr_rt_partition_reuse_misses_total"),
          "count");
  // comm
  res.add("comm.plan_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  res.add("comm.plan_misses_per_iter", misses / kWindow, "count");
  res.add("comm.messages_per_iter", per_iter("lsr_comm_messages_total"), "count");
  res.add("comm.bytes_per_iter", per_iter("lsr_comm_bytes_total"), "B");
  res.add("comm.bytes_ib_per_iter", per_iter("lsr_comm_bytes_ib_total"), "B");
  // sim accounting
  res.add("sim.tasks_per_iter", per_iter("lsr_sim_tasks_total"), "count");
  res.add("sim.copies_per_iter", per_iter("lsr_sim_copies_total"), "count");
  res.add("sim.traffic_bytes_per_iter",
          (metric(m, "lsr_sim_traffic_intra_bytes_total") +
           metric(m, "lsr_sim_traffic_nvlink_bytes_total") +
           metric(m, "lsr_sim_traffic_ib_bytes_total")) /
              kWindow,
          "B");
  res.add("sim.crit_kernel_frac", crit("kernel"), "ratio");
  res.add("sim.crit_copy_frac", crit("copy"), "ratio");
  res.add("sim.crit_allreduce_frac", crit("allreduce"), "ratio");
  res.add("sim.crit_launch_frac", crit("launch-overhead"), "ratio");
  // exec
  res.add("exec.task_busy_ms_per_iter", busy_s * 1e3 / kWindow, "ms");
  res.add("exec.busy_frac",
          U.window_wall_s > 0 ? busy_s / (U.window_wall_s * (kExecThreads + 1)) : 0, "ratio");
  res.add("exec.steals_per_iter", per_iter("lsr_exec_steals_total"), "count");
  // sparse / dense calls and leaves
  res.add("sparse.self_ms", ms_per_iter(sparse_s, n), "ms");
  res.add("dense.self_ms", ms_per_iter(dense_s, n), "ms");
  res.add("sparse.spmv_pct", pct(sum_self({"sparse.spmv"})), "%");
  res.add("dense.dot_pct", pct(sum_self({"dense.dot"})), "%");
  res.add("dense.axpy_ms", ms_per_iter(sum_self({"dense.axpy", "dense.xpay"}), n), "ms");
  res.add("ref.spmv_ms", ref.spmv_ms, "ms");
  res.add("ref.dot_ms", ref.dot_ms, "ms");
  res.add("ref.axpy_ms", ref.axpy_ms, "ms");
  res.add("leaf.spmv_gbps_computed", ref.spmv_ms > 0 ? ref.spmv_bytes / ref.spmv_ms / 1e6 : 0,
          "GB/s");
  res.add("host.stream_gbps", triad.gbps, "GB/s");
  // fuse
  res.add("fuse.fused_per_iter", per_iter("lsr_fuse_launches_fused_total"), "count");
  res.add("fuse.eliminated_per_iter", per_iter("lsr_fuse_launches_eliminated_total"),
          "count");
  // sparse construction and dense shuffle
  res.add("sparse.from_host_ms", from_host_ms, "ms");
  res.add("sparse.from_host_pct", pct(sum_self({"sparse.from_host"})), "%");
  res.add("sparse.sddmm_pct", pct(sum_self({"sparse.sddmm"})), "%");
  res.add("sparse.spmm_pct", pct(sum_self({"sparse.spmm"})), "%");
  res.add("sparse.transpose_pct", pct(sum_self({"sparse.transpose"})), "%");
  res.add("sparse.elementwise_pct",
          pct(sum_self({"sparse.power_values", "sparse.scale_rows", "sparse.scale_cols",
                        "sparse.scale", "sparse.add", "sparse.sub", "sparse.sum"})),
          "%");
  res.add("dense.transpose_pct", pct(sum_self({"dense.transpose"})), "%");
  // solve
  res.add("solve.cg_overhead_pct",
          solve_ms > 0 ? 100.0 * (solve_ms - untraced_p50 * 1e3) / (untraced_p50 * 1e3) : 0,
          "%");
  // metrics / tracing
  res.add("metrics.snapshot_ms", median(snap_ms), "ms");
  res.add("trace.iter_ms.p50", traced_p50 * 1e3, "ms");
  res.add("trace.overhead_frac", (traced_p50 - untraced_p50) / untraced_p50, "ratio");
  res.add("trace.coverage_frac", covered / wall, "ratio");
  res.add("trace.drain_pct", pct(drain), "%");
  res.print(checks);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  std::unique_ptr<Workload> w = make_workload(a.workload);
  if (w == nullptr) usage(("unknown workload " + a.workload).c_str());
  try {
    const double t0 = now_s();
    w->generate(a.seed);
    std::cout << "workload: " << a.workload << "  seed: " << a.seed
              << "  trace: " << a.trace << "  input_generation_s: " << now_s() - t0
              << "\n";
    Checks checks;
    const int rc = a.trace ? run_traced(*w, a, checks) : run_untraced(*w, a, checks);
    for (const std::string& f : checks.failures) std::cerr << "check failed: " << f << "\n";
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << a.workload << ": " << e.what() << "\n";
    return 3;
  }
}

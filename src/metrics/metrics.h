#pragma once

// legate::metrics — always-on aggregate metrics (lsr_metrics).
//
// Where legate::prof records opt-in per-event timelines, this registry keeps
// cheap always-on aggregates: the counts the paper's mapping and partitioning
// arguments are ultimately about (partition-cache reuse, coalesced vs. fresh
// allocations, per-link bytes moved) plus executor and solver telemetry.
//
// Model: a Registry owns named counters, gauges, and fixed-bucket histograms.
// Increments are lock-free — each value is sharded across a small fixed set
// of cache-line-padded atomic slot arrays, and a thread always lands in the
// same shard — so leaf tasks on legate::exec pool workers can bump metrics
// without serializing. Reads (snapshot/export) merge the shards in fixed
// shard order.
//
// Determinism contract: every metric is tagged Stable or Volatile at
// registration. Stable metrics are only ever incremented from the runtime's
// deterministic control path (the sequential launch replay), so one thread
// produces the whole sequence of increments and the shard merge reproduces
// the exact sequential sum — snapshots of the stable subset are bit-identical
// at any exec thread count. Volatile metrics (steals, queue depth, measured
// wall times) may be bumped concurrently from pool workers and legitimately
// vary run to run. Snapshots taken at a fence observe a consistent stable
// set; `Snapshot::to_json(/*stable_only=*/true)` is the comparable view.

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace legate::metrics {

/// Whether a metric is part of the deterministic (thread-count-invariant)
/// subset. See the determinism contract above.
enum class Stability { Stable, Volatile };

enum class Kind { Counter, Gauge, Histogram };

[[nodiscard]] const char* kind_name(Kind k);
[[nodiscard]] const char* stability_name(Stability s);

class Registry;

namespace detail {

/// One registered metric. Stored in a deque inside the Registry so handles
/// can keep stable pointers across later registrations.
struct MetricDef {
  std::string name;
  std::string help;
  Kind kind{Kind::Counter};
  Stability stability{Stability::Stable};
  std::vector<double> bounds;  ///< histogram upper bounds (+Inf implied)
  int first_slot{0};  ///< slot range [first_slot, first_slot + nslots)
  int nslots{1};      ///< counters/gauges: 1; histograms: buckets+1 +sum +count
};

}  // namespace detail

/// Monotone counter handle. Default-constructed handles are inert no-ops, so
/// instrumented code never needs a null registry check at the call site.
class Counter {
 public:
  Counter() = default;
  void inc(double v = 1.0) const;
  /// Current merged value (0 for an inert handle). Same fixed-order shard
  /// merge as snapshot(), so a Stable counter reads its exact sequential sum.
  [[nodiscard]] double value() const;

 private:
  friend class Registry;
  Counter(Registry* reg, const detail::MetricDef* def) : reg_(reg), def_(def) {}
  Registry* reg_{nullptr};
  const detail::MetricDef* def_{nullptr};
};

/// Last-write-wins gauge handle (plus a monotone-max variant for peaks).
/// Gauges are not sharded: sets are atomic stores, so a Stable gauge must
/// only be set from the deterministic control path.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const;
  /// Monotone update: keep the maximum of the current and given value.
  void update_max(double v) const;

 private:
  friend class Registry;
  Gauge(Registry* reg, const detail::MetricDef* def) : reg_(reg), def_(def) {}
  Registry* reg_{nullptr};
  const detail::MetricDef* def_{nullptr};
};

/// Fixed-bucket histogram handle. `observe(v)` bumps the first bucket whose
/// upper bound is >= v (the last bucket is the implicit +Inf overflow) and
/// accumulates sum/count.
class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const;

 private:
  friend class Registry;
  Histogram(Registry* reg, const detail::MetricDef* def) : reg_(reg), def_(def) {}
  Registry* reg_{nullptr};
  const detail::MetricDef* def_{nullptr};
};

/// Merged point-in-time view of a registry, in registration order.
struct Snapshot {
  struct Metric {
    std::string name;
    std::string help;
    Kind kind{Kind::Counter};
    Stability stability{Stability::Stable};
    double value{0};              ///< counter / gauge
    std::vector<double> bounds;   ///< histogram upper bounds
    std::vector<double> buckets;  ///< per-bucket counts; size bounds()+1
    double sum{0};
    double count{0};
  };
  std::vector<Metric> metrics;

  [[nodiscard]] const Metric* find(const std::string& name) const;

  /// Counter and histogram values minus `base` (metrics missing from `base`
  /// keep their full value); gauges keep their current value. Used by the
  /// benches to report the timed region only, excluding warmup.
  [[nodiscard]] Snapshot delta(const Snapshot& base) const;

  /// Deterministic JSON: an object with a "metrics" array in registration
  /// order, doubles printed with round-trip precision. With `stable_only`
  /// the volatile subset is omitted — two stable-only strings from runs that
  /// differ only in exec thread count must compare equal.
  [[nodiscard]] std::string to_json(bool stable_only = false) const;

  /// Prometheus text exposition format (counters, gauges, and histograms
  /// with cumulative `_bucket{le=...}` series).
  [[nodiscard]] std::string to_prometheus() const;
};

/// Registry of named metrics. Registration is idempotent by name (the
/// existing handle is returned; kind/stability/bounds must match) and takes
/// a mutex; increments are lock-free on pre-allocated shard slots.
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter counter(const std::string& name, const std::string& help,
                  Stability st = Stability::Stable);
  Gauge gauge(const std::string& name, const std::string& help,
              Stability st = Stability::Stable);
  Histogram histogram(const std::string& name, const std::string& help,
                      std::vector<double> bounds,
                      Stability st = Stability::Stable);

  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every value, keeping the registered metric set (Engine::reset).
  void reset();

  /// Number of registered metrics (test/diagnostic hook).
  [[nodiscard]] std::size_t size() const;

  // -- common bucket layouts -------------------------------------------------
  /// Decade buckets for byte volumes: 1 kB .. 10 GB.
  [[nodiscard]] static std::vector<double> byte_buckets();
  /// Decade buckets for durations in seconds: 1 µs .. 100 s.
  [[nodiscard]] static std::vector<double> seconds_buckets();
  /// log10(residual) buckets: -16 .. +4 in steps of 2.
  [[nodiscard]] static std::vector<double> log10_buckets();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  static constexpr int kShards = 8;
  static constexpr int kSlots = 2048;

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<double>[]> slots;
  };

  [[nodiscard]] static int shard_of_thread();
  void add(int slot, double v);
  void gauge_store(int slot, double v);
  void gauge_max(int slot, double v);
  [[nodiscard]] double merged(int slot) const;

  const detail::MetricDef* register_metric(const std::string& name,
                                           const std::string& help, Kind kind,
                                           Stability st,
                                           std::vector<double> bounds);

  mutable std::mutex mu_;  ///< guards defs_/by_name_/next_slot_ (registration)
  // std::deque-like stable storage: handles keep MetricDef pointers.
  std::vector<std::unique_ptr<detail::MetricDef>> defs_;
  std::vector<std::pair<std::string, const detail::MetricDef*>> by_name_;
  int next_slot_{0};
  Shard shards_[kShards];
  std::unique_ptr<std::atomic<double>[]> gauges_;  ///< non-sharded slots
};

/// Sanitize an arbitrary label into a Prometheus-legal metric-name fragment
/// ([a-zA-Z0-9_]; anything else becomes '_').
[[nodiscard]] std::string sanitize_name(const std::string& s);

/// Append `s` to `out` as a quoted JSON string (escapes quotes, backslashes
/// and control characters). Shared by the snapshot exporter and the bench
/// metrics writer.
void append_json_string(std::string& out, const std::string& s);

}  // namespace legate::metrics

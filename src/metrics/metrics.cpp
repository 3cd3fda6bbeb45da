#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/common.h"

namespace legate::metrics {

namespace {

/// fetch_add for atomic<double> via CAS (C++20 has it natively for
/// floating point, but keep the portable spelling; relaxed is enough —
/// readers synchronize via the fence that precedes any snapshot).
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Shortest round-trip decimal for a double, with integral values printed
/// without an exponent/fraction so snapshots read like counts.
void append_double(std::string& out, double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    // Shortest precision that round-trips: "0.1" rather than
    // "0.10000000000000001" in bucket bounds and le= labels.
    for (int prec = 1; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
  }
  out += buf;
}

}  // namespace

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Counter: return "counter";
    case Kind::Gauge: return "gauge";
    case Kind::Histogram: return "histogram";
  }
  return "?";
}

const char* stability_name(Stability s) {
  return s == Stability::Stable ? "stable" : "volatile";
}

std::string sanitize_name(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

void Counter::inc(double v) const {
  if (reg_ == nullptr) return;
  reg_->add(def_->first_slot, v);
}

double Counter::value() const {
  return reg_ == nullptr ? 0.0 : reg_->merged(def_->first_slot);
}

void Gauge::set(double v) const {
  if (reg_ == nullptr) return;
  reg_->gauge_store(def_->first_slot, v);
}

void Gauge::update_max(double v) const {
  if (reg_ == nullptr) return;
  reg_->gauge_max(def_->first_slot, v);
}

void Histogram::observe(double v) const {
  if (reg_ == nullptr) return;
  const auto& bounds = def_->bounds;
  int bucket = static_cast<int>(bounds.size());  // overflow by default
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (v <= bounds[i]) {
      bucket = static_cast<int>(i);
      break;
    }
  }
  int base = def_->first_slot;
  int nbuckets = static_cast<int>(bounds.size()) + 1;
  reg_->add(base + bucket, 1.0);
  reg_->add(base + nbuckets, v);       // sum
  reg_->add(base + nbuckets + 1, 1.0);  // count
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Registry() {
  for (auto& sh : shards_) {
    sh.slots = std::make_unique<std::atomic<double>[]>(kSlots);
    for (int i = 0; i < kSlots; ++i) sh.slots[i].store(0.0);
  }
  gauges_ = std::make_unique<std::atomic<double>[]>(kSlots);
  for (int i = 0; i < kSlots; ++i) gauges_[i].store(0.0);
}

int Registry::shard_of_thread() {
  // A given thread always maps to the same shard so its increments never
  // race with themselves; distinct threads may share a shard (atomics make
  // that safe, it only costs contention).
  static std::atomic<int> next{0};
  thread_local int shard = next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

void Registry::add(int slot, double v) {
  atomic_add(shards_[shard_of_thread()].slots[slot], v);
}

void Registry::gauge_store(int slot, double v) {
  gauges_[slot].store(v, std::memory_order_relaxed);
}

void Registry::gauge_max(int slot, double v) { atomic_max(gauges_[slot], v); }

double Registry::merged(int slot) const {
  // Fixed shard order. All Stable metrics are incremented by exactly one
  // thread (the control thread), so their whole value sits in a single
  // shard and the merge reproduces the sequential sum bit-for-bit.
  double acc = 0.0;
  for (const auto& sh : shards_) {
    acc += sh.slots[slot].load(std::memory_order_relaxed);
  }
  return acc;
}

const detail::MetricDef* Registry::register_metric(const std::string& name,
                                                   const std::string& help,
                                                   Kind kind, Stability st,
                                                   std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [n, def] : by_name_) {
    if (n == name) {
      LSR_CHECK_MSG(def->kind == kind,
                    "metric re-registered with different kind: " + name);
      LSR_CHECK_MSG(def->stability == st,
                    "metric re-registered with different stability: " + name);
      LSR_CHECK_MSG(def->bounds == bounds,
                    "metric re-registered with different buckets: " + name);
      return def;
    }
  }
  if (kind == Kind::Histogram) {
    LSR_CHECK_MSG(!bounds.empty(), "histogram needs at least one bucket bound");
    LSR_CHECK_MSG(std::is_sorted(bounds.begin(), bounds.end()),
                  "histogram bounds must be sorted: " + name);
  }
  auto def = std::make_unique<detail::MetricDef>();
  def->name = name;
  def->help = help;
  def->kind = kind;
  def->stability = st;
  def->bounds = std::move(bounds);
  def->first_slot = next_slot_;
  def->nslots = kind == Kind::Histogram
                    ? static_cast<int>(def->bounds.size()) + 1 + 2
                    : 1;
  LSR_CHECK_MSG(next_slot_ + def->nslots <= kSlots,
                "metrics registry slot capacity exhausted");
  next_slot_ += def->nslots;
  const detail::MetricDef* out = def.get();
  by_name_.emplace_back(name, out);
  defs_.push_back(std::move(def));
  return out;
}

Counter Registry::counter(const std::string& name, const std::string& help,
                          Stability st) {
  const auto* def = register_metric(name, help, Kind::Counter, st, {});
  return Counter(this, def);
}

Gauge Registry::gauge(const std::string& name, const std::string& help,
                      Stability st) {
  const auto* def = register_metric(name, help, Kind::Gauge, st, {});
  return Gauge(this, def);
}

Histogram Registry::histogram(const std::string& name, const std::string& help,
                              std::vector<double> bounds, Stability st) {
  const auto* def =
      register_metric(name, help, Kind::Histogram, st, std::move(bounds));
  return Histogram(this, def);
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.metrics.reserve(defs_.size());
  for (const auto& def : defs_) {
    Snapshot::Metric m;
    m.name = def->name;
    m.help = def->help;
    m.kind = def->kind;
    m.stability = def->stability;
    m.bounds = def->bounds;
    if (def->kind == Kind::Gauge) {
      m.value = gauges_[def->first_slot].load(std::memory_order_relaxed);
    } else if (def->kind == Kind::Counter) {
      m.value = merged(def->first_slot);
    } else {
      int nbuckets = static_cast<int>(def->bounds.size()) + 1;
      m.buckets.resize(nbuckets);
      for (int i = 0; i < nbuckets; ++i) {
        m.buckets[i] = merged(def->first_slot + i);
      }
      m.sum = merged(def->first_slot + nbuckets);
      m.count = merged(def->first_slot + nbuckets + 1);
    }
    snap.metrics.push_back(std::move(m));
  }
  // Deterministic emission order: sorted by name, independent of the order
  // subsystems registered their metrics. Snapshot deltas, the JSON and
  // Prometheus exporters, and bench_compare baselines all inherit this, so
  // diffs stay stable across presets and registration-order refactors.
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const Snapshot::Metric& a, const Snapshot::Metric& b) {
              return a.name < b.name;
            });
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& sh : shards_) {
    for (int i = 0; i < kSlots; ++i) {
      sh.slots[i].store(0.0, std::memory_order_relaxed);
    }
  }
  for (int i = 0; i < kSlots; ++i) {
    gauges_[i].store(0.0, std::memory_order_relaxed);
  }
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return defs_.size();
}

std::vector<double> Registry::byte_buckets() {
  std::vector<double> b;
  for (double v = 1e3; v <= 1e10; v *= 10.0) b.push_back(v);
  return b;
}

std::vector<double> Registry::seconds_buckets() {
  std::vector<double> b;
  for (double v = 1e-6; v <= 1e2; v *= 10.0) b.push_back(v);
  return b;
}

std::vector<double> Registry::log10_buckets() {
  std::vector<double> b;
  for (double v = -16.0; v <= 4.0; v += 2.0) b.push_back(v);
  return b;
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

const Snapshot::Metric* Snapshot::find(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Snapshot Snapshot::delta(const Snapshot& base) const {
  Snapshot out = *this;
  for (auto& m : out.metrics) {
    if (m.kind == Kind::Gauge) continue;  // gauges report the current value
    const Metric* b = base.find(m.name);
    if (b == nullptr || b->kind != m.kind) continue;
    if (m.kind == Kind::Counter) {
      m.value -= b->value;
    } else if (m.bounds == b->bounds) {
      for (std::size_t i = 0; i < m.buckets.size(); ++i) {
        m.buckets[i] -= b->buckets[i];
      }
      m.sum -= b->sum;
      m.count -= b->count;
    }
  }
  return out;
}

std::string Snapshot::to_json(bool stable_only) const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& m : metrics) {
    if (stable_only && m.stability != Stability::Stable) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, m.name);
    out += ",\"kind\":\"";
    out += kind_name(m.kind);
    out += "\",\"stability\":\"";
    out += stability_name(m.stability);
    out += '"';
    if (m.kind == Kind::Histogram) {
      out += ",\"bounds\":[";
      for (std::size_t i = 0; i < m.bounds.size(); ++i) {
        if (i != 0) out += ',';
        append_double(out, m.bounds[i]);
      }
      out += "],\"buckets\":[";
      for (std::size_t i = 0; i < m.buckets.size(); ++i) {
        if (i != 0) out += ',';
        append_double(out, m.buckets[i]);
      }
      out += "],\"sum\":";
      append_double(out, m.sum);
      out += ",\"count\":";
      append_double(out, m.count);
    } else {
      out += ",\"value\":";
      append_double(out, m.value);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string Snapshot::to_prometheus() const {
  std::string out;
  for (const auto& m : metrics) {
    std::string name = sanitize_name(m.name);
    out += "# HELP " + name + " " + m.help + "\n";
    out += "# TYPE " + name + " ";
    out += kind_name(m.kind);
    out += '\n';
    if (m.kind != Kind::Histogram) {
      out += name + " ";
      append_double(out, m.value);
      out += '\n';
      continue;
    }
    double cumulative = 0.0;
    for (std::size_t i = 0; i < m.buckets.size(); ++i) {
      cumulative += m.buckets[i];
      out += name + "_bucket{le=\"";
      if (i < m.bounds.size()) {
        append_double(out, m.bounds[i]);
      } else {
        out += "+Inf";
      }
      out += "\"} ";
      append_double(out, cumulative);
      out += '\n';
    }
    out += name + "_sum ";
    append_double(out, m.sum);
    out += '\n';
    out += name + "_count ";
    append_double(out, m.count);
    out += '\n';
  }
  return out;
}

}  // namespace legate::metrics

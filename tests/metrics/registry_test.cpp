// legate::metrics registry: handle semantics, sharded-merge exactness under
// concurrent increments (the tier-1 tsan target), snapshot/delta algebra,
// and both exporters' formats.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.h"
#include "rt/runtime.h"
#include "sim/machine.h"

namespace legate::metrics {
namespace {

TEST(Registry, CounterAccumulatesAndSnapshots) {
  Registry reg;
  Counter c = reg.counter("requests_total", "requests served");
  c.inc();
  c.inc(2.5);
  Snapshot snap = reg.snapshot();
  const Snapshot::Metric* m = snap.find("requests_total");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, Kind::Counter);
  EXPECT_EQ(m->stability, Stability::Stable);
  EXPECT_DOUBLE_EQ(m->value, 3.5);
  EXPECT_EQ(m->help, "requests served");
}

TEST(Registry, RegistrationIsIdempotentByName) {
  Registry reg;
  Counter a = reg.counter("dup_total", "first");
  Counter b = reg.counter("dup_total", "first");
  a.inc();
  b.inc();
  EXPECT_DOUBLE_EQ(reg.snapshot().find("dup_total")->value, 2.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, GaugeSetAndMonotoneMax) {
  Registry reg;
  Gauge g = reg.gauge("depth", "queue depth", Stability::Volatile);
  g.set(7);
  g.set(3);
  EXPECT_DOUBLE_EQ(reg.snapshot().find("depth")->value, 3.0);
  g.update_max(2);  // below current: keeps 3
  EXPECT_DOUBLE_EQ(reg.snapshot().find("depth")->value, 3.0);
  g.update_max(11);
  EXPECT_DOUBLE_EQ(reg.snapshot().find("depth")->value, 11.0);
}

TEST(Registry, HistogramBucketsSumAndOverflow) {
  Registry reg;
  Histogram h = reg.histogram("size_bytes", "sizes", {10.0, 100.0, 1000.0});
  h.observe(5);      // <= 10
  h.observe(10);     // <= 10 (bounds are inclusive upper bounds)
  h.observe(50);     // <= 100
  h.observe(5000);   // overflow (+Inf)
  Snapshot snap = reg.snapshot();
  const Snapshot::Metric* m = snap.find("size_bytes");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_DOUBLE_EQ(m->buckets[0], 2.0);
  EXPECT_DOUBLE_EQ(m->buckets[1], 1.0);
  EXPECT_DOUBLE_EQ(m->buckets[2], 0.0);
  EXPECT_DOUBLE_EQ(m->buckets[3], 1.0);
  EXPECT_DOUBLE_EQ(m->count, 4.0);
  EXPECT_DOUBLE_EQ(m->sum, 5065.0);
}

TEST(Registry, InertHandlesAreNoOps) {
  // Pool instances constructed without a registry hold default handles;
  // instrumented code must not need null checks.
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(1);
  g.update_max(2);
  h.observe(3);  // no crash is the assertion
}

TEST(Registry, ResetZeroesValuesKeepsMetricSet) {
  Registry reg;
  Counter c = reg.counter("n_total", "n");
  Histogram h = reg.histogram("v", "v", {1.0});
  c.inc(5);
  h.observe(0.5);
  reg.reset();
  Snapshot snap = reg.snapshot();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.find("n_total")->value, 0.0);
  EXPECT_DOUBLE_EQ(snap.find("v")->count, 0.0);
  c.inc();  // handles stay valid across reset
  EXPECT_DOUBLE_EQ(reg.snapshot().find("n_total")->value, 1.0);
}

// The tier-1 tsan target: many threads hammering the same counter and
// histogram must be race-free and, because every increment is +1 (exactly
// representable), the shard merge must sum exactly.
TEST(Registry, ConcurrentIncrementsSumExactly) {
  Registry reg;
  Counter c = reg.counter("hits_total", "hits", Stability::Volatile);
  Histogram h =
      reg.histogram("obs", "observations", {1.0, 2.0}, Stability::Volatile);
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(1.5);
      }
    });
  }
  for (auto& w : workers) w.join();
  Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.find("hits_total")->value, 1.0 * kThreads * kIters);
  EXPECT_DOUBLE_EQ(snap.find("obs")->count, 1.0 * kThreads * kIters);
  EXPECT_DOUBLE_EQ(snap.find("obs")->buckets[1], 1.0 * kThreads * kIters);
}

TEST(Snapshot, DeltaSubtractsCountersKeepsGauges) {
  Registry reg;
  Counter c = reg.counter("work_total", "work");
  Gauge g = reg.gauge("level", "level");
  Histogram h = reg.histogram("t", "t", {1.0});
  c.inc(10);
  g.set(4);
  h.observe(0.5);
  Snapshot base = reg.snapshot();
  c.inc(7);
  g.set(9);
  h.observe(2.0);
  Snapshot d = reg.snapshot().delta(base);
  EXPECT_DOUBLE_EQ(d.find("work_total")->value, 7.0);
  EXPECT_DOUBLE_EQ(d.find("level")->value, 9.0);  // gauges: current value
  EXPECT_DOUBLE_EQ(d.find("t")->count, 1.0);
  EXPECT_DOUBLE_EQ(d.find("t")->buckets[0], 0.0);  // 2.0 went to overflow
  EXPECT_DOUBLE_EQ(d.find("t")->buckets[1], 1.0);
}

TEST(Snapshot, StableOnlyJsonExcludesVolatile) {
  Registry reg;
  reg.counter("stable_total", "s").inc();
  reg.counter("volatile_total", "v", Stability::Volatile).inc();
  std::string all = reg.snapshot().to_json();
  std::string stable = reg.snapshot().to_json(/*stable_only=*/true);
  EXPECT_NE(all.find("volatile_total"), std::string::npos);
  EXPECT_NE(stable.find("stable_total"), std::string::npos);
  EXPECT_EQ(stable.find("volatile_total"), std::string::npos);
}

TEST(Snapshot, JsonPrintsIntegralValuesWithoutExponent) {
  Registry reg;
  reg.counter("big_total", "b").inc(1e6);
  std::string js = reg.snapshot().to_json();
  EXPECT_NE(js.find("\"value\":1000000"), std::string::npos) << js;
}

TEST(Snapshot, PrometheusExposesHelpTypeAndCumulativeBuckets) {
  Registry reg;
  reg.counter("reqs_total", "requests").inc(3);
  Histogram h = reg.histogram("lat_seconds", "latency", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(10.0);
  std::string text = reg.snapshot().to_prometheus();
  EXPECT_NE(text.find("# HELP reqs_total requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE reqs_total counter"), std::string::npos);
  EXPECT_NE(text.find("reqs_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram"), std::string::npos);
  // Buckets are cumulative in the exposition format.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 3"), std::string::npos);
}

TEST(Util, SanitizeName) {
  EXPECT_EQ(sanitize_name("cg"), "cg");
  EXPECT_EQ(sanitize_name("Fig9/CG solve"), "Fig9_CG_solve");
  EXPECT_EQ(sanitize_name("9lives"), "_9lives");
  EXPECT_EQ(sanitize_name(""), "_");
}

TEST(Util, AppendJsonStringEscapes) {
  std::string out;
  append_json_string(out, "a\"b\\c\nd\x01" "e");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001e\"");
}

TEST(Registry, SnapshotDeltaAndJsonEmitSortedKeyOrder) {
  // Emission order must not leak registration order (which varies with
  // runtime configuration): snapshot, delta, and the JSON exporter all list
  // metrics sorted by name, so diffs of exported files are stable.
  Registry reg;
  Counter z = reg.counter("zz_last_total", "registered first");
  Gauge m = reg.gauge("mm_middle", "registered second");
  Counter a = reg.counter("aa_first_total", "registered last");
  z.inc();
  m.set(2);
  a.inc(3);
  Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "aa_first_total");
  EXPECT_EQ(snap.metrics[1].name, "mm_middle");
  EXPECT_EQ(snap.metrics[2].name, "zz_last_total");

  z.inc(4);
  Snapshot d = reg.snapshot().delta(snap);
  ASSERT_EQ(d.metrics.size(), 3u);
  EXPECT_EQ(d.metrics[0].name, "aa_first_total");
  EXPECT_EQ(d.metrics[2].name, "zz_last_total");
  EXPECT_DOUBLE_EQ(d.metrics[2].value, 4.0);

  std::string json = snap.to_json();
  auto pa = json.find("aa_first_total");
  auto pm = json.find("mm_middle");
  auto pz = json.find("zz_last_total");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pm, std::string::npos);
  ASSERT_NE(pz, std::string::npos);
  EXPECT_LT(pa, pm);
  EXPECT_LT(pm, pz);
}

// End-to-end: a runtime fence makes the stable counters visible via
// Runtime::metrics_snapshot(), and the registry is per-engine (two runtimes
// never share values).
TEST(RuntimeMetrics, SnapshotAfterWorkAndPerEngineIsolation) {
  sim::PerfParams pp;
  rt::RuntimeOptions opts;
  opts.exec_threads = 2;
  rt::Runtime rt_a(sim::Machine::gpus(2, pp), opts);
  rt::Runtime rt_b(sim::Machine::gpus(2, pp), opts);

  rt::Store st = rt_a.create_store(rt::DType::F64, {1000});
  for (int i = 0; i < 3; ++i) {
    rt::TaskLauncher launch(rt_a, "fill");
    int out = launch.add_output(st);
    launch.set_leaf([out](rt::TaskContext& ctx) {
      auto y = ctx.full<double>(out);
      Interval iv = ctx.elem_interval(out);
      for (coord_t j = iv.lo; j < iv.hi; ++j) y[j] = 1.0;
    });
    launch.set_cost([=](const rt::TaskContext& ctx) {
      const Interval iv = ctx.elem_interval(out);
      return rt::TaskCost{static_cast<double>(iv.size()) * 8, 0};
    });
    launch.execute();
  }
  Snapshot snap_a = rt_a.metrics_snapshot();
  Snapshot snap_b = rt_b.metrics_snapshot();
  const Snapshot::Metric* launches = snap_a.find("lsr_rt_launches_total");
  ASSERT_NE(launches, nullptr);
  // With fusion on, the three back-to-back fills collapse into one fused
  // launch; applied + eliminated always accounts for every original launch.
  const Snapshot::Metric* elim = snap_a.find("lsr_fuse_launches_eliminated_total");
  ASSERT_NE(elim, nullptr);
  EXPECT_DOUBLE_EQ(launches->value + elim->value, 3.0);
  EXPECT_DOUBLE_EQ(snap_b.find("lsr_rt_launches_total")->value, 0.0);
}

TEST(RuntimeMetrics, DiagMetricsRegisteredWithDocumentedStability) {
  // The lsr_diag_* family (DESIGN.md section 14): replay-path event counts
  // and trip/dump counters are Stable (deterministic at any thread count),
  // per-thread event counts and the ring high-water mark are Volatile.
  sim::PerfParams pp;
  rt::RuntimeOptions opts;
  opts.diag = diag::Mode::On;
  opts.diag_opts.watchdog = false;
  rt::Runtime rt(sim::Machine::gpus(2, pp), opts);

  rt::Store st = rt.create_store(rt::DType::F64, {100});
  rt::TaskLauncher launch(rt, "fill");
  int out = launch.add_output(st);
  launch.set_leaf([out](rt::TaskContext& ctx) {
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t j = iv.lo; j < iv.hi; ++j) y[j] = 1.0;
  });
  launch.set_cost([=](const rt::TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(out);
    return rt::TaskCost{static_cast<double>(iv.size()) * 8, 0};
  });
  launch.execute();
  rt.fence();

  Snapshot snap = rt.metrics_snapshot();
  const struct {
    const char* name;
    Stability st;
  } expected[] = {
      {"lsr_diag_events_recorded_total", Stability::Stable},
      {"lsr_diag_events_dropped_total", Stability::Stable},
      {"lsr_diag_watchdog_trips_total", Stability::Stable},
      {"lsr_diag_dumps_written_total", Stability::Stable},
      {"lsr_diag_thread_events_total", Stability::Volatile},
      {"lsr_diag_thread_events_dropped_total", Stability::Volatile},
      {"lsr_diag_ring_high_water", Stability::Volatile},
  };
  for (const auto& e : expected) {
    const Snapshot::Metric* m = snap.find(e.name);
    ASSERT_NE(m, nullptr) << e.name;
    EXPECT_EQ(m->stability, e.st) << e.name;
  }
  EXPECT_GT(snap.find("lsr_diag_events_recorded_total")->value, 0.0);
  EXPECT_DOUBLE_EQ(snap.find("lsr_diag_watchdog_trips_total")->value, 0.0);
  EXPECT_GT(snap.find("lsr_diag_ring_high_water")->value, 0.0);
}

}  // namespace
}  // namespace legate::metrics

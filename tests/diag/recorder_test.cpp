// lsr_diag flight recorder: ring semantics (overwrite-oldest, drop counts,
// reset-by-floor), cross-thread drain ordering, mode/option parsing, dump
// JSON shape, the reset/flush-sink contract, and the determinism acceptance
// check (stable snapshots bit-identical at any thread count with diag on).
#include "diag/diag.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rt/runtime.h"
#include "sim/machine.h"
#include "solve/krylov.h"
#include "sparse/formats.h"

namespace legate::diag {
namespace {

Event make_event(std::uint64_t seq, const char* label) {
  Event e;
  e.seq = seq;
  e.wall = static_cast<double>(seq);
  e.kind = EventKind::Mark;
  std::snprintf(e.label, sizeof e.label, "%s", label);
  return e;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Fresh per-test dump directory under the build tree.
std::string test_dump_dir(const char* name) {
  std::string dir = std::string("diag_dumps_") + name;
  std::remove(dir.c_str());  // best effort; dump() mkdirs as needed
  return dir;
}

TEST(DiagRing, DrainReturnsPushedOrderOldestFirst) {
  Ring r(8, "t");
  for (int i = 1; i <= 5; ++i) EXPECT_FALSE(r.push(make_event(i, "e")));
  auto evs = r.drain();
  ASSERT_EQ(evs.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(evs[i].seq, static_cast<unsigned>(i + 1));
}

TEST(DiagRing, OverwritesOldestAndCountsDrops) {
  Ring r(8, "t");  // capacities round up to a power of two, minimum 8
  EXPECT_EQ(r.capacity(), 8u);
  for (int i = 1; i <= 20; ++i) r.push(make_event(i, "e"));
  EXPECT_EQ(r.pushed(), 20u);
  EXPECT_EQ(r.dropped(), 12u);  // 20 pushed into 8 slots
  auto evs = r.drain();
  ASSERT_EQ(evs.size(), 8u);
  EXPECT_EQ(evs.front().seq, 13u);  // oldest surviving
  EXPECT_EQ(evs.back().seq, 20u);
}

TEST(DiagRing, FloorResetEmptiesWithoutTouchingSlotsOrCountingDrops) {
  Ring r(8, "t");
  for (int i = 1; i <= 4; ++i) r.push(make_event(i, "e"));
  r.set_floor_head();
  EXPECT_EQ(r.resident(), 0u);
  // Pushes after a floor reset overwrite logically-dead slots: no drops.
  const auto dropped_before = r.dropped();
  for (int i = 5; i <= 8; ++i) EXPECT_FALSE(r.push(make_event(i, "e")));
  EXPECT_EQ(r.dropped(), dropped_before);
  auto evs = r.drain(/*min_seq=*/5);
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().seq, 5u);
}

TEST(DiagParse, ModeAndLogLevelAndNames) {
  EXPECT_EQ(parse_mode("off"), Mode::Off);
  EXPECT_EQ(parse_mode("0"), Mode::Off);
  EXPECT_EQ(parse_mode("on"), Mode::On);
  EXPECT_EQ(parse_mode("1"), Mode::On);
  EXPECT_EQ(parse_mode("abort-on-hang"), Mode::AbortOnHang);
  EXPECT_EQ(parse_mode("ABORT"), Mode::AbortOnHang);
  EXPECT_EQ(parse_mode("bogus"), Mode::Unset);
  EXPECT_EQ(parse_mode(nullptr), Mode::Unset);
  EXPECT_STREQ(mode_name(Mode::On), "on");
  EXPECT_STREQ(mode_name(Mode::AbortOnHang), "abort-on-hang");

  EXPECT_EQ(parse_log_level("silent"), LogLevel::Silent);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
}

TEST(DiagOptions, FromEnvOverlaysDefaults) {
  ::setenv("LSR_DIAG_RING", "128", 1);
  ::setenv("LSR_DIAG_STALL_S", "1.5", 1);
  ::setenv("LSR_DIAG_DIVERGENCE_WINDOW", "7", 1);
  ::setenv("LSR_DIAG_DIR", "some/dir", 1);
  Options o = Options::from_env();
  EXPECT_EQ(o.ring_capacity, 128u);
  EXPECT_DOUBLE_EQ(o.stall_deadline_s, 1.5);
  EXPECT_EQ(o.divergence_window, 7);
  EXPECT_EQ(o.dump_dir, "some/dir");
  ::unsetenv("LSR_DIAG_RING");
  ::unsetenv("LSR_DIAG_STALL_S");
  ::unsetenv("LSR_DIAG_DIVERGENCE_WINDOW");
  ::unsetenv("LSR_DIAG_DIR");
}

TEST(DiagRecorder, DisabledRecorderRecordsNothing) {
  FlightRecorder fr;
  fr.record(EventKind::Mark, "ignored");
  fr.record_thread(EventKind::Mark, "ignored");
  EXPECT_EQ(fr.events_recorded(), 0u);
  EXPECT_FALSE(fr.enabled());
}

TEST(DiagRecorder, RecordsEventsWithMonotoneSeqAndLabels) {
  FlightRecorder fr;
  Options o;
  o.watchdog = false;
  fr.configure(Mode::On, o);
  fr.record(EventKind::Launch, "spmv", 3, 0, 1.5);
  fr.record(EventKind::Retire, "spmv");
  auto d = fr.drain();
  ASSERT_EQ(d.events.size(), 2u);
  EXPECT_LT(d.events[0].second.seq, d.events[1].second.seq);
  EXPECT_EQ(d.events[0].second.kind, EventKind::Launch);
  EXPECT_STREQ(d.events[0].second.label, "spmv");
  EXPECT_EQ(d.events[0].second.a, 3);
  EXPECT_DOUBLE_EQ(d.events[0].second.v, 1.5);
}

TEST(DiagRecorder, CrossThreadDrainIsSortedByWallThenSeq) {
  // Satellite (b): events recorded from several threads must come out of
  // drain() in a monotonic (wall, seq) order, whatever the ring layout.
  FlightRecorder fr;
  Options o;
  o.watchdog = false;
  fr.configure(Mode::On, o);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&fr] {
      for (int i = 0; i < 50; ++i) fr.record_thread(EventKind::Mark, "m", i);
    });
  }
  for (auto& th : ts) th.join();
  fr.record(EventKind::Fence, "fence");
  auto d = fr.drain();
  ASSERT_EQ(d.events.size(), 201u);
  for (std::size_t i = 1; i < d.events.size(); ++i) {
    const Event& prev = d.events[i - 1].second;
    const Event& cur = d.events[i].second;
    EXPECT_TRUE(prev.wall < cur.wall ||
                (prev.wall == cur.wall && prev.seq <= cur.seq))
        << "event " << i << " out of order";
  }
  EXPECT_GE(d.rings.size(), 2u);  // sim ring + at least one thread ring
}

TEST(DiagRecorder, ResetRunsFlushSinkThenDrainsEmpty) {
  FlightRecorder fr;
  Options o;
  o.watchdog = false;
  fr.configure(Mode::On, o);
  fr.record(EventKind::Mark, "pre-reset");
  int sink_events = -1;
  fr.set_flush_sink([&sink_events](FlightRecorder& r) {
    sink_events = static_cast<int>(r.drain().events.size());
  });
  fr.reset();
  EXPECT_EQ(sink_events, 1);  // sink saw the event before the floor rose
  EXPECT_TRUE(fr.drain().events.empty());
  // Recording continues after reset on the same rings.
  fr.record(EventKind::Mark, "post-reset");
  auto d = fr.drain();
  ASSERT_EQ(d.events.size(), 1u);
  EXPECT_STREQ(d.events[0].second.label, "post-reset");
}

TEST(DiagRecorder, DumpWritesVersionedJsonWithSuspectBlock) {
  FlightRecorder fr;
  Options o;
  o.watchdog = false;
  o.dump_dir = test_dump_dir("basic");
  fr.configure(Mode::On, o);
  fr.begin_launch("suspect_task", 2);
  fr.record(EventKind::Launch, "suspect_task");
  std::string path = fr.dump("unit-test");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("lsr_dump_"), std::string::npos);
  std::string j = slurp(path);
  EXPECT_NE(j.find("\"schema\":1"), std::string::npos);
  EXPECT_NE(j.find("\"tool\":\"lsr_diag\""), std::string::npos);
  EXPECT_NE(j.find("\"reason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(j.find("\"suspect\""), std::string::npos);
  EXPECT_NE(j.find("suspect_task"), std::string::npos);
  EXPECT_NE(j.find("\"active\":true"), std::string::npos);
  EXPECT_EQ(fr.dumps_written(), 1u);
  fr.end_launch();
  std::remove(path.c_str());
}

TEST(DiagGuard, DivergenceGuardTripsOnStagnationNotOnProgress) {
  FlightRecorder fr;
  Options o;
  o.watchdog = false;
  o.dump_on_trip = false;
  o.divergence_window = 5;
  o.divergence_rtol = 1e-3;
  fr.configure(Mode::On, o);
  {
    DivergenceGuard improving(fr, "cg");
    double r = 1.0;
    for (int i = 0; i < 50; ++i) {
      EXPECT_FALSE(improving.observe(i, r));
      r *= 0.5;
    }
    EXPECT_FALSE(improving.tripped());
  }
  {
    DivergenceGuard stuck(fr, "cg");
    bool tripped_now = false;
    for (int i = 0; i < 10 && !tripped_now; ++i)
      tripped_now = stuck.observe(i, 1.0);
    EXPECT_TRUE(stuck.tripped());
    EXPECT_GE(fr.trips(), 1u);
    // Once tripped, the guard stays quiet (one trip per solve).
    EXPECT_FALSE(stuck.observe(11, 1.0));
  }
}

TEST(DiagGuard, NonFiniteResidualNeverCountsAsProgress) {
  FlightRecorder fr;
  Options o;
  o.watchdog = false;
  o.dump_on_trip = false;
  o.divergence_window = 4;
  fr.configure(Mode::On, o);
  DivergenceGuard g(fr, "cg");
  const double nan = std::nan("");
  bool tripped = false;
  for (int i = 0; i < 6 && !tripped; ++i) tripped = g.observe(i, nan);
  EXPECT_TRUE(g.tripped());
}

// --- runtime integration ---------------------------------------------------

namespace rttest {

using rt::Runtime;
using rt::RuntimeOptions;
using rt::Store;
using rt::TaskLauncher;

void run_axpy(Runtime& rt, Store& s, double v, const char* name = "axpy") {
  TaskLauncher launch(rt, name);
  int out = launch.add_output(s);
  launch.set_leaf([out, v](rt::TaskContext& ctx) {
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] += v;
  });
  launch.set_cost([=](const rt::TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(out);
    return rt::TaskCost{static_cast<double>(iv.size()) * 16, static_cast<double>(iv.size())};
  });
  launch.execute();
}

}  // namespace rttest

TEST(DiagRuntime, LaunchAndRetireEventsFlowIntoStableMetrics) {
  sim::PerfParams pp;
  auto m = sim::Machine::gpus(2, pp);
  rt::RuntimeOptions opts;
  opts.diag = Mode::On;
  opts.diag_opts.watchdog = false;
  rt::Runtime rt(m, opts);
  rt::Store s = rt.create_store(rt::DType::F64, {64});
  rttest::run_axpy(rt, s, 1.0);
  rt.fence();
  auto& fr = rt.flight();
  ASSERT_TRUE(fr.enabled());
  auto d = fr.drain();
  bool saw_launch = false, saw_retire = false;
  for (const auto& [ring, ev] : d.events) {
    if (ev.kind == EventKind::Launch) saw_launch = true;
    if (ev.kind == EventKind::Retire) saw_retire = true;
  }
  EXPECT_TRUE(saw_launch);
  EXPECT_TRUE(saw_retire);
  auto snap = rt.metrics_snapshot();
  const auto* rec = snap.find("lsr_diag_events_recorded_total");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->stability, metrics::Stability::Stable);
  EXPECT_GT(rec->value, 0.0);
  const auto* trips = snap.find("lsr_diag_watchdog_trips_total");
  ASSERT_NE(trips, nullptr);
  EXPECT_DOUBLE_EQ(trips->value, 0.0);  // healthy run
}

TEST(DiagRuntime, StableSnapshotsBitIdenticalAcrossThreadsWithDiagOn) {
  // The acceptance determinism check: everything Stable — including the
  // lsr_diag event counters — must be bit-identical at any exec thread
  // count while the recorder is on.
  auto run = [](int threads) {
    sim::PerfParams pp;
    auto m = sim::Machine::gpus(3, pp);
    rt::RuntimeOptions opts;
    opts.exec_threads = threads;
    opts.diag = Mode::On;
    opts.diag_opts.watchdog = false;
    rt::Runtime rt(m, opts);
    auto A = sparse::diags(rt, 96, {{-1, -1.0}, {0, 2.0}, {1, -1.0}});
    auto b = dense::DArray::random(rt, 96, 7);
    auto res = solve::cg(A, b, 1e-10, 200);
    EXPECT_TRUE(res.converged);
    rt.fence();
    return rt.metrics_snapshot().to_json(/*stable_only=*/true);
  };
  const std::string t1 = run(1);
  EXPECT_EQ(t1, run(4));
  EXPECT_EQ(t1, run(8));
}

TEST(DiagRuntime, SimTimeIdenticalWithDiagOnAndOff) {
  // Recording charges no simulated time: bit-identical makespans.
  auto run = [](Mode mode) {
    sim::PerfParams pp;
    auto m = sim::Machine::gpus(2, pp);
    rt::RuntimeOptions opts;
    opts.diag = mode;
    opts.diag_opts.watchdog = false;
    rt::Runtime rt(m, opts);
    rt::Store s = rt.create_store(rt::DType::F64, {256});
    for (int i = 0; i < 10; ++i) rttest::run_axpy(rt, s, 1.0);
    rt.fence();
    return rt.sim_time();
  };
  EXPECT_EQ(run(Mode::Off), run(Mode::On));
}

}  // namespace
}  // namespace legate::diag

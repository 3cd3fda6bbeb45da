// Tests for the legate::prof timeline recorder, the Chrome-trace exporter
// and the utilization / traffic / critical-path analyses, including an
// end-to-end CG run through the real runtime stack.
#include "prof/prof.h"

#include <gtest/gtest.h>

#include <cctype>
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/workloads.h"
#include "prof/analysis.h"
#include "prof/trace.h"
#include "rt/runtime.h"
#include "solve/krylov.h"
#include "sparse/formats.h"
#include "sparse/csr.h"

namespace legate::prof {
namespace {

// --- Minimal JSON parser (validation + structural access) ------------------
//
// Enough of RFC 8259 to load what chrome_trace_json emits; throws
// std::runtime_error on any syntax violation, which is the point: the
// golden-file test fails if the exporter ever produces invalid JSON.

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind{Kind::Null};
  bool boolean{false};
  double number{0};
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return literal("true", boolean(true));
      case 'f': return literal("false", boolean(false));
      case 'n': return literal("null", JsonValue{});
      default: return number();
    }
  }

  static JsonValue boolean(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.boolean = b;
    return v;
  }

  JsonValue literal(const std::string& word, JsonValue v) {
    if (s_.compare(pos_, word.size(), word) != 0) fail("bad literal");
    pos_ += word.size();
    return v;
  }

  JsonValue number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected number");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("malformed number");
    }
    return v;
  }

  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        v.str += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("bad escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': v.str += '"'; break;
        case '\\': v.str += '\\'; break;
        case '/': v.str += '/'; break;
        case 'b': v.str += '\b'; break;
        case 'f': v.str += '\f'; break;
        case 'n': v.str += '\n'; break;
        case 'r': v.str += '\r'; break;
        case 't': v.str += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit");
          }
          // The exporter only escapes control characters; keep ASCII simple.
          v.str += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
    return v;
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object[key.str] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& s_;
  std::size_t pos_{0};
};

JsonValue parse_json(const std::string& text) { return JsonParser(text).parse(); }

// --- Recorder unit tests ---------------------------------------------------

TEST(RecorderTest, DisabledRecorderStoresNothingThroughEngine) {
  sim::PerfParams pp;
  sim::Machine m = sim::Machine::gpus(2, pp);
  sim::Engine e(m);
  e.busy_proc(0, 0.0, 1.0, "t");
  e.copy(sim::Copy::Ghost, m.proc(0).mem, m.proc(1).mem, 1e6, 0.0);
  e.allreduce_bytes(2, 1e3, 0.0, true);
  EXPECT_FALSE(e.recorder().enabled());
  EXPECT_TRUE(e.recorder().events().empty());
  EXPECT_TRUE(e.recorder().tracks().empty());
  EXPECT_TRUE(e.recorder().traffic().empty());
}

TEST(RecorderTest, TrackInterningIsStable) {
  Recorder r;
  r.enable();
  int a = r.track("GPU0", 0);
  int b = r.track("GPU1", 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(r.track("GPU0", 0), a);
  EXPECT_EQ(r.tracks()[static_cast<std::size_t>(b)].node, 1);
}

TEST(RecorderTest, PredResolvesProducerByCompletionTime) {
  Recorder r;
  r.enable();
  int p0 = r.track("p0", 0);
  int p1 = r.track("p1", 0);
  std::uint64_t a = r.record(Category::Kernel, p0, 0.0, 1.0, -1.0, "a");
  // b starts exactly when a completes and was gated by it (ready == 1.0).
  std::uint64_t b = r.record(Category::Copy, p1, 1.0, 1.5, 1.0, "b");
  // c queues behind b on the same track with no data gate: track pred.
  std::uint64_t c = r.record(Category::Kernel, p1, 1.5, 2.0, -1.0, "c");
  EXPECT_EQ(r.events()[b].pred, static_cast<std::int64_t>(a));
  EXPECT_EQ(r.events()[c].pred, static_cast<std::int64_t>(b));
  // A marker completing at the same instant, on either track, changes no
  // edge: d is still gated by its producer c, e still queues behind d.
  std::uint64_t m0 = r.record(Category::Comm, p1, 2.0, 2.0, -1.0, "comm");
  r.record(Category::Fused, p0, 2.0, 2.0, -1.0, "fused");
  std::uint64_t d = r.record(Category::Kernel, p0, 2.0, 2.5, 2.0, "d");
  std::uint64_t e = r.record(Category::Kernel, p0, 2.5, 3.0, -1.0, "e");
  EXPECT_EQ(r.events()[m0].pred, -1);
  EXPECT_EQ(r.events()[d].pred, static_cast<std::int64_t>(c));
  EXPECT_EQ(r.events()[e].pred, static_cast<std::int64_t>(d));
}

TEST(RecorderTest, ResetDropsEventsBusyAndTraffic) {
  Recorder r;
  r.enable();
  int t = r.track("p", 0);
  r.record(Category::Kernel, t, 0.0, 1.0, -1.0, "a");
  r.add_busy(t, 1.0);
  r.add_traffic(0, 1, 100.0);
  r.reset();
  EXPECT_TRUE(r.enabled());
  EXPECT_TRUE(r.events().empty());
  EXPECT_TRUE(r.tracks().empty());
  EXPECT_TRUE(r.traffic().empty());
}

TEST(RecorderTest, FlushSinkRunsBeforeResetDropsEvents) {
  Recorder r;
  r.enable();
  int flushed_events = -1;
  int calls = 0;
  r.set_flush_sink([&](const Recorder& rec) {
    ++calls;
    flushed_events = static_cast<int>(rec.events().size());
  });
  int t = r.track("p", 0);
  r.record(Category::Kernel, t, 0.0, 1.0, -1.0, "a");
  r.record(Category::Copy, t, 1.0, 2.0, -1.0, "b");
  r.reset();
  // The sink saw the events intact; the reset still dropped them after.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(flushed_events, 2);
  EXPECT_TRUE(r.events().empty());
  // An empty window flushes nothing (no spurious empty trace exports).
  r.reset();
  EXPECT_EQ(calls, 1);
}

TEST(RecorderTest, FlushSinkIgnoredWhileDisabled) {
  Recorder r;  // never enabled: reset must not invoke the sink
  int calls = 0;
  r.set_flush_sink([&](const Recorder&) { ++calls; });
  r.reset();
  EXPECT_EQ(calls, 0);
}

// --- Analysis unit tests ---------------------------------------------------

TEST(AnalysisTest, UtilizationSkipsIdleTracks) {
  Recorder r;
  r.enable();
  int a = r.track("gpu0", 0);
  r.track("gpu1", 0);  // never busy
  r.add_busy(a, 2.0);
  auto rows = utilization(r, 4.0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].track, "gpu0");
  EXPECT_DOUBLE_EQ(rows[0].fraction, 0.5);
}

TEST(AnalysisTest, TrafficMatrixAccumulatesPerNodePair) {
  Recorder r;
  r.enable();
  r.add_traffic(0, 1, 5.0);
  r.add_traffic(0, 1, 7.0);
  r.add_traffic(1, 0, 1.0);
  EXPECT_DOUBLE_EQ(r.traffic().at({0, 1}), 12.0);
  EXPECT_DOUBLE_EQ(r.traffic().at({1, 0}), 1.0);
}

TEST(AnalysisTest, CriticalPathFollowsReadyChain) {
  Recorder r;
  r.enable();
  int p0 = r.track("p0", 0);
  int p1 = r.track("p1", 0);
  std::uint64_t a = r.record(Category::Kernel, p0, 0.0, 1.0, -1.0, "a");
  std::uint64_t b = r.record(Category::Copy, p1, 1.0, 1.5, 1.0, "b");
  std::uint64_t c = r.record(Category::Kernel, p0, 1.5, 3.0, 1.5, "c");
  // A short event elsewhere must not divert the chain.
  r.record(Category::Kernel, p1, 1.5, 1.6, -1.0, "short");
  CriticalPath cp = critical_path(r);
  EXPECT_DOUBLE_EQ(cp.total_seconds, 3.0);
  ASSERT_EQ(cp.chain.size(), 3u);
  EXPECT_EQ(cp.chain[0], a);
  EXPECT_EQ(cp.chain[1], b);
  EXPECT_EQ(cp.chain[2], c);
  EXPECT_DOUBLE_EQ(cp.by_category.at("kernel"), 2.5);
  EXPECT_DOUBLE_EQ(cp.by_category.at("copy"), 0.5);
  EXPECT_DOUBLE_EQ(cp.wait_seconds, 0.0);
}

TEST(AnalysisTest, CriticalPathAttributesGapsAsWait) {
  Recorder r;
  r.enable();
  int p0 = r.track("p0", 0);
  std::uint64_t a = r.record(Category::Kernel, p0, 0.0, 1.0, -1.0, "a");
  // Gated by a (ready == 1.0) but started 0.5 s later: fan-in wait.
  std::uint64_t b = r.record(Category::Kernel, p0, 1.5, 2.0, 1.0, "b");
  (void)a;
  (void)b;
  CriticalPath cp = critical_path(r);
  EXPECT_DOUBLE_EQ(cp.total_seconds, 2.0);
  EXPECT_DOUBLE_EQ(cp.wait_seconds, 0.5);
  EXPECT_DOUBLE_EQ(cp.by_category.at("kernel"), 1.5);
}

// --- Chrome-trace exporter -------------------------------------------------

TEST(TraceTest, EscapesSpecialCharactersInNames) {
  Recorder r;
  r.enable();
  int t = r.track("tr\"ack\\one", 0);
  r.record(Category::Kernel, t, 0.0, 1.0, -1.0, "na\"me\\with\nnewline");
  JsonValue doc = parse_json(chrome_trace_json(r));
  bool found = false;
  for (const auto& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").str == "X" && ev.at("name").str == "na\"me\\with\nnewline")
      found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TraceTest, EscapesControlCharactersInNames) {
  // Regression: \b, \f and raw control bytes (0x01, 0x1f) in labels must
  // produce valid JSON — parse_json throws on any raw control character or
  // malformed escape, so a round-trip is the whole assertion.
  const std::string nasty = std::string("a\bb\fc\x01d\x1f") + "e\tf\rg";
  Recorder r;
  r.enable();
  int t = r.track(nasty, 0);
  r.record(Category::Kernel, t, 0.0, 1.0, -1.0, nasty);
  JsonValue doc = parse_json(chrome_trace_json(r));
  bool found = false;
  for (const auto& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").str == "X" && ev.at("name").str == nasty) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TraceTest, MetricsSnapshotEmitsInstantMarker) {
  sim::PerfParams pp;
  sim::Machine m = sim::Machine::gpus(1, pp);
  sim::Engine e(m);
  e.recorder().enable();
  e.emit(sim::Ev::Snapshot);
  JsonValue doc = parse_json(chrome_trace_json(e.recorder()));
  bool found = false;
  for (const auto& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").str == "i" && ev.at("name").str == "metrics-snapshot")
      found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TraceTest, InstantMarkersUseInstantPhase) {
  sim::PerfParams pp;
  sim::Machine m = sim::Machine::gpus(1, pp);
  sim::Engine e(m);
  e.recorder().enable();
  for (sim::Ev k : {sim::Ev::Fault, sim::Ev::Retry, sim::Ev::Spill,
                    sim::Ev::FlipInjected, sim::Ev::Fused, sim::Ev::Comm}) {
    e.emit(k);
  }
  JsonValue doc = parse_json(chrome_trace_json(e.recorder()));
  int instants = 0;
  for (const auto& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").str == "i") ++instants;
  }
  EXPECT_EQ(instants, 6);
}

TEST(TraceTest, EventsEmitInMonotonicTimestampOrderPerProcess) {
  // Regression (lsr_diag satellite): events appended out of timestamp order
  // — the exec pool's worker threads interleave arbitrarily — must still be
  // emitted with monotonic ts within each process so dumps and streaming
  // trace consumers see an ordered timeline.
  Recorder r;
  r.enable();
  int t0 = r.track("gpu0", 0);
  int t1 = r.track("gpu1", 0);
  r.record(Category::Kernel, t0, 2.0, 3.0, -1.0, "late");
  r.record(Category::Kernel, t1, 0.0, 1.0, -1.0, "early");
  r.record(Category::Kernel, t0, 0.5, 1.5, -1.0, "middle");
  r.set_wall(r.events().size() - 1, 0.25, 0.75);
  JsonValue doc = parse_json(chrome_trace_json(r));
  double last_sim = -1.0, last_wall = -1.0;
  int sim_events = 0;
  for (const auto& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").str != "X") continue;
    const double ts = ev.at("ts").number;
    if (ev.at("pid").number == 999) {
      EXPECT_GE(ts, last_wall);
      last_wall = ts;
    } else {
      EXPECT_GE(ts, last_sim) << "sim timeline out of order at " << ts;
      last_sim = ts;
      ++sim_events;
    }
  }
  EXPECT_EQ(sim_events, 3);
}

// --- End-to-end: a small CG solve through the real stack -------------------

struct CgRun {
  std::unique_ptr<rt::Runtime> runtime;
  solve::SolveResult result;
};

CgRun run_small_cg(bool profile) {
  sim::PerfParams pp;
  sim::Machine machine = sim::Machine::gpus(12, pp);  // 2 nodes
  auto runtime = std::make_unique<rt::Runtime>(machine);
  if (profile) runtime->engine().recorder().enable();
  apps::HostProblem prob = apps::poisson2d(48);
  auto A = sparse::CsrMatrix::from_host(*runtime, prob.rows, prob.cols,
                                        prob.indptr, prob.indices, prob.values);
  auto b = dense::DArray::full(*runtime, prob.rows, 1.0);
  CgRun run;
  run.result = solve::cg(A, b, /*tol=*/0.0, /*maxiter=*/8);
  run.runtime = std::move(runtime);
  return run;
}

TEST(ProfEndToEndTest, RecordingDoesNotPerturbSimulation) {
  CgRun off = run_small_cg(false);
  CgRun on = run_small_cg(true);
  // Bit-identical times and counters: profiling only observes.
  EXPECT_DOUBLE_EQ(off.runtime->sim_time(), on.runtime->sim_time());
  const auto& so = off.runtime->engine().stats();
  const auto& sn = on.runtime->engine().stats();
  EXPECT_EQ(so.tasks, sn.tasks);
  EXPECT_EQ(so.copies, sn.copies);
  EXPECT_EQ(so.allreduces, sn.allreduces);
  EXPECT_DOUBLE_EQ(so.bytes_ib, sn.bytes_ib);
  EXPECT_DOUBLE_EQ(so.bytes_nvlink, sn.bytes_nvlink);
  EXPECT_DOUBLE_EQ(so.bytes_intra, sn.bytes_intra);
  EXPECT_DOUBLE_EQ(off.result.residual, on.result.residual);
  EXPECT_TRUE(off.runtime->engine().recorder().events().empty());
  EXPECT_FALSE(on.runtime->engine().recorder().events().empty());
}

TEST(ProfEndToEndTest, ChromeTraceIsValidJsonWithOneEventPerOperation) {
  CgRun run = run_small_cg(true);
  const auto& rec = run.runtime->engine().recorder();
  const auto& stats = run.runtime->engine().stats();

  JsonValue doc = parse_json(chrome_trace_json(rec));
  EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
  const auto& evs = doc.at("traceEvents").array;

  long kernels = 0, copies = 0, allreduces = 0, launches = 0, metadata = 0;
  for (const auto& ev : evs) {
    const std::string& ph = ev.at("ph").str;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_TRUE(ph == "X" || ph == "i");
    const std::string& cat = ev.at("cat").str;
    if (cat == "kernel") ++kernels;
    else if (cat == "copy") ++copies;
    else if (cat == "allreduce") ++allreduces;
    else if (cat == "launch-overhead") ++launches;
    // Every complete event carries non-negative duration and a name.
    if (ph == "X") {
      EXPECT_GE(ev.at("dur").number, 0.0);
      EXPECT_FALSE(ev.at("name").str.empty());
    }
  }
  // One timeline event per simulated operation. Kernel events cover point
  // tasks plus fault retries (none here).
  EXPECT_EQ(kernels, stats.tasks + stats.retries);
  EXPECT_EQ(copies, stats.copies);
  EXPECT_EQ(allreduces, stats.allreduces);
  EXPECT_GT(launches, 0);
  EXPECT_GT(metadata, 0);
}

TEST(ProfEndToEndTest, TaskLabelsCarryProvenance) {
  CgRun run = run_small_cg(true);
  bool saw_cg_scope = false;
  for (const auto& ev : run.runtime->engine().recorder().events()) {
    if (ev.cat == Category::Kernel &&
        ev.name.find("@cg") != std::string::npos)
      saw_cg_scope = true;
  }
  EXPECT_TRUE(saw_cg_scope);
}

TEST(ProfEndToEndTest, SummaryReportsAllSections) {
  CgRun run = run_small_cg(true);
  std::string s = summary(run.runtime->engine().recorder(),
                          run.runtime->engine().makespan());
  EXPECT_NE(s.find("utilization"), std::string::npos);
  EXPECT_NE(s.find("traffic matrix"), std::string::npos);
  EXPECT_NE(s.find("critical path"), std::string::npos);
  EXPECT_NE(s.find("kernel"), std::string::npos);
}

TEST(ProfEndToEndTest, TrafficMatrixSeesInterNodeBytes) {
  CgRun run = run_small_cg(true);
  const auto& traffic = run.runtime->engine().recorder().traffic();
  // 2-node machine: the CG allreduces cross the node boundary both ways.
  ASSERT_TRUE(traffic.count({0, 1}));
  ASSERT_TRUE(traffic.count({1, 0}));
  EXPECT_GT(traffic.at({0, 1}), 0.0);
  EXPECT_GT(traffic.at({1, 0}), 0.0);
}

// --- Runtime-recorded timelines: critical path and sink consistency -------

/// One run mode of the runtime-level critical-path test.
struct CritLeg {
  const char* name;
  rt::Fusion fusion;
  comm::Mode comm;
  bool whole_solve;          ///< the 4-GPU whole solve, not the steady state
  std::uint64_t fault_seed;  ///< 0: fault-free; else 1% transient faults
};

void PrintTo(const CritLeg& leg, std::ostream* os) { *os << leg.name; }

class RuntimeCriticalPath : public ::testing::TestWithParam<CritLeg> {};

TEST_P(RuntimeCriticalPath, ExplainsTheRecordedWindowWithoutWait) {
  // A CG solve recorded through the real runtime. Markers (fused, comm,
  // fault, retry, metrics-snapshot) fire on the control track in most of
  // these modes; none may become a predecessor, or the walk falls onto the
  // control lane and reports the gaps as wait.
  const CritLeg& leg = GetParam();
  sim::PerfParams pp;
  rt::RuntimeOptions opts;
  opts.fusion = leg.fusion;
  opts.comm = leg.comm;
  if (leg.fault_seed != 0) {
    // Each retry waits out its failure detection and backoff (300 us for a
    // first retry); a recovery interval on the point's processor covers it.
    opts.faults.enabled = true;
    opts.faults.seed = leg.fault_seed;
    opts.faults.task_fault_rate = 0.01;
  }
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<rt::Runtime> runtime;
  double t0 = 0;
  if (!leg.whole_solve) {
    // Steady state of a 2-D Poisson CG on 12 GPUs over 2 nodes, recorded
    // after a warm-up that distributes the matrix.
    machine = std::make_unique<sim::Machine>(sim::Machine::gpus(12, pp));
    runtime = std::make_unique<rt::Runtime>(*machine, opts);
    apps::HostProblem prob = apps::poisson2d(48);
    auto A = sparse::CsrMatrix::from_host(*runtime, prob.rows, prob.cols,
                                          prob.indptr, prob.indices, prob.values);
    auto b = dense::DArray::full(*runtime, prob.rows, 1.0);
    (void)solve::cg(A, b, /*tol=*/0.0, /*maxiter=*/2);
    t0 = runtime->sim_time();
    runtime->engine().recorder().enable();
    (void)solve::cg(A, b, /*tol=*/0.0, /*maxiter=*/8);
  } else {
    // bench_resilience's transient-1pct point: the whole solve recorded.
    machine = std::make_unique<sim::Machine>(
        sim::Machine::gpus(4, pp, /*gpus_per_node=*/2));
    runtime = std::make_unique<rt::Runtime>(*machine, opts);
    auto A = sparse::diags(*runtime, 4096, {{-1, -1.0}, {0, 2.0}, {1, -1.0}});
    auto b = dense::DArray::random(*runtime, 4096, 1);
    runtime->engine().recorder().enable();
    (void)solve::cg(A, b, /*tol=*/1e-8, /*maxiter=*/500);
  }
  if (leg.fault_seed != 0) {
    ASSERT_GT(runtime->engine().stats().retries, 0) << "no fault fired";
  }
  (void)runtime->metrics_snapshot();
  const Recorder& rec = runtime->engine().recorder();
  // The recorded window: first recorded start (the control lane issues a
  // little ahead of execution) to the final makespan.
  double first = runtime->sim_time();
  for (const Event& ev : rec.events()) first = std::min(first, ev.start);
  const double window = runtime->sim_time() - std::min(first, t0);

  const CriticalPath cp = critical_path(rec);
  ASSERT_FALSE(cp.chain.empty());
  ASSERT_GT(cp.total_seconds, 0.0);
  double attributed = cp.wait_seconds;
  for (const auto& [cat, sec] : cp.by_category) attributed += sec;
  EXPECT_NEAR(attributed, cp.total_seconds, 1e-9 * cp.total_seconds);
  EXPECT_LE(cp.total_seconds, window);
  EXPECT_LE(cp.wait_seconds, 0.01 * cp.total_seconds) << critical_path_report(rec);
  for (std::uint64_t id : cp.chain) EXPECT_FALSE(is_marker(rec.events()[id].cat));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RuntimeCriticalPath,
    ::testing::Values(
        CritLeg{"FuseOffCommOff", rt::Fusion::Off, comm::Mode::Off, false, 0},
        CritLeg{"FuseOffCommPlan", rt::Fusion::Off, comm::Mode::Plan, false, 0},
        CritLeg{"FuseOffCommOverlap", rt::Fusion::Off, comm::Mode::Overlap, false, 0},
        CritLeg{"FuseOnCommOff", rt::Fusion::On, comm::Mode::Off, false, 0},
        CritLeg{"FuseOnCommPlan", rt::Fusion::On, comm::Mode::Plan, false, 0},
        CritLeg{"FuseOnCommOverlap", rt::Fusion::On, comm::Mode::Overlap, false, 0},
        CritLeg{"TransientFaultsCommPlan", rt::Fusion::Off, comm::Mode::Plan, true, 7},
        CritLeg{"SteadyTransientFaults", rt::Fusion::Off, comm::Mode::Off, false, 11}),
    [](const ::testing::TestParamInfo<CritLeg>& info) {
      return std::string(info.param.name);
    });

/// Every sink of Engine::emit sees the same events: for each kind, the
/// prof marker count, the flight-recorder event count, the registry counter
/// and the Stats field agree.
void expect_sinks_agree(const rt::RuntimeOptions& opts) {
  sim::PerfParams pp;
  sim::Machine machine = sim::Machine::gpus(12, pp);
  rt::Runtime runtime(machine, opts);
  runtime.engine().recorder().enable();
  apps::HostProblem prob = apps::poisson2d(48);
  auto A = sparse::CsrMatrix::from_host(runtime, prob.rows, prob.cols,
                                        prob.indptr, prob.indices, prob.values);
  auto b = dense::DArray::full(runtime, prob.rows, 1.0);
  (void)solve::cg(A, b, /*tol=*/0.0, /*maxiter=*/12, nullptr,
                  solve::CheckpointPolicy{4});
  runtime.integrity_scrub();
  const metrics::Snapshot snap = runtime.metrics_snapshot();
  const sim::Stats st = runtime.engine().stats();
  auto counter = [&](const char* name) {
    const auto* m = snap.find(name);
    return m == nullptr ? -1L : static_cast<long>(m->value);
  };
  ASSERT_EQ(counter("lsr_diag_events_dropped_total"), 0) << "ring too small";

  std::map<Category, long> markers;
  for (const Event& ev : runtime.engine().recorder().events()) {
    if (is_marker(ev.cat)) ++markers[ev.cat];
  }
  std::map<diag::EventKind, long> recorded;
  long flip_codes[3] = {0, 0, 0};
  long fused_decisions = 0;
  for (const auto& [ring, ev] : runtime.engine().flight().drain().events) {
    ++recorded[ev.kind];
    if (ev.kind == diag::EventKind::Integrity) ++flip_codes[ev.a];
    if (ev.kind == diag::EventKind::FuseDecision &&
        std::string(ev.label) == "fused") {
      ++fused_decisions;
    }
  }

  // Every sink below must see something, or an agreement proves nothing.
  EXPECT_GT(markers[Category::Comm], 0);
  if (opts.faults.enabled) {
    EXPECT_GT(markers[Category::Retry], 0);
    EXPECT_GT(markers[Category::Integrity], 0);
    EXPECT_GT(flip_codes[2], 0);
  } else {
    EXPECT_GT(markers[Category::Fused], 0);
  }

  EXPECT_EQ(counter("lsr_sim_tasks_total"), st.tasks);
  // Fault: transient faults and node losses share the marker and counter.
  EXPECT_EQ(markers[Category::Fault],
            recorded[diag::EventKind::Fault] + recorded[diag::EventKind::NodeLoss]);
  EXPECT_EQ(markers[Category::Fault], counter("lsr_sim_faults_total"));
  EXPECT_EQ(markers[Category::Fault], st.faults_injected);
  EXPECT_EQ(markers[Category::Retry], recorded[diag::EventKind::Retry]);
  EXPECT_EQ(markers[Category::Retry], counter("lsr_sim_retries_total"));
  EXPECT_EQ(markers[Category::Retry], st.retries);
  EXPECT_EQ(markers[Category::Spill], recorded[diag::EventKind::Spill]);
  EXPECT_EQ(markers[Category::Spill], counter("lsr_sim_spills_total"));
  EXPECT_EQ(markers[Category::Spill], st.spills);
  EXPECT_EQ(markers[Category::Integrity], recorded[diag::EventKind::Integrity]);
  EXPECT_EQ(flip_codes[0], counter("lsr_integrity_flips_injected_total"));
  EXPECT_EQ(flip_codes[1], counter("lsr_integrity_flips_detected_total"));
  EXPECT_EQ(flip_codes[2], counter("lsr_integrity_flips_recovered_total"));
  EXPECT_EQ(flip_codes[0], st.flips_injected);
  EXPECT_EQ(flip_codes[1], st.flips_detected);
  EXPECT_EQ(flip_codes[2], st.flips_recovered);
  // Comm: one marker per applied plan (CG issues no shuffle).
  const comm::PlanStats plans = runtime.comm_plan_stats();
  EXPECT_EQ(markers[Category::Comm], recorded[diag::EventKind::Comm]);
  EXPECT_EQ(markers[Category::Comm], counter("lsr_comm_plan_hits_total") +
                                         counter("lsr_comm_plan_misses_total"));
  EXPECT_EQ(markers[Category::Comm], plans.hits + plans.misses);
  // Fused: one marker per fused launch, which folds k launches and
  // eliminates k - 1 of them.
  EXPECT_EQ(markers[Category::Fused], fused_decisions);
  EXPECT_EQ(markers[Category::Fused],
            counter("lsr_fuse_launches_fused_total") -
                counter("lsr_fuse_launches_eliminated_total"));
  EXPECT_EQ(markers[Category::Fused],
            runtime.fused_participants() - runtime.fused_eliminated());
  EXPECT_EQ(markers[Category::Snapshot], 1);

  // Markers export as instants, whatever their category.
  JsonValue doc = parse_json(chrome_trace_json(runtime.engine().recorder()));
  std::map<std::string, long> instants;
  for (const auto& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").str == "M") continue;
    bool marker = false;
    for (const CategoryInfo& c : kCategoryInfo) {
      if (c.marker && ev.at("cat").str == c.name) marker = true;
    }
    EXPECT_EQ(ev.at("ph").str == "i", marker) << ev.at("cat").str;
    if (marker) ++instants[ev.at("cat").str];
  }
  EXPECT_EQ(instants["integrity"], markers[Category::Integrity]);
  EXPECT_EQ(instants["comm"], markers[Category::Comm]);
}

rt::RuntimeOptions sink_options() {
  rt::RuntimeOptions opts;
  opts.comm = comm::Mode::Plan;
  opts.fusion = rt::Fusion::On;
  opts.diag = diag::Mode::On;
  opts.diag_opts.ring_capacity = 1 << 16;
  opts.diag_opts.watchdog = false;
  return opts;
}

TEST(EventSinks, CountsAgreeUnderFaultsIntegrityAndPlans) {
  rt::RuntimeOptions opts = sink_options();
  opts.integrity = rt::Integrity::Recover;
  opts.faults.enabled = true;  // also turns fusion off
  opts.faults.seed = 5;
  opts.faults.task_fault_rate = 0.01;
  opts.faults.bitflip_rate = 5e-3;
  opts.faults.output_flip_rate = 5e-3;
  expect_sinks_agree(opts);
}

TEST(EventSinks, CountsAgreeWithFusedLaunches) { expect_sinks_agree(sink_options()); }

}  // namespace
}  // namespace legate::prof

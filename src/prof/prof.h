#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace legate::prof {

/// What a timeline event represents; maps 1:1 onto the critical-path
/// attribution buckets (kernel / copy / launch-overhead / allreduce / stall /
/// checkpoint / recovery) plus the instant markers (see CategoryInfo::marker).
enum class Category {
  Kernel,     ///< a point-task execution on a processor
  Copy,       ///< data movement between (or within) memories
  Allreduce,  ///< a collective across the launch's processors
  Launch,     ///< control-lane time (op dispatch, dependence analysis)
  Stall,      ///< whole-machine outage (node-loss detection/admission)
  Checkpoint, ///< checkpoint write / restore read on the PFS channel
  Recovery,   ///< a failed point's detection latency and retry backoff
  Fault,      ///< marker: a fault was injected (transient or node loss)
  Retry,      ///< marker: a point task re-execution was scheduled
  Spill,      ///< marker: an allocation was evicted under OOM
  Snapshot,   ///< marker: a metrics snapshot was taken
  Integrity,  ///< marker: a silent flip was injected/detected/repaired
  Fused,      ///< marker: a launch window was rewritten into a fused launch
  Comm,       ///< marker: an exchange plan (or shuffle) was applied
};

/// Per-category facts, indexed by Category. A marker is an annotation: it
/// keeps its id and its place in Recorder::events(), but it never gates
/// another event (Recorder::record leaves it out of the track clocks and the
/// completion index), never anchors the critical path, and exports as a
/// Chrome-trace instant ("ph":"i").
struct CategoryInfo {
  const char* name;
  bool marker;
};
inline constexpr CategoryInfo kCategoryInfo[] = {
    {"kernel", false},           {"copy", false},
    {"allreduce", false},        {"launch-overhead", false},
    {"stall", false},            {"checkpoint", false},
    {"recovery", false},         {"fault", true},
    {"retry", true},             {"spill", true},
    {"metrics-snapshot", true},  {"integrity", true},
    {"fused", true},             {"comm", true},
};
static_assert(std::size(kCategoryInfo) ==
              static_cast<std::size_t>(Category::Comm) + 1);

[[nodiscard]] constexpr const char* category_name(Category c) {
  return kCategoryInfo[static_cast<std::size_t>(c)].name;
}
[[nodiscard]] constexpr bool is_marker(Category c) {
  return kCategoryInfo[static_cast<std::size_t>(c)].marker;
}

/// One interval on the recorded timeline. Times are simulated seconds.
struct Event {
  std::uint64_t id{0};
  Category cat{Category::Kernel};
  double start{0};
  double end{0};
  std::int32_t track{-1};   ///< index into Recorder::tracks()
  std::int64_t pred{-1};    ///< id of the event gating `start`; -1 = none
  std::string name;         ///< label (task name [provenance], copy route, ...)
  // Payload for copies / payload collectives.
  double bytes{0};
  int src_mem{-1}, dst_mem{-1};
  int src_node{-1}, dst_node{-1};
  /// Measured wall-clock interval of the real leaf execution backing this
  /// event (seconds since Recorder::wall_epoch()); negative when the event
  /// has no real counterpart (copies, collectives, simulated-only paths).
  /// Emitted as a separate process in the Chrome trace so simulated and
  /// measured timelines can be compared side by side.
  double wall_start{-1};
  double wall_end{-1};
};

/// A timeline row: one hardware resource (processor, link, NIC side, copy
/// engine, control lane, PFS channel). `node` groups tracks into
/// chrome-trace processes.
struct Track {
  std::string name;
  int node{0};
};

/// Per-event timeline recorder. Off by default: every mutating entry point
/// early-outs on `enabled()`, so a disabled recorder costs one branch per
/// engine call and allocates nothing.
///
/// Besides the event list, the recorder accumulates per-track busy seconds
/// (a single copy can occupy two NIC tracks but should appear once on the
/// timeline) and a node x node traffic matrix.
class Recorder {
 public:
  void enable(bool on = true) {
    enabled_ = on;
    // Epoch for the measured wall-clock track: leaf executions stamp their
    // real duration relative to this instant.
    if (on) wall_epoch_ = std::chrono::steady_clock::now();
  }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::chrono::steady_clock::time_point wall_epoch() const {
    return wall_epoch_;
  }

  /// Intern a track by name; repeated calls with the same name return the
  /// same index.
  int track(const std::string& name, int node);

  /// Record one event. `ready` is the dependence gate the engine's caller
  /// passed in (use a negative value when the event is purely
  /// resource-serialized, e.g. control-lane advances). The predecessor edge
  /// is resolved here: if the start was set by data readiness, the producer
  /// is looked up by its completion time; otherwise the previous event on
  /// the same track gates it. A marker category is appended with no edge
  /// and leaves every index untouched, so it never becomes a predecessor.
  std::uint64_t record(Category cat, int track, double start, double end,
                       double ready, std::string name);

  /// The most recently recorded event, for attaching payload fields.
  /// Only valid immediately after record() while enabled.
  Event& last() { return events_.back(); }

  /// Attach the measured wall-clock interval of the real execution backing
  /// event `index` (seconds since wall_epoch()). The runtime records a task
  /// event at issue and attaches its leaf's interval once the leaf finished.
  /// No-op when disabled or when no such event exists.
  void set_wall(std::size_t index, double w0, double w1) {
    if (!enabled_ || index >= events_.size()) return;
    events_[index].wall_start = w0;
    events_[index].wall_end = w1;
  }

  /// Push the most recent event's end time out to `new_end`, keeping the
  /// completion index and track clock consistent (payload collectives add a
  /// ring term after the base event is recorded).
  void extend_last(double new_end);

  /// Extra busy time on a track that should count toward utilization but
  /// not add a timeline event (e.g. the receive side of an inter-node copy).
  void add_busy(int track, double seconds);

  void add_traffic(int src_node, int dst_node, double bytes);

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] const std::vector<Track>& tracks() const { return tracks_; }
  [[nodiscard]] double busy_seconds(int track) const { return track_busy_.at(track); }
  [[nodiscard]] const std::map<std::pair<int, int>, double>& traffic() const {
    return traffic_;
  }

  /// Drop all recorded state (events, busy time, traffic), keeping the
  /// enabled flag. If a flush sink is set and events were recorded, the sink
  /// runs first so captured timelines are exported rather than silently
  /// dropped (Engine::reset routes through here).
  void reset();

  /// Install a pre-reset export hook. The sink receives the recorder with
  /// its events still intact; exceptions it throws propagate out of reset().
  void set_flush_sink(std::function<void(const Recorder&)> sink) {
    flush_sink_ = std::move(sink);
  }

 private:
  bool enabled_{false};
  std::function<void(const Recorder&)> flush_sink_;
  std::chrono::steady_clock::time_point wall_epoch_{};
  std::vector<Event> events_;
  std::vector<Track> tracks_;
  std::unordered_map<std::string, int> track_ids_;
  std::vector<double> track_busy_;
  std::vector<double> track_last_end_;
  std::vector<std::int64_t> track_last_event_;
  /// Most recent event completing at a given (exact) simulated time; lets
  /// record() resolve "start == ready" back to the producing event. Engine
  /// callers pass ready values that are bit-exact copies of previously
  /// returned completion times, so exact double keying works.
  std::unordered_map<double, std::uint64_t> by_completion_;
  std::map<std::pair<int, int>, double> traffic_;
};

}  // namespace legate::prof

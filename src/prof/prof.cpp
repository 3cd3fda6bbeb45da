#include "prof/prof.h"

#include "util/common.h"

namespace legate::prof {

int Recorder::track(const std::string& name, int node) {
  auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  int id = static_cast<int>(tracks_.size());
  tracks_.push_back(Track{name, node});
  track_busy_.push_back(0.0);
  track_last_end_.push_back(-1.0);
  track_last_event_.push_back(-1);
  track_ids_.emplace(name, id);
  return id;
}

std::uint64_t Recorder::record(Category cat, int track, double start, double end,
                               double ready, std::string name) {
  LSR_CHECK_MSG(track >= 0 && track < static_cast<int>(tracks_.size()),
                "event on unregistered track");
  Event ev;
  ev.id = static_cast<std::uint64_t>(events_.size());
  ev.cat = cat;
  ev.start = start;
  ev.end = end;
  ev.track = track;
  ev.name = std::move(name);
  if (is_marker(cat)) {
    events_.push_back(std::move(ev));
    return events_.back().id;
  }

  // Resolve the gating edge. When the dependence gate (`ready`) is what set
  // the start time, chase the producer through the completion index — this
  // is the edge that lets the critical path hop across resources. Otherwise
  // the event queued behind the previous occupant of its track.
  double res_end = track_last_end_[track];
  if (ready >= 0 && ready >= res_end && start <= ready) {
    auto it = by_completion_.find(ready);
    if (it != by_completion_.end()) {
      ev.pred = static_cast<std::int64_t>(it->second);
    } else if (track_last_event_[track] >= 0) {
      ev.pred = track_last_event_[track];
    }
  } else if (track_last_event_[track] >= 0) {
    ev.pred = track_last_event_[track];
  }

  // Busy time is accounted separately (add_busy): an inter-node copy shows
  // once on the timeline but occupies two NIC queues for its transmission
  // time only, not the full latency-inclusive interval.
  track_last_end_[track] = end;
  track_last_event_[track] = static_cast<std::int64_t>(ev.id);
  by_completion_[end] = ev.id;
  events_.push_back(std::move(ev));
  return events_.back().id;
}

void Recorder::extend_last(double new_end) {
  LSR_CHECK_MSG(!events_.empty(), "extend_last with no recorded events");
  Event& ev = events_.back();
  auto it = by_completion_.find(ev.end);
  if (it != by_completion_.end() && it->second == ev.id) by_completion_.erase(it);
  ev.end = new_end;
  track_last_end_[ev.track] = std::max(track_last_end_[ev.track], new_end);
  by_completion_[new_end] = ev.id;
}

void Recorder::add_busy(int track, double seconds) {
  track_busy_.at(track) += seconds;
}

void Recorder::add_traffic(int src_node, int dst_node, double bytes) {
  traffic_[{src_node, dst_node}] += bytes;
}

void Recorder::reset() {
  // Flush captured timelines before dropping them: a profile window closed
  // by Engine::reset (bench repetitions, solver restarts) would otherwise
  // silently lose every event recorded before the reset.
  if (flush_sink_ && enabled_ && !events_.empty()) flush_sink_(*this);
  events_.clear();
  by_completion_.clear();
  traffic_.clear();
  tracks_.clear();
  track_ids_.clear();
  track_busy_.clear();
  track_last_end_.clear();
  track_last_event_.clear();
}

}  // namespace legate::prof

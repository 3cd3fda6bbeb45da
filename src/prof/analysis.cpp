#include "prof/analysis.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace legate::prof {

std::vector<Utilization> utilization(const Recorder& rec, double makespan) {
  std::vector<Utilization> rows;
  for (std::size_t t = 0; t < rec.tracks().size(); ++t) {
    double busy = rec.busy_seconds(static_cast<int>(t));
    if (busy <= 0) continue;
    rows.push_back(Utilization{rec.tracks()[t].name, rec.tracks()[t].node, busy,
                               makespan > 0 ? busy / makespan : 0.0});
  }
  return rows;
}

CriticalPath critical_path(const Recorder& rec) {
  CriticalPath cp;
  const auto& evs = rec.events();

  // Anchor: the non-marker event that finishes last (its completion is the
  // makespan as seen by the recorder). Markers are annotations: no event
  // has one as its predecessor, so none can be on the chain either.
  const Event* tail = nullptr;
  for (const Event& ev : evs) {
    if (!is_marker(ev.cat) && (tail == nullptr || ev.end > tail->end)) tail = &ev;
  }
  if (tail == nullptr) return cp;

  // Walk predecessor edges back to a source. Ids are assigned in record
  // order and pred < id always holds, so the walk terminates. The chain is
  // measured from its own source's start: recording can begin mid-run and
  // the control lane's issue stream runs ahead of execution on a separate
  // virtual clock, so a global minimum over event starts is meaningless.
  std::vector<std::uint64_t> rev;
  std::int64_t cur = static_cast<std::int64_t>(tail->id);
  double covered_until = tail->end;
  double source_start = tail->start;
  while (cur >= 0) {
    const Event& ev = evs[static_cast<std::size_t>(cur)];
    // Only count the portion of the event not already attributed to a later
    // chain member (overlaps can occur when a pred edge points at an event
    // that finished after this one started — conservative clamp).
    double seg_end = std::min(ev.end, covered_until);
    double dur = std::max(0.0, seg_end - ev.start);
    cp.by_category[category_name(ev.cat)] += dur;
    rev.push_back(ev.id);
    source_start = ev.start;
    if (ev.pred >= 0) {
      const Event& p = evs[static_cast<std::size_t>(ev.pred)];
      // Time between the predecessor finishing and this event starting is
      // dependence fan-in / backoff the single edge cannot attribute.
      if (ev.start > p.end) cp.wait_seconds += ev.start - p.end;
      covered_until = std::min(ev.start, p.end);
    }
    cur = ev.pred;
  }
  cp.total_seconds = tail->end - source_start;
  cp.chain.assign(rev.rbegin(), rev.rend());
  return cp;
}

namespace {

std::string human_bytes(double b) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  if (b >= 1e9) {
    os << b / 1e9 << " GB";
  } else if (b >= 1e6) {
    os << b / 1e6 << " MB";
  } else if (b >= 1e3) {
    os << b / 1e3 << " kB";
  } else {
    os << b << " B";
  }
  return os.str();
}

}  // namespace

std::string utilization_report(const Recorder& rec, double makespan) {
  std::ostringstream os;
  os << "utilization (window " << std::setprecision(4) << makespan * 1e3
     << " ms):\n";
  for (const auto& u : utilization(rec, makespan)) {
    os << "  " << std::left << std::setw(16) << u.track << std::right
       << std::fixed << std::setprecision(1) << std::setw(6)
       << u.fraction * 100.0 << "%  (" << std::setprecision(3)
       << u.busy_seconds * 1e3 << " ms busy)\n";
  }
  return os.str();
}

std::string traffic_report(const Recorder& rec) {
  std::ostringstream os;
  if (rec.traffic().empty()) return "traffic: none recorded\n";
  int nodes = 0;
  for (const auto& [key, bytes] : rec.traffic()) {
    nodes = std::max({nodes, key.first + 1, key.second + 1});
  }
  os << "traffic matrix (src node x dst node):\n      ";
  for (int d = 0; d < nodes; ++d) os << std::setw(10) << d;
  os << '\n';
  for (int s = 0; s < nodes; ++s) {
    os << "  " << std::setw(3) << s << " ";
    for (int d = 0; d < nodes; ++d) {
      auto it = rec.traffic().find({s, d});
      os << std::setw(10) << (it == rec.traffic().end() ? "-" : human_bytes(it->second));
    }
    os << '\n';
  }
  return os.str();
}

std::string critical_path_report(const Recorder& rec) {
  CriticalPath cp = critical_path(rec);
  std::ostringstream os;
  os << "critical path: " << std::setprecision(4) << cp.total_seconds * 1e3
     << " ms over " << cp.chain.size() << " events\n";
  // Sort categories by attributed time, largest first.
  std::vector<std::pair<std::string, double>> cats(cp.by_category.begin(),
                                                   cp.by_category.end());
  cats.emplace_back("wait", cp.wait_seconds);
  std::sort(cats.begin(), cats.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [cat, sec] : cats) {
    if (sec <= 0) continue;
    os << "  " << std::left << std::setw(16) << cat << std::right << std::fixed
       << std::setprecision(3) << std::setw(10) << sec * 1e3 << " ms  ("
       << std::setprecision(1)
       << (cp.total_seconds > 0 ? 100.0 * sec / cp.total_seconds : 0.0)
       << "%)\n";
  }
  return os.str();
}

std::string summary(const Recorder& rec, double makespan) {
  // Utilization fractions are relative to the recording window, which can be
  // shorter than the full run when recording starts after a warmup phase.
  // Launch events live on the control lane's run-ahead clock (an issue
  // stream that starts at zero and never waits on data), so they are
  // excluded from the window bounds.
  double window = makespan;
  bool any = false;
  double t0 = 0, t1 = 0;
  for (const auto& ev : rec.events()) {
    if (ev.cat == Category::Launch) continue;
    if (!any) {
      t0 = ev.start;
      t1 = ev.end;
      any = true;
    } else {
      t0 = std::min(t0, ev.start);
      t1 = std::max(t1, ev.end);
    }
  }
  if (any && t1 > t0) window = t1 - t0;
  return utilization_report(rec, window) + traffic_report(rec) +
         critical_path_report(rec);
}

}  // namespace legate::prof

#pragma once

#include <map>
#include <string>
#include <vector>

#include "prof/prof.h"

namespace legate::prof {

/// Busy fraction of one resource track over the run.
struct Utilization {
  std::string track;
  int node{0};
  double busy_seconds{0};
  double fraction{0};  ///< busy_seconds / makespan
};

/// Per-track utilization, skipping tracks that never did work.
[[nodiscard]] std::vector<Utilization> utilization(const Recorder& rec,
                                                   double makespan);

/// Longest dependency chain ending at the latest-finishing non-marker event
/// (markers never gate, so none is on the chain), with time
/// attributed per category. `wait_seconds` is chain time not covered by any
/// recorded event (an event starting after its predecessor finished —
/// dependence fan-in the single pred edge cannot see, or untraced gaps).
/// All times are measured within the recording window (recording may be
/// enabled mid-run, after warmup), so `total_seconds` spans from the first
/// recorded start to the chain's final completion.
struct CriticalPath {
  double total_seconds{0};  ///< chain end minus recording-window start
  std::vector<std::uint64_t> chain;  ///< event ids, source first
  std::map<std::string, double> by_category;
  double wait_seconds{0};
};

[[nodiscard]] CriticalPath critical_path(const Recorder& rec);

/// Human-readable reports.
[[nodiscard]] std::string utilization_report(const Recorder& rec, double makespan);
[[nodiscard]] std::string traffic_report(const Recorder& rec);
[[nodiscard]] std::string critical_path_report(const Recorder& rec);
/// All three reports concatenated — what the benchmarks print per point.
[[nodiscard]] std::string summary(const Recorder& rec, double makespan);

}  // namespace legate::prof

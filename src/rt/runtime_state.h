#pragma once

// Definitions of Runtime's private dynamic-analysis state, shared by the
// runtime translation units (runtime.cpp, runtime_comm.cpp). Internal header:
// include only after rt/runtime.h.

#include "rt/runtime.h"

namespace legate::rt {

/// Per-store dynamic analysis state. All interval maps are in *element*
/// coordinates (2-D stores linearized row-major).
struct Runtime::SyncState {
  IntervalMap<double> last_write;  ///< completion time of the last writer
  std::vector<std::pair<Interval, double>> readers;  ///< reads since last write
  IntervalMap<std::uint64_t> version;  ///< data version (implicit 0)
  IntervalMap<int> owner;              ///< memory holding the latest version
  std::uint64_t version_counter{0};
  std::uint64_t epoch{0};  ///< bumped on writes; keys image accounting
  /// Key partition: identity of the last partition used to write (or first
  /// used to read) this store, 0 = none. Keys are always equal splits of
  /// the store's own basis, so the color count is all reuse needs to know.
  std::uint64_t key_uid{0};
  int key_colors{0};
};

/// One simulated allocation of (part of) a store in one memory.
struct Runtime::Alloc {
  Interval extent;  ///< element interval covered
  IntervalMap<std::uint64_t> held;  ///< version of data held (implicit: none)
  IntervalMap<double> ready;        ///< time the held data became valid
  double last_use{0};  ///< logical touch tick; eviction picks the minimum
  double esize{8};     ///< bytes per element (needed to release/spill by id)
};

/// The staleness walk (Section 4.2) of both Pass B strategies: for every run
/// `iv` of `elem` (restricted to `precise`, when given) holding written data
/// at version v > 0, `fn(iv, v, stale)` gets the pieces of `iv` that `held`
/// lacks at version v.
template <typename F>
void for_each_stale(const IntervalMap<std::uint64_t>& version,
                    const IntervalMap<std::uint64_t>& held, Interval elem,
                    const IntervalSet* precise, F&& fn) {
  std::vector<std::pair<Interval, std::uint64_t>> required;
  auto collect = [&](Interval range) {
    version.for_each_in(
        range, [&](Interval iv, std::uint64_t v) { required.emplace_back(iv, v); });
  };
  if (precise != nullptr) {
    precise->for_each(elem, collect);
  } else {
    collect(elem);
  }
  for (auto& [iv, v] : required) {
    if (v == 0) continue;
    std::vector<Interval> stale;
    held.for_each_in(iv, [&](Interval piece, std::uint64_t held_v) {
      if (held_v < v) stale.push_back(piece);
    });
    held.for_each_gap(iv, [&](Interval gap) { stale.push_back(gap); });
    fn(iv, v, stale);
  }
}

/// Each run of `piece` with the memory owning its latest version (`home` for
/// never-written runs): the sources of a staleness copy.
inline std::vector<std::pair<Interval, int>> owner_runs(const IntervalMap<int>& owner,
                                                        Interval piece, int home) {
  std::vector<std::pair<Interval, int>> sources;
  owner.for_each_in(piece, [&](Interval p, int m) { sources.emplace_back(p, m); });
  owner.for_each_gap(piece, [&](Interval p) { sources.emplace_back(p, home); });
  return sources;
}

struct Runtime::MemState {
  std::unordered_map<StoreId, std::vector<Alloc>> allocs;
  /// Extents of allocations whose stores went out of scope. New requirements
  /// matching a pooled extent reuse it directly — this is how the paper's
  /// Fig. 5 steady state avoids per-iteration allocation resizing (x2 reuses
  /// a slice of x0's old allocation).
  std::vector<Interval> pool;
};

}  // namespace legate::rt

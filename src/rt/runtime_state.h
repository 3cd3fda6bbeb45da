#pragma once

// Definitions of Runtime's private dynamic-analysis state, shared by the
// runtime translation units (runtime.cpp, runtime_comm.cpp, runtime_exec.cpp).
// Internal header: include only after rt/runtime.h.

#include <algorithm>
#include <array>
#include <span>

#include "rt/runtime.h"

namespace legate::rt {

// The validity record (DESIGN.md §4): one map per store, one per allocation,
// written only through the methods below.

/// What the last write of a store left in an element: its version, the memory
/// owning it, and when it became valid there. A gap means never written.
struct Written {
  std::uint64_t version;
  int owner;
  double t;
  bool operator==(const Written&) const = default;
};

/// What an allocation holds of an element (always written data): the version
/// and when it arrived. A gap means nothing held.
struct Held {
  std::uint64_t version;
  double t;
  bool operator==(const Held&) const = default;
};

/// The latest time `t` over `range` of a Written or Held map, or `floor`.
template <typename V>
double latest(const IntervalMap<V>& map, Interval range, double floor,
              typename IntervalMap<V>::Hint* hint = nullptr) {
  map.for_each_in(range, [&](Interval, const V& v) { floor = std::max(floor, v.t); }, hint);
  return floor;
}

/// One simulated allocation of (part of) a store in one memory.
struct Runtime::Alloc {
  Alloc(Interval ext, double use, double es) : extent(ext), last_use(use), esize(es) {}

  Interval extent;     ///< element interval covered
  double last_use{0};  ///< logical touch tick; eviction picks the minimum
  double esize{8};     ///< bytes per element (needed to release/spill by id)

  [[nodiscard]] const IntervalMap<Held>& held() const { return held_; }
  /// `iv` now holds `version`, arrived at `t`.
  void hold(Interval iv, std::uint64_t version, double t) {
    held_.assign(iv, Held{version, t});
  }
  /// Every run now holds its value: one merge of runs sorted by lo and
  /// disjoint, as if each were held in turn.
  void hold_sorted(std::span<const std::pair<Interval, Held>> runs) {
    held_.assign_sorted(runs);
  }
  /// Coalescing: take over `old`'s data, copied in by `t`; the newest wins.
  void absorb(const Alloc& old, double t) {
    old.held_.for_each_run(old.extent, &Held::version, [&](Interval iv, std::uint64_t v) {
      held_.update(iv, [&](Interval, std::optional<Held> prev) {
        return prev ? Held{std::max(prev->version, v), std::max(prev->t, t)} : Held{v, t};
      });
    });
  }

 private:
  IntervalMap<Held> held_;
};

/// Per-store dynamic analysis state. All interval maps are in *element*
/// coordinates (2-D stores linearized row-major).
struct Runtime::SyncState {
  std::vector<std::pair<Interval, double>> readers;  ///< reads since last write
  /// The write sequence: each write draws the next version. Every write is
  /// accounted at issue, so this is also the count the solve keys images by.
  std::uint64_t version_counter{0};
  /// Key partition: identity of the last partition used to write (or first
  /// used to read) this store, 0 = none. Keys are always equal splits of
  /// the store's own basis, so the color count is all reuse needs to know.
  std::uint64_t key_uid{0};
  int key_colors{0};

  [[nodiscard]] const IntervalMap<Written>& written() const { return written_; }
  /// Start a write: the pieces recorded by write() share a fresh version.
  void begin_write() { ++version_counter; }
  /// The one write path: `elem` takes the current version, owned by `owner`
  /// and valid from `t`, and every allocation in `holders` holds it.
  void write(Interval elem, int owner, double t, std::span<Alloc* const> holders) {
    written_.assign(elem, Written{version_counter, owner, t});
    for (Alloc* a : holders) a->hold(elem, version_counter, t);
  }
  void write(Interval elem, int owner, double t, Alloc& holder) {
    write(elem, owner, t, std::array{&holder});
  }
  /// Move written `iv` to `owner`, valid no earlier than `t` (spill, loss).
  void relocate(Interval iv, int owner, double t) {
    written_.update(iv, [&](Interval, std::optional<Written> w) {
      LSR_CHECK_MSG(w.has_value(), "relocating never-written data");
      return Written{w->version, owner, std::max(w->t, t)};
    });
  }

 private:
  IntervalMap<Written> written_;
};

/// `fn` over `elem`, or over its touched runs when a precise image is given.
template <typename F>
void for_each_touched(Interval elem, const IntervalSet* precise, F&& fn) {
  if (precise != nullptr) {
    precise->for_each(elem, fn);
  } else {
    fn(elem);
  }
}

/// The staleness walk (Section 4.2) of Pass B's derivation: for every
/// version run `iv` of written data in `elem` (restricted to `precise`, when
/// given), `fn(iv, v, stale)` gets the pieces of `iv` that `held` lacks at
/// version v. The runs come in increasing order, so each map's lookups
/// resume from the previous one. `fn` runs inside the walk of `written` and
/// must modify neither map.
template <typename F>
void for_each_stale(const IntervalMap<Written>& written, const IntervalMap<Held>& held,
                    Interval elem, const IntervalSet* precise, F&& fn) {
  IntervalMap<Written>::Hint wh;
  IntervalMap<Held>::Hint runs_h, gaps_h;
  for_each_touched(elem, precise, [&](Interval range) {
    written.for_each_run(
        range, &Written::version,
        [&](Interval iv, std::uint64_t v) {
          std::vector<Interval> stale;
          held.for_each_run(
              iv, &Held::version,
              [&](Interval piece, std::uint64_t held_v) {
                if (held_v < v) stale.push_back(piece);
              },
              &runs_h);
          held.for_each_gap(iv, [&](Interval gap) { stale.push_back(gap); }, &gaps_h);
          fn(iv, v, stale);
        },
        &wh);
  });
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

#pragma once

#include <concepts>
#include <functional>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/interval.h"

namespace legate {

/// Ordered map from disjoint half-open intervals to values.
///
/// This is the workhorse data structure of the runtime: each store's
/// validity record and each allocation's held data are IntervalMaps of a
/// small struct (rt/runtime_state.h). Adjacent segments with equal values
/// are merged when V is equality-comparable.
///
/// Invariants: segments are disjoint, non-empty, sorted by lo.
template <typename V>
class IntervalMap {
  struct Seg {
    coord_t hi;
    V value;
  };
  // Keyed by segment lo.
  std::map<coord_t, Seg> segs_;

 public:
  IntervalMap() = default;

  [[nodiscard]] bool empty() const { return segs_.empty(); }
  [[nodiscard]] std::size_t segment_count() const { return segs_.size(); }

  void clear() { segs_.clear(); }

  /// Assign `value` over `range`, overwriting any previous contents there.
  void assign(Interval range, V value) {
    if (range.empty()) return;
    carve(range);
    auto [it, inserted] = segs_.emplace(range.lo, Seg{range.hi, std::move(value)});
    LSR_CHECK(inserted);
    try_merge_around(it);
  }

  /// Remove all values over `range`.
  void erase(Interval range) {
    if (range.empty()) return;
    carve(range);
  }

  /// Value covering point `p`, if any.
  [[nodiscard]] std::optional<V> at(coord_t p) const {
    auto it = segs_.upper_bound(p);
    if (it == segs_.begin()) return std::nullopt;
    --it;
    if (p < it->second.hi) return it->second.value;
    return std::nullopt;
  }

  /// Visit every (sub-interval, value) overlapping `range`, in order.
  /// The visited sub-intervals are clipped to `range`.
  template <typename F>
  void for_each_in(Interval range, F&& fn) const {
    if (range.empty()) return;
    auto it = segs_.upper_bound(range.lo);
    if (it != segs_.begin()) --it;
    for (; it != segs_.end() && it->first < range.hi; ++it) {
      Interval seg{it->first, it->second.hi};
      Interval clipped = seg.intersect(range);
      if (!clipped.empty()) fn(clipped, it->second.value);
    }
  }

  /// Visit the runs of `range` projected onto one field by `proj` (a member
  /// pointer or callable), joining touching segments with equal projections:
  /// exactly for_each_in on an IntervalMap of proj(value) alone, whose gaps
  /// are this map's own.
  template <typename Proj, typename F>
  void for_each_run(Interval range, Proj proj, F&& fn) const {
    std::optional<std::pair<Interval, std::decay_t<std::invoke_result_t<Proj, const V&>>>> run;
    for_each_in(range, [&](Interval iv, const V& v) {
      auto p = std::invoke(proj, v);
      if (run && run->first.hi == iv.lo && run->second == p) {
        run->first.hi = iv.hi;
        return;
      }
      if (run) fn(run->first, run->second);
      run.emplace(iv, p);
    });
    if (run) fn(run->first, run->second);
  }

  /// Visit every maximal sub-interval of `range` NOT covered by any segment.
  template <typename F>
  void for_each_gap(Interval range, F&& fn) const {
    if (range.empty()) return;
    coord_t cursor = range.lo;
    for_each_in(range, [&](Interval iv, const V&) {
      if (iv.lo > cursor) fn(Interval{cursor, iv.lo});
      cursor = iv.hi;
    });
    if (cursor < range.hi) fn(Interval{cursor, range.hi});
  }

  /// Read-modify-write: for each covered piece of `range` call
  /// fn(piece, old_value) -> new value; for each gap call fn(piece, nullopt).
  /// The results are assigned back over `range`.
  template <typename F>
  void update(Interval range, F&& fn) {
    if (range.empty()) return;
    std::vector<std::pair<Interval, V>> results;
    coord_t cursor = range.lo;
    for_each_in(range, [&](Interval iv, const V& old) {
      if (iv.lo > cursor) {
        results.emplace_back(Interval{cursor, iv.lo},
                             fn(Interval{cursor, iv.lo}, std::optional<V>{}));
      }
      results.emplace_back(iv, fn(iv, std::optional<V>{old}));
      cursor = iv.hi;
    });
    if (cursor < range.hi) {
      results.emplace_back(Interval{cursor, range.hi},
                           fn(Interval{cursor, range.hi}, std::optional<V>{}));
    }
    for (auto& [iv, v] : results) assign(iv, std::move(v));
  }

  /// True iff every point of `range` is covered.
  [[nodiscard]] bool covers(Interval range) const {
    bool gap = false;
    for_each_gap(range, [&](Interval) { gap = true; });
    return !gap;
  }

  /// Collect (interval, value) pairs overlapping `range` (clipped).
  [[nodiscard]] std::vector<std::pair<Interval, V>> snapshot(Interval range) const {
    std::vector<std::pair<Interval, V>> out;
    for_each_in(range, [&](Interval iv, const V& v) { out.emplace_back(iv, v); });
    return out;
  }

  /// Total number of covered coordinates within `range`.
  [[nodiscard]] coord_t covered_size(Interval range) const {
    coord_t n = 0;
    for_each_in(range, [&](Interval iv, const V&) { n += iv.size(); });
    return n;
  }

 private:
  // Remove coverage over `range`, splitting boundary segments.
  void carve(Interval range) {
    // Split a segment straddling range.lo.
    auto it = segs_.upper_bound(range.lo);
    if (it != segs_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.hi > range.lo) {
        // prev covers range.lo; keep [prev.lo, range.lo), re-add tail later.
        Seg tail{prev->second.hi, prev->second.value};
        coord_t tail_lo = range.lo;
        prev->second.hi = range.lo;
        if (prev->second.hi <= prev->first) segs_.erase(prev);
        if (tail.hi > tail_lo) segs_.emplace(tail_lo, std::move(tail));
      }
    }
    // Erase/trim segments starting within [range.lo, range.hi).
    it = segs_.lower_bound(range.lo);
    while (it != segs_.end() && it->first < range.hi) {
      if (it->second.hi <= range.hi) {
        it = segs_.erase(it);
      } else {
        // Straddles range.hi: move its lo up to range.hi.
        Seg moved = std::move(it->second);
        segs_.erase(it);
        segs_.emplace(range.hi, std::move(moved));
        break;
      }
    }
  }

  void try_merge_around(typename std::map<coord_t, Seg>::iterator it) {
    if constexpr (std::equality_comparable<V>) {
      // Merge with successor.
      auto next = std::next(it);
      if (next != segs_.end() && it->second.hi == next->first &&
          it->second.value == next->second.value) {
        it->second.hi = next->second.hi;
        segs_.erase(next);
      }
      // Merge with predecessor.
      if (it != segs_.begin()) {
        auto prev = std::prev(it);
        if (prev->second.hi == it->first && prev->second.value == it->second.value) {
          prev->second.hi = it->second.hi;
          segs_.erase(it);
        }
      }
    }
  }
};

/// A set of disjoint intervals (an IntervalMap without values), used for
/// validity arithmetic: needed = required − valid.
class IntervalSet {
  IntervalMap<char> map_;

 public:
  void add(Interval iv) { map_.assign(iv, 1); }
  void subtract(Interval iv) { map_.erase(iv); }
  void clear() { map_.clear(); }

  [[nodiscard]] bool empty() const { return map_.empty(); }
  [[nodiscard]] bool contains(Interval iv) const { return map_.covers(iv); }
  [[nodiscard]] coord_t size_within(Interval iv) const { return map_.covered_size(iv); }

  template <typename F>
  void for_each(Interval within, F&& fn) const {
    map_.for_each_in(within, [&](Interval iv, char) { fn(iv); });
  }
  template <typename F>
  void for_each_gap(Interval within, F&& fn) const {
    map_.for_each_gap(within, std::forward<F>(fn));
  }
};

}  // namespace legate

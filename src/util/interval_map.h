#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/interval.h"

namespace legate {

/// Ordered map from disjoint half-open intervals to values.
///
/// This is the workhorse data structure of the runtime: each store's
/// validity record and each allocation's held data are IntervalMaps of a
/// small struct (rt/runtime_state.h).
///
/// Storage is one vector of {lo, hi, value} segments sorted by lo. Segments
/// are disjoint and non-empty, and when V is equality-comparable every write
/// merges touching segments with equal values, so the segment structure is
/// a function of the content alone, whatever writes produced it.
///
/// - A lookup is a binary search; a walk is a linear scan from it.
/// - A write splices the vector once. assign_sorted() writes a whole sorted
///   list of disjoint runs in one linear pass over the segments they touch,
///   with the same result as assigning them one by one.
/// - Walks over increasing ranges can share a Hint: each lookup then
///   gallops forward from where the previous walk stopped instead of
///   searching the whole map.
///
/// A walk's callback must not modify the map being walked.
template <typename V>
class IntervalMap {
  struct Seg {
    coord_t lo;
    coord_t hi;
    V value;
  };
  std::vector<Seg> segs_;

 public:
  /// A walk cursor. Any hint, stale or past the answer, visits exactly what
  /// no hint visits; a hint left by the previous walk of an increasing
  /// sequence of ranges makes the next lookup O(log distance).
  struct Hint {
    std::size_t pos{0};
  };

  IntervalMap() = default;

  [[nodiscard]] bool empty() const { return segs_.empty(); }
  [[nodiscard]] std::size_t segment_count() const { return segs_.size(); }

  void clear() { segs_.clear(); }

  /// Assign `value` over `range`, overwriting any previous contents there.
  void assign(Interval range, V value) {
    const std::pair<Interval, V> run{range, std::move(value)};
    assign_sorted(std::span(&run, 1));
  }

  /// Assign every run, in one pass: exactly `assign(iv, v)` for each run in
  /// order. The runs must be sorted by lo and disjoint (they may touch);
  /// empty runs are ignored.
  void assign_sorted(std::span<const std::pair<Interval, V>> runs) {
    bool any = false;
    coord_t lo = 0;
    coord_t hi = 0;
    for (const auto& [iv, v] : runs) {
      if (iv.empty()) continue;
      LSR_CHECK_MSG(!any || iv.lo >= hi, "assign_sorted: runs must be sorted and disjoint");
      if (!any) lo = iv.lo;
      any = true;
      hi = iv.hi;
    }
    if (!any) return;
    // Rewrite segments [a, b): every one overlapping [lo, hi), plus one
    // neighbour on each side so touching equal values merge.
    const std::size_t i = seek(lo, nullptr);
    const std::size_t j = first_starting_at(hi, i);
    const std::size_t a = i > 0 ? i - 1 : 0;
    const std::size_t b = std::min(j + 1, segs_.size());
    static thread_local std::vector<Seg> out;
    out.clear();
    auto push = [](coord_t l, coord_t h, const V& v) {
      if (l >= h) return;
      if constexpr (std::equality_comparable<V>) {
        if (!out.empty() && out.back().hi == l && out.back().value == v) {
          out.back().hi = h;
          return;
        }
      }
      out.push_back(Seg{l, h, v});
    };
    std::size_t s = a;
    coord_t done = std::numeric_limits<coord_t>::min();  // everything below is in `out`
    for (const auto& [iv, v] : runs) {
      if (iv.empty()) continue;
      for (; s < b && segs_[s].lo < iv.lo; ++s) {
        push(std::max(segs_[s].lo, done), std::min(segs_[s].hi, iv.lo), segs_[s].value);
        if (segs_[s].hi > iv.lo) break;  // its tail past the run comes later
      }
      push(iv.lo, iv.hi, v);
      done = iv.hi;
      while (s < b && segs_[s].hi <= iv.hi) ++s;
    }
    for (; s < b; ++s) push(std::max(segs_[s].lo, done), segs_[s].hi, segs_[s].value);
    splice(a, b, out);
  }

  /// Remove all values over `range`.
  void erase(Interval range) {
    if (range.empty()) return;
    std::size_t i = seek(range.lo, nullptr);
    std::size_t j = first_starting_at(range.hi, i);
    if (i == j) return;
    const auto it = [&](std::size_t k) { return segs_.begin() + static_cast<std::ptrdiff_t>(k); };
    if (segs_[i].lo < range.lo && segs_[i].hi > range.hi) {
      // One segment straddles both ends: split it around the hole.
      Seg tail = segs_[i];
      tail.lo = range.hi;
      segs_[i].hi = range.lo;
      segs_.insert(it(i + 1), std::move(tail));
      return;
    }
    if (segs_[i].lo < range.lo) segs_[i++].hi = range.lo;
    if (j > i && segs_[j - 1].hi > range.hi) segs_[--j].lo = range.hi;
    segs_.erase(it(i), it(j));
  }

  /// Value covering point `p`, if any.
  [[nodiscard]] std::optional<V> at(coord_t p) const {
    const std::size_t k = seek(p, nullptr);
    if (k < segs_.size() && segs_[k].lo <= p) return segs_[k].value;
    return std::nullopt;
  }

  /// Visit every (sub-interval, value) overlapping `range`, in order.
  /// The visited sub-intervals are clipped to `range`.
  template <typename F>
  void for_each_in(Interval range, F&& fn, Hint* hint = nullptr) const {
    if (range.empty()) return;
    const std::size_t first = seek(range.lo, hint);
    std::size_t k = first;
    for (; k < segs_.size() && segs_[k].lo < range.hi; ++k) {
      const Seg& s = segs_[k];
      fn(Interval{std::max(s.lo, range.lo), std::min(s.hi, range.hi)}, s.value);
    }
    // The last visited segment may reach into the next range.
    if (hint != nullptr) hint->pos = k > first ? k - 1 : first;
  }

  /// Visit the runs of `range` projected onto one field by `proj` (a member
  /// pointer or callable), joining touching segments with equal projections:
  /// exactly for_each_in on an IntervalMap of proj(value) alone, whose gaps
  /// are this map's own.
  template <typename Proj, typename F>
  void for_each_run(Interval range, Proj proj, F&& fn, Hint* hint = nullptr) const {
    std::optional<std::pair<Interval, std::decay_t<std::invoke_result_t<Proj, const V&>>>> run;
    for_each_in(
        range,
        [&](Interval iv, const V& v) {
          auto p = std::invoke(proj, v);
          if (run && run->first.hi == iv.lo && run->second == p) {
            run->first.hi = iv.hi;
            return;
          }
          if (run) fn(run->first, run->second);
          run.emplace(iv, p);
        },
        hint);
    if (run) fn(run->first, run->second);
  }

  /// Visit every maximal sub-interval of `range` NOT covered by any segment.
  template <typename F>
  void for_each_gap(Interval range, F&& fn, Hint* hint = nullptr) const {
    if (range.empty()) return;
    coord_t cursor = range.lo;
    for_each_in(
        range,
        [&](Interval iv, const V&) {
          if (iv.lo > cursor) fn(Interval{cursor, iv.lo});
          cursor = iv.hi;
        },
        hint);
    if (cursor < range.hi) fn(Interval{cursor, range.hi});
  }

  /// Read-modify-write: for each covered piece of `range` call
  /// fn(piece, old_value) -> new value; for each gap call fn(piece, nullopt).
  /// The results are assigned back over `range` with one assign_sorted.
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
    assign_sorted(results);
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
  // Index of the first segment ending after `x`: the first that can overlap
  // a range starting at `x`. A hint at or before the answer gallops forward
  // from it; one past the answer bounds a binary search from above.
  [[nodiscard]] std::size_t seek(coord_t x, const Hint* hint) const {
    std::size_t lo = 0;
    std::size_t hi = segs_.size();
    if (hint != nullptr) {
      const std::size_t p = std::min(hint->pos, hi);
      if (p > 0 && segs_[p - 1].hi > x) {
        hi = p;
      } else {
        lo = p;
        for (std::size_t step = 1; lo < hi; step *= 2) {
          const std::size_t probe = std::min(lo + step, hi) - 1;
          if (segs_[probe].hi > x) {
            hi = probe + 1;
            break;
          }
          lo = probe + 1;
        }
      }
    }
    const auto base = segs_.begin();
    return static_cast<std::size_t>(
        std::partition_point(base + static_cast<std::ptrdiff_t>(lo),
                             base + static_cast<std::ptrdiff_t>(hi),
                             [x](const Seg& s) { return s.hi <= x; }) -
        base);
  }

  // Index of the first segment at or after `from` starting at or after `x`.
  [[nodiscard]] std::size_t first_starting_at(coord_t x, std::size_t from) const {
    const auto base = segs_.begin();
    return static_cast<std::size_t>(
        std::partition_point(base + static_cast<std::ptrdiff_t>(from), segs_.end(),
                             [x](const Seg& s) { return s.lo < x; }) -
        base);
  }

  // Replace segments [a, b) with `with`, shifting the tail at most once.
  void splice(std::size_t a, std::size_t b, std::vector<Seg>& with) {
    const auto pos = segs_.begin() + static_cast<std::ptrdiff_t>(a);
    const auto n_old = static_cast<std::ptrdiff_t>(b - a);
    const auto n_new = static_cast<std::ptrdiff_t>(with.size());
    if (n_new <= n_old) {
      std::move(with.begin(), with.end(), pos);
      segs_.erase(pos + n_new, pos + n_old);
    } else {
      std::move(with.begin(), with.begin() + n_old, pos);
      segs_.insert(pos + n_old, std::make_move_iterator(with.begin() + n_old),
                   std::make_move_iterator(with.end()));
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

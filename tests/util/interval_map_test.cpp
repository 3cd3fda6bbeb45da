#include "util/interval_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace legate {
namespace {

TEST(IntervalMap, AssignAndQuery) {
  IntervalMap<int> m;
  m.assign({0, 10}, 1);
  EXPECT_EQ(m.at(0), 1);
  EXPECT_EQ(m.at(9), 1);
  EXPECT_FALSE(m.at(10).has_value());
  EXPECT_FALSE(m.at(-1).has_value());
}

TEST(IntervalMap, OverwriteSplitsSegments) {
  IntervalMap<int> m;
  m.assign({0, 10}, 1);
  m.assign({3, 6}, 2);
  EXPECT_EQ(m.at(2), 1);
  EXPECT_EQ(m.at(3), 2);
  EXPECT_EQ(m.at(5), 2);
  EXPECT_EQ(m.at(6), 1);
  EXPECT_EQ(m.segment_count(), 3u);
}

TEST(IntervalMap, AdjacentEqualValuesMerge) {
  IntervalMap<int> m;
  m.assign({0, 5}, 7);
  m.assign({5, 10}, 7);
  EXPECT_EQ(m.segment_count(), 1u);
  m.assign({10, 20}, 8);
  EXPECT_EQ(m.segment_count(), 2u);
  m.assign({10, 20}, 7);
  EXPECT_EQ(m.segment_count(), 1u);
}

TEST(IntervalMap, EraseMiddle) {
  IntervalMap<int> m;
  m.assign({0, 10}, 1);
  m.erase({4, 6});
  EXPECT_EQ(m.at(3), 1);
  EXPECT_FALSE(m.at(4).has_value());
  EXPECT_FALSE(m.at(5).has_value());
  EXPECT_EQ(m.at(6), 1);
}

TEST(IntervalMap, GapsAndCoverage) {
  IntervalMap<int> m;
  m.assign({2, 4}, 1);
  m.assign({6, 8}, 1);
  std::vector<Interval> gaps;
  m.for_each_gap({0, 10}, [&](Interval iv) { gaps.push_back(iv); });
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (Interval{0, 2}));
  EXPECT_EQ(gaps[1], (Interval{4, 6}));
  EXPECT_EQ(gaps[2], (Interval{8, 10}));
  EXPECT_FALSE(m.covers({0, 10}));
  EXPECT_TRUE(m.covers({2, 4}));
  EXPECT_EQ(m.covered_size({0, 10}), 4);
}

TEST(IntervalMap, ForEachInClipsToRange) {
  IntervalMap<int> m;
  m.assign({0, 100}, 5);
  std::vector<std::pair<Interval, int>> seen;
  m.for_each_in({10, 20}, [&](Interval iv, int v) { seen.emplace_back(iv, v); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, (Interval{10, 20}));
}

TEST(IntervalMap, UpdateReadModifyWrite) {
  IntervalMap<std::uint64_t> m;
  m.assign({0, 5}, 3u);
  // Max-merge 1 over [0, 10): covered piece keeps 3, gap becomes 1.
  m.update({0, 10}, [](Interval, std::optional<std::uint64_t> old) {
    return old ? std::max<std::uint64_t>(*old, 1) : std::uint64_t{1};
  });
  EXPECT_EQ(m.at(2), 3u);
  EXPECT_EQ(m.at(7), 1u);
}

TEST(IntervalMap, SnapshotReturnsOrdered) {
  IntervalMap<int> m;
  m.assign({5, 8}, 2);
  m.assign({0, 3}, 1);
  auto snap = m.snapshot({0, 10});
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].second, 1);
  EXPECT_EQ(snap[1].second, 2);
}

/// Property sweep: compare against a naive per-point model under random
/// assign/erase workloads.
class IntervalMapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalMapProperty, MatchesNaiveModel) {
  constexpr coord_t kDomain = 200;
  Rng rng(GetParam());
  IntervalMap<int> m;
  std::vector<int> naive(kDomain, -1);  // -1 = uncovered

  for (int step = 0; step < 300; ++step) {
    coord_t a = rng.next_coord(0, kDomain);
    coord_t b = rng.next_coord(0, kDomain + 1);
    if (a > b) std::swap(a, b);
    Interval iv{a, b};
    if (rng.next_below(4) == 0) {
      m.erase(iv);
      for (coord_t i = a; i < b; ++i) naive[static_cast<std::size_t>(i)] = -1;
    } else {
      int v = static_cast<int>(rng.next_below(5));
      m.assign(iv, v);
      for (coord_t i = a; i < b; ++i) naive[static_cast<std::size_t>(i)] = v;
    }
  }
  for (coord_t i = 0; i < kDomain; ++i) {
    auto got = m.at(i);
    int expect = naive[static_cast<std::size_t>(i)];
    if (expect == -1) {
      EXPECT_FALSE(got.has_value()) << "at " << i;
    } else {
      ASSERT_TRUE(got.has_value()) << "at " << i;
      EXPECT_EQ(*got, expect) << "at " << i;
    }
  }
  // Segment invariants: disjoint, sorted, merged.
  auto snap = m.snapshot({0, kDomain});
  for (std::size_t k = 1; k < snap.size(); ++k) {
    EXPECT_LE(snap[k - 1].first.hi, snap[k].first.lo);
    if (snap[k - 1].first.hi == snap[k].first.lo) {
      EXPECT_NE(snap[k - 1].second, snap[k].second) << "unmerged equal neighbors";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, IntervalMapProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(IntervalMap, ForEachRunJoinsEqualProjections) {
  IntervalMap<std::pair<int, int>> m;
  m.assign({0, 4}, {1, 10});
  m.assign({4, 8}, {1, 20});   // touches, same first field
  m.assign({10, 12}, {1, 30});  // same first field, across a gap
  std::vector<std::pair<Interval, int>> runs;
  m.for_each_run({2, 12}, &std::pair<int, int>::first,
                 [&](Interval iv, int v) { runs.emplace_back(iv, v); });
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (std::pair<Interval, int>{{2, 8}, 1}));
  EXPECT_EQ(runs[1], (std::pair<Interval, int>{{10, 12}, 1}));
}

// The runtime keeps one map of a small struct where it once kept one map per
// field over the same writes. Differential check: random assign / update /
// erase sequences over a merged map and over the separate per-field maps;
// after every step each projected walk (for_each_run) must yield exactly the
// separate map's runs, and the gaps must agree. The value domains are tiny so
// touching runs often agree in one field and differ in another.
struct Rec {
  std::uint64_t version;
  int owner;
  double t;
  bool operator==(const Rec&) const = default;
};

template <typename P, typename Proj>
void expect_projection(const IntervalMap<Rec>& merged, Proj proj, const IntervalMap<P>& field,
                       Interval range) {
  std::vector<std::pair<Interval, P>> runs;
  merged.for_each_run(range, proj, [&](Interval iv, const P& p) { runs.emplace_back(iv, p); });
  EXPECT_EQ(runs, field.snapshot(range));
  std::vector<Interval> got, want;
  merged.for_each_gap(range, [&](Interval iv) { got.push_back(iv); });
  field.for_each_gap(range, [&](Interval iv) { want.push_back(iv); });
  EXPECT_EQ(got, want);
}

class MergedMapDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergedMapDifferential, ProjectionsMatchSeparateMaps) {
  constexpr coord_t kDomain = 120;
  Rng rng(GetParam());
  IntervalMap<Rec> merged;
  IntervalMap<std::uint64_t> version;
  IntervalMap<int> owner;
  IntervalMap<double> t;
  for (int step = 0; step < 400; ++step) {
    coord_t a = rng.next_coord(0, kDomain);
    coord_t b = rng.next_coord(0, kDomain + 1);
    if (a > b) std::swap(a, b);
    const Interval iv{a, b};
    const Rec r{1 + rng.next_below(3), static_cast<int>(rng.next_below(2)),
                0.5 * static_cast<double>(1 + rng.next_below(2))};
    const std::uint64_t op = rng.next_below(8);
    if (op < 5) {
      merged.assign(iv, r);
      version.assign(iv, r.version);
      owner.assign(iv, r.owner);
      t.assign(iv, r.t);
    } else if (op < 7) {
      // Relocation-style read-modify-write: keep the version, move the
      // owner, take the later time; gaps get fresh values.
      merged.update(iv, [&](Interval, std::optional<Rec> prev) {
        return prev ? Rec{prev->version, r.owner, std::max(prev->t, r.t)} : r;
      });
      version.update(iv, [&](Interval, std::optional<std::uint64_t> prev) {
        return prev.value_or(r.version);
      });
      owner.update(iv, [&](Interval, std::optional<int>) { return r.owner; });
      t.update(iv, [&](Interval, std::optional<double> prev) {
        return prev ? std::max(*prev, r.t) : r.t;
      });
    } else {
      merged.erase(iv);
      version.erase(iv);
      owner.erase(iv);
      t.erase(iv);
    }
    coord_t lo = rng.next_coord(0, kDomain);
    coord_t hi = rng.next_coord(0, kDomain + 1);
    if (lo > hi) std::swap(lo, hi);
    for (Interval range : {Interval{0, kDomain}, Interval{lo, hi}}) {
      expect_projection(merged, &Rec::version, version, range);
      expect_projection(merged, &Rec::owner, owner, range);
      expect_projection(merged, &Rec::t, t, range);
    }
    ASSERT_FALSE(HasFailure()) << "diverged at step " << step;
  }
  // The merged map is the common refinement: never fewer segments.
  EXPECT_GE(merged.segment_count(), version.segment_count());
  EXPECT_GE(merged.segment_count(), owner.segment_count());
  EXPECT_GE(merged.segment_count(), t.segment_count());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MergedMapDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// A map over [0, domain) built by random assign/erase with values from a
// tiny domain, so equal-valued neighbours are common.
IntervalMap<int> random_map(Rng& rng, coord_t domain, int steps) {
  IntervalMap<int> m;
  for (int step = 0; step < steps; ++step) {
    coord_t a = rng.next_coord(0, domain);
    coord_t b = rng.next_coord(0, domain + 1);
    if (a > b) std::swap(a, b);
    if (rng.next_below(4) == 0) {
      m.erase({a, b});
    } else {
      m.assign({a, b}, static_cast<int>(rng.next_below(3)));
    }
  }
  return m;
}

// Sorted, disjoint runs over [0, domain): gaps of zero (touching runs),
// occasional empty runs, lengths from one point to a fifth of the domain.
std::vector<std::pair<Interval, int>> random_runs(Rng& rng, coord_t domain) {
  std::vector<std::pair<Interval, int>> runs;
  coord_t at = rng.next_coord(0, domain / 4 + 1);
  while (at < domain) {
    const coord_t len = rng.next_below(8) == 0 ? 0 : rng.next_coord(1, domain / 5 + 2);
    const coord_t hi = std::min(domain, at + len);
    runs.emplace_back(Interval{at, hi}, static_cast<int>(rng.next_below(3)));
    at = hi + (rng.next_below(3) == 0 ? 0 : rng.next_coord(0, domain / 6 + 1));
  }
  return runs;
}

class AssignSortedProperty : public ::testing::TestWithParam<std::uint64_t> {};

// assign_sorted is exactly the runs assigned one by one: same content and
// the same canonical segments, over runs that split, cover or touch
// existing segments and their equal-valued neighbours.
TEST_P(AssignSortedProperty, MatchesOneByOneAssign) {
  constexpr coord_t kDomain = 150;
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    IntervalMap<int> batched = random_map(rng, kDomain, 40);
    IntervalMap<int> serial = batched;
    const auto runs = random_runs(rng, kDomain);
    batched.assign_sorted(runs);
    for (const auto& [iv, v] : runs) serial.assign(iv, v);
    ASSERT_EQ(batched.snapshot({-1, kDomain + 1}), serial.snapshot({-1, kDomain + 1}))
        << "trial " << trial;
    ASSERT_EQ(batched.segment_count(), serial.segment_count()) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, AssignSortedProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(IntervalMap, AssignSortedMergesEqualNeighbours) {
  IntervalMap<int> m;
  m.assign({0, 10}, 1);
  m.assign({20, 30}, 1);
  m.assign({40, 50}, 2);
  // Fills the gap with the neighbours' value, splits [40, 50), and touches
  // [20, 30) with an equal run on its right.
  const std::vector<std::pair<Interval, int>> runs{
      {{10, 20}, 1}, {{30, 35}, 1}, {{42, 44}, 3}};
  m.assign_sorted(runs);
  const std::vector<std::pair<Interval, int>> want{
      {{0, 35}, 1}, {{40, 42}, 2}, {{42, 44}, 3}, {{44, 50}, 2}};
  EXPECT_EQ(m.snapshot({0, 50}), want);
  EXPECT_EQ(m.segment_count(), 4u);
}

// LSR_CHECK throws std::logic_error; the map is left as it was.
TEST(IntervalMap, AssignSortedRejectsUnsortedOrOverlappingRuns) {
  IntervalMap<int> m;
  m.assign({0, 10}, 1);
  const std::vector<std::pair<Interval, int>> unsorted{{{5, 8}, 2}, {{1, 3}, 2}};
  const std::vector<std::pair<Interval, int>> overlapping{{{1, 5}, 2}, {{4, 8}, 3}};
  EXPECT_THROW(m.assign_sorted(unsorted), std::logic_error);
  EXPECT_THROW(m.assign_sorted(overlapping), std::logic_error);
  const std::vector<std::pair<Interval, int>> untouched{{{0, 10}, 1}};
  EXPECT_EQ(m.snapshot({0, 10}), untouched);
}

template <typename Walk>
std::vector<std::pair<Interval, int>> walk_all(const std::vector<Interval>& ranges, Walk walk) {
  std::vector<std::pair<Interval, int>> seen;
  for (Interval r : ranges) walk(r, seen);
  return seen;
}

class HintedWalkProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Hinted walks over sorted ranges visit exactly what unhinted walks visit:
// with the hint carried from walk to walk, and with a hint reset past the
// answer before every walk.
TEST_P(HintedWalkProperty, VisitsWhatUnhintedWalksVisit) {
  constexpr coord_t kDomain = 150;
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const IntervalMap<int> m = random_map(rng, kDomain, 40);
    std::vector<Interval> ranges;
    for (const auto& [iv, v] : random_runs(rng, kDomain)) ranges.push_back(iv);
    using Seen = std::vector<std::pair<Interval, int>>;
    for (int past : {0, 1}) {
      IntervalMap<int>::Hint in_h, run_h, gap_h;
      auto reset = [&](IntervalMap<int>::Hint& h) {
        if (past != 0) h.pos = m.segment_count() + 3;
      };
      auto in = [&](Interval r, Seen& out, IntervalMap<int>::Hint* h) {
        m.for_each_in(r, [&](Interval iv, int v) { out.emplace_back(iv, v); }, h);
      };
      auto run = [&](Interval r, Seen& out, IntervalMap<int>::Hint* h) {
        m.for_each_run(r, [](int v) { return v % 2; },
                       [&](Interval iv, int v) { out.emplace_back(iv, v); }, h);
      };
      auto gap = [&](Interval r, Seen& out, IntervalMap<int>::Hint* h) {
        m.for_each_gap(r, [&](Interval iv) { out.emplace_back(iv, -1); }, h);
      };
      EXPECT_EQ(walk_all(ranges, [&](Interval r, Seen& o) { in(r, o, nullptr); }),
                walk_all(ranges, [&](Interval r, Seen& o) { reset(in_h); in(r, o, &in_h); }));
      EXPECT_EQ(walk_all(ranges, [&](Interval r, Seen& o) { run(r, o, nullptr); }),
                walk_all(ranges, [&](Interval r, Seen& o) { reset(run_h); run(r, o, &run_h); }));
      EXPECT_EQ(walk_all(ranges, [&](Interval r, Seen& o) { gap(r, o, nullptr); }),
                walk_all(ranges, [&](Interval r, Seen& o) { reset(gap_h); gap(r, o, &gap_h); }));
    }
    // One hint shared by all three walks of each range: every lookup after
    // the first starts past its answer.
    IntervalMap<int>::Hint shared;
    Seen plain, hinted;
    for (Interval r : ranges) {
      m.for_each_in(r, [&](Interval iv, int v) { plain.emplace_back(iv, v); });
      m.for_each_gap(r, [&](Interval iv) { plain.emplace_back(iv, -1); });
      m.for_each_in(r, [&](Interval iv, int v) { hinted.emplace_back(iv, v); }, &shared);
      m.for_each_gap(r, [&](Interval iv) { hinted.emplace_back(iv, -1); }, &shared);
    }
    EXPECT_EQ(plain, hinted);
    ASSERT_FALSE(HasFailure()) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, HintedWalkProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(IntervalSet, Arithmetic) {
  IntervalSet s;
  s.add({0, 10});
  s.subtract({3, 5});
  EXPECT_TRUE(s.contains({0, 3}));
  EXPECT_FALSE(s.contains({2, 4}));
  EXPECT_EQ(s.size_within({0, 10}), 8);
  std::vector<Interval> gaps;
  s.for_each_gap({0, 10}, [&](Interval iv) { gaps.push_back(iv); });
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], (Interval{3, 5}));
}

}  // namespace
}  // namespace legate

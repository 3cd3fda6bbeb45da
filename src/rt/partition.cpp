#include "rt/partition.h"

#include <algorithm>
#include <cstring>

#include "comm/comm.h"

namespace legate::rt {

const char* partition_strategy_name(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::Rows: return "rows";
    case PartitionStrategy::Nnz: return "nnz";
    case PartitionStrategy::Auto: return "auto";
    case PartitionStrategy::Unset: return "unset";
  }
  return "unset";
}

PartitionStrategy parse_partition_strategy(const char* s) {
  if (s == nullptr) return PartitionStrategy::Unset;
  if (std::strcmp(s, "rows") == 0) return PartitionStrategy::Rows;
  if (std::strcmp(s, "nnz") == 0) return PartitionStrategy::Nnz;
  if (std::strcmp(s, "auto") == 0) return PartitionStrategy::Auto;
  return PartitionStrategy::Unset;
}

Partition::Partition(std::vector<Interval> subs, std::vector<IntervalSet> precise,
                     bool disjoint)
    : subs_(std::move(subs)), precise_(std::move(precise)), disjoint_(disjoint),
      uid_(next_uid()) {
  precise_digest_.reserve(precise_.size());
  for (std::size_t c = 0; c < precise_.size(); ++c) {
    comm::Hash h;
    precise_[c].for_each(subs_.at(c), [&](Interval r) {
      h.mix_i(r.lo);
      h.mix_i(r.hi);
    });
    precise_digest_.push_back(h.digest());
  }
}

std::uint64_t Partition::next_uid() {
  // Atomic only for safety; partitions are created on the control thread.
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const Partition> Partition::equal(coord_t extent, int colors) {
  LSR_CHECK(colors >= 1);
  std::vector<Interval> subs;
  subs.reserve(colors);
  coord_t base = extent / colors;
  coord_t rem = extent % colors;
  coord_t lo = 0;
  for (int c = 0; c < colors; ++c) {
    coord_t len = base + (c < rem ? 1 : 0);
    subs.emplace_back(lo, lo + len);
    lo += len;
  }
  return std::make_shared<const Partition>(std::move(subs), /*disjoint=*/true);
}

std::shared_ptr<const Partition> Partition::balanced(
    const std::vector<coord_t>& weights, int colors) {
  LSR_CHECK(colors >= 1);
  const coord_t n = static_cast<coord_t>(weights.size());
  coord_t total = 0;
  for (coord_t w : weights) {
    LSR_CHECK_MSG(w >= 0, "balanced partition weights must be non-negative");
    total += w;
  }
  if (total == 0) return equal(n, colors);

  // Cut c (1 <= c < colors) lands at the smallest index i whose prefix sum
  // reaches c/colors of the total: prefix(i) * colors >= c * total, compared
  // in 128-bit so huge nnz totals cannot wrap.
  std::vector<Interval> subs;
  subs.reserve(colors);
  coord_t lo = 0;
  coord_t i = 0;
  __int128 prefix = 0;
  for (int c = 1; c < colors; ++c) {
    const __int128 target = static_cast<__int128>(c) * total;
    while (i < n && prefix * colors < target) prefix += weights[i++];
    subs.emplace_back(lo, i);
    lo = i;
  }
  subs.emplace_back(lo, n);
  return std::make_shared<const Partition>(std::move(subs), /*disjoint=*/true);
}

}  // namespace legate::rt

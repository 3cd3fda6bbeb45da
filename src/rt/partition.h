#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/interval.h"
#include "util/interval_map.h"

namespace legate::rt {

/// Which row split distributed sparse kernels launch over.
///
///  - Rows: `Partition::equal` over rows — every color gets ~rows/P rows
///    regardless of how the nonzeros are distributed (the historical
///    default, and optimal for uniform matrices).
///  - Nnz:  `Partition::balanced` over per-row nnz — every color gets
///    ~nnz/P nonzeros, so power-law matrices stop serializing on the
///    color that owns the hot rows.
///  - Auto: per matrix, pick Nnz when the equal split's nnz imbalance
///    ratio (max color nnz / mean color nnz) exceeds a threshold,
///    otherwise stay on Rows.
///  - Unset: defer to the `LSR_PARTITION` environment variable
///    (`rows|nnz|auto`), defaulting to Rows.
enum class PartitionStrategy { Unset, Rows, Nnz, Auto };

[[nodiscard]] const char* partition_strategy_name(PartitionStrategy s);

/// Parse `rows|nnz|auto` (case-sensitive); anything else -> Unset.
[[nodiscard]] PartitionStrategy parse_partition_strategy(const char* s);

/// A first-class partition: a mapping from colors to intervals of a store's
/// *basis units* (rows of a 2-D store, elements of a 1-D store).
///
/// Image partitions are generally *aliased* (overlapping) and need not cover
/// the basis (Section 2.2). Following Legion, each color's subspace has two
/// views: the *bounding* interval, which is what rectangular instances
/// allocate (this drives memory footprints, e.g. the quantum benchmark's
/// 64-GPU OOM), and an optional *precise* set of touched intervals, which is
/// what the copy engine actually moves (this keeps halo traffic at the
/// data-dependent minimum).
class Partition {
 public:
  Partition(std::vector<Interval> subs, bool disjoint)
      : subs_(std::move(subs)), disjoint_(disjoint), uid_(next_uid()) {}
  Partition(std::vector<Interval> subs, std::vector<IntervalSet> precise,
            bool disjoint);

  /// Process-unique identity, assigned at construction. Caches key on this
  /// instead of the object address: a freed partition's address can be
  /// reused by an unrelated one, which would silently alias cache entries
  /// (and made cache hit/miss sequences — hence simulated control-lane
  /// time — depend on heap layout).
  [[nodiscard]] std::uint64_t uid() const { return uid_; }

  /// Draw a fresh identity from the sequence the constructors use. Never 0,
  /// so 0 can stand for "no partition". The simulated replay tracks
  /// partition identities without materializing content (Runtime::sim_apply);
  /// drawing them here keeps them from aliasing a real partition's uid.
  static std::uint64_t next_uid();

  [[nodiscard]] int colors() const { return static_cast<int>(subs_.size()); }
  [[nodiscard]] Interval sub(int color) const { return subs_.at(color); }
  [[nodiscard]] const std::vector<Interval>& subs() const { return subs_; }
  [[nodiscard]] bool disjoint() const { return disjoint_; }

  /// Precise touched set for a color, or nullptr when the bounding interval
  /// is exact (equal partitions, contiguous images).
  [[nodiscard]] const IntervalSet* precise(int color) const {
    return precise_.empty() ? nullptr : &precise_.at(static_cast<std::size_t>(color));
  }
  /// Digest (comm::Hash of each run's lo, hi) of precise(color)'s runs
  /// within sub(color), computed once at construction: the exchange-plan
  /// key mixes it instead of re-walking the runs on every launch.
  [[nodiscard]] std::uint64_t precise_digest(int color) const {
    return precise_digest_.at(static_cast<std::size_t>(color));
  }

  /// Equal block partition of [0, extent) into `colors` pieces.
  static std::shared_ptr<const Partition> equal(coord_t extent, int colors);

  /// Weight-balanced contiguous partition of [0, weights.size()) into
  /// `colors` pieces by prefix-sum cuts: cut c is the smallest index i with
  /// prefix(i) >= c * total / colors (compared exactly in integers), so each
  /// color carries ~total/colors weight. Degenerates to `equal` when every
  /// weight is zero; emits zero-length subspaces when the weights are so
  /// skewed (or so few) that some colors have nothing to carry.
  static std::shared_ptr<const Partition> balanced(
      const std::vector<coord_t>& weights, int colors);

  friend bool operator==(const Partition& a, const Partition& b) {
    return a.subs_ == b.subs_;
  }

 private:
  std::vector<Interval> subs_;
  std::vector<IntervalSet> precise_;  ///< empty, or one set per color
  std::vector<std::uint64_t> precise_digest_;  ///< one per precise set
  bool disjoint_;
  std::uint64_t uid_;
};

using PartitionRef = std::shared_ptr<const Partition>;

}  // namespace legate::rt

#pragma once

// Communication planner (lsr_comm): explicit halo-exchange plans for the
// runtime's staleness copies.
//
// The runtime stages every launch through one Pass B (Runtime::comm_pass_b):
// it creates the launch's instances, then materializes the launch's
// staleness set into an ExchangePlan — the per-destination ghost index sets
// with their byte volumes — and issues it. For the fixed-structure
// iterations that dominate CG/GMRES the staleness set is identical from one
// iteration to the next, so under plan/overlap the plan is cached keyed by
// the launch's partition structure plus a valid-set signature of the
// stores' version/ownership/instance state. A cached plan is only replayed
// when the freshly computed signature matches, so correctness never depends
// on invalidation hooks; invalidation (store mutation, destruction,
// repartitioning) is hygiene that keeps the cache small and the hit/miss
// counters meaningful.
//
// Under plan/overlap a plan's ghosts are coalesced into one aggregated
// transfer per modeled link: per memory for intra-memory traffic, per (src,
// dst) memory pair for same-node (nvlink) traffic, and per (src, dst) node
// pair for inter-node (ib) traffic — one latency payment per link. Off is
// the uncached ablation with one message per ghost, the Fig. 5 baseline.
// See DESIGN.md §15.
//
// This library sits below rt (links only lsr_util); the runtime owns the
// derivation and application logic (src/rt/runtime_comm.cpp).

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "util/interval.h"

namespace legate::comm {

/// Mirrors rt::StoreId without depending on rt headers.
using StoreId = std::uint64_t;

/// Communication-planner mode (RuntimeOptions::comm / LSR_COMM).
enum class Mode {
  Unset,    ///< read LSR_COMM (`off|plan|overlap`), defaulting to Off
  Off,      ///< uncached, one message per ghost: the Fig. 5 baseline
  Plan,     ///< cached exchange plans + per-link message coalescing
  Overlap,  ///< Plan, plus interior/boundary kernel splitting so compute
            ///< proceeds while ghost transfers are in flight
};

/// Parse `off|0|plan|on|1|overlap` (anything else = Unset → default).
[[nodiscard]] Mode parse_comm_mode(const char* s);
[[nodiscard]] const char* comm_mode_name(Mode m);

/// FNV-1a 64-bit accumulator for the structural plan key and the valid-set
/// signature. Hashing interval runs (lo, hi, normalized value) makes both
/// digests independent of partition object identity — the runtime rebuilds
/// broadcast/halo Partition objects every launch, so uids cannot key a cache.
struct Hash {
  std::uint64_t h{14695981039346656037ULL};

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void mix_i(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t digest() const { return h; }
};

/// One stale piece a launch must pull: `piece` (element coordinates) of the
/// plan's `arg`-th keyed argument, from `src_mem` into `dst_mem`, feeding
/// point task `color`. Stores are addressed by keyed-argument ordinal, not
/// id: iterative solvers rotate temporary store ids every iteration while
/// the exchange structure stays fixed.
struct Ghost {
  Interval piece;
  int arg{0};      ///< ordinal within the plan's keyed (ghost-bearing) args
  int src_mem{-1};
  int dst_mem{-1};
  int color{0};
  double bytes{0};  ///< raw (unscaled) payload bytes
  std::uint32_t transfer{0};  ///< index into ExchangePlan::transfers (coalesce)
};

/// One aggregated transfer: every ghost riding the same modeled link, issued
/// as a single copy of the summed bytes between representative memories.
struct Transfer {
  int src_mem{-1};
  int dst_mem{-1};
  double bytes{0};
};

/// A launch's materialized staleness-copy set plus its coalesced form.
struct ExchangePlan {
  std::vector<Ghost> ghosts;
  std::vector<Transfer> transfers;
  /// Raw ghost bytes delivered to each point task (indexed by color); the
  /// overlap mode sizes the boundary phase of each kernel from this.
  std::vector<double> ghost_bytes_by_color;
  double total_bytes{0};
  std::uint64_t signature{0};
  /// Store ids contributing ghost bytes at derivation time (sorted, unique)
  /// — the invalidation index. Deliberately NOT every keyed argument: solver
  /// temporaries that are read aligned (no ghosts) rotate ids every
  /// iteration, and binding them here would evict structurally reusable
  /// plans each time one dies. Signature validation guards correctness for
  /// every store either way.
  std::vector<StoreId> stores;

  /// Group `ghosts` into `transfers` by modeled link — intra-memory (same
  /// memory), nvlink (same node: per memory pair), ib (cross-node: per node
  /// pair) — or, without `per_link`, give each ghost its own transfer; and
  /// fill the per-color/total byte tallies. `mem_node` maps memory id → node
  /// id; `colors` sizes ghost_bytes_by_color.
  void coalesce(int colors, const std::vector<int>& mem_node, bool per_link);
};

/// Exchange-plan cache activity as the runtime counts it
/// (Runtime::comm_plan_stats reads the lsr_comm_plan_* counters).
struct PlanStats {
  long hits{0};
  long misses{0};
  long invalidations{0};
};

/// Keyed plan cache with a per-store invalidation index. Entries live under
/// the combined (structural key, valid-set signature) hash, so one launch
/// structure may cache several plans for distinct store states — launches
/// sharing a structure (e.g. axpy/dot over identically partitioned vectors)
/// must not evict each other, and a solver alternating between two states
/// must not thrash a single slot.
class PlanCache {
 public:
  /// Returns the cached plan iff (`key`, `sig`) is present, else nullptr.
  const ExchangePlan* lookup(std::uint64_t key, std::uint64_t sig);
  /// Insert the plan (whose `signature` must be set) under `key`; returns
  /// the stored plan. When the cache is full the whole map is dropped first
  /// (plans are cheap to re-derive; eviction order must not depend on hash
  /// iteration order).
  const ExchangePlan* insert(std::uint64_t key, ExchangePlan plan);
  /// Drop every plan touching `id`; returns the number dropped.
  long invalidate_store(StoreId id);
  void clear();

  [[nodiscard]] std::size_t size() const { return plans_.size(); }

 private:
  static constexpr std::size_t kMaxPlans = 512;
  std::unordered_map<std::uint64_t, ExchangePlan> plans_;
  std::map<StoreId, std::set<std::uint64_t>> by_store_;
};

}  // namespace legate::comm

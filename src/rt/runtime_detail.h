#pragma once

// Internal runtime structures shared between the simulated half
// (runtime.cpp) and the deferred-execution half (runtime_exec.cpp).
// Not part of the public API.

#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/pool.h"
#include "rt/partition.h"
#include "rt/runtime.h"
#include "rt/store.h"
#include "sim/engine.h"

namespace legate::rt::detail {

/// A self-contained copy of one task launch: everything needed to (a) run
/// the leaf bodies for real on the pool and (b) replay the launch's
/// simulated accounting later, in issue order, at a fence. Records hold
/// StoreViews — the canonical bytes stay alive through the view's
/// shared_ptr, but the Store's runtime-visible lifetime (release accounting)
/// is not extended.
struct LaunchRecord {
  std::string name;
  std::string prof_label;  ///< built at issue time (provenance is scoped)

  struct RArg {
    StoreView view;
    Priv priv;
    ConstraintKind ckind;
    int image_src;
    coord_t halo_lo, halo_hi;
    int root;           ///< alignment-group root (index into args)
    PartitionRef part;  ///< explicit partition pin (TaskLauncher::set_partition)
  };
  std::vector<RArg> args;
  std::function<void(TaskContext&)> leaf;
  std::optional<ScalarRedop> redop;
  bool has_redop{false};
  int forced_colors{-1};
  double future_dep{0};
  bool poisoned_dep{false};

  bool parallel_safe{true};  ///< points may run concurrently (make_record)
  bool wall_prof{false};     ///< stamp real wall-clock times per point
  std::chrono::steady_clock::time_point wall_epoch{};

  // -- filled by eager_solve, the one constraint solve -----------------------
  // Partition content for every consumer: the leaves, fusion legality, and
  // the replay's staging and accounting (which adds identities, not content).
  int colors{1};
  std::vector<PartitionRef> eager_parts;   ///< per arg; empty until solved
  std::vector<std::vector<Interval>> ivs;  ///< [color][arg], basis units
  std::vector<char> all_empty;             ///< per color: no real work

  // -- filled by run_leaves (pool threads) -----------------------------------
  struct PointOut {
    sim::Cost cost;
    double reshape{0};
    double partial{0};
    bool contributed{false};
    double wall0{-1}, wall1{-1};  ///< measured leaf interval (profiling)
  };
  std::vector<PointOut> out;                 ///< per color
  std::vector<std::exception_ptr> errors;    ///< per color; rethrown at fence
  exec::NodeRef node;                        ///< real-work node (pipelined)

  // -- filled by sim_apply (replay) ------------------------------------------
  Future result;

  [[nodiscard]] std::exception_ptr first_error() const {
    for (const auto& e : errors) {
      if (e) return e;
    }
    return nullptr;
  }
};

/// Structural image-partition computation: scan the source argument's real
/// data under `src_part` and build the image (bounding interval + precise
/// touched set for sparse point images). Pure — no engine time, no caches,
/// no counters; called only by the constraint solve (Runtime::eager_solve).
PartitionRef build_image_partition(const StoreView& src, const Partition& src_part,
                                   ConstraintKind kind);

}  // namespace legate::rt::detail

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

/// A self-contained copy of one task launch: everything needed to account
/// it at issue and to run its leaf bodies for real, possibly on the pool
/// after execute() returned. Records hold StoreViews — the canonical bytes
/// stay alive through the view's shared_ptr, but the Store's runtime-visible
/// lifetime (release accounting) is not extended.
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
  CostFn cost;
  std::optional<ScalarRedop> redop;
  bool has_redop{false};
  int forced_colors{-1};
  double future_dep{0};
  bool poisoned_dep{false};

  bool parallel_safe{true};  ///< points may run concurrently (make_record)
  bool wall_prof{false};     ///< stamp real wall-clock times per point
  std::chrono::steady_clock::time_point wall_epoch{};

  // -- filled by eager_solve, the one constraint solve -----------------------
  // Partition content for every consumer: the leaves, the cost function,
  // fusion legality, and the staging and accounting (which adds identities,
  // not content).
  int colors{1};
  std::vector<PartitionRef> eager_parts;   ///< per arg; empty until solved
  std::vector<std::vector<Interval>> ivs;  ///< [color][arg], basis units
  std::vector<char> all_empty;             ///< per color: no real work
  std::vector<TaskCost> costs;             ///< per color; zero where all_empty

  // -- filled by run_leaves (pool threads) -----------------------------------
  struct PointOut {
    double partial{0};
    bool contributed{false};
    double wall0{-1}, wall1{-1};  ///< measured leaf interval (profiling)
  };
  std::vector<PointOut> out;                 ///< per color
  std::vector<std::exception_ptr> errors;    ///< per color; rethrown at fence
  exec::NodeRef node;                        ///< real-work node (pipelined)

  // -- filled by sim_apply ---------------------------------------------------
  Future result;
  /// Per color: the recorded task event to pair with the leaf's measured
  /// interval once the leaves finished, -1 = none (profiling).
  std::vector<std::int64_t> wall_events;

  [[nodiscard]] std::exception_ptr first_error() const {
    for (const auto& e : errors) {
      if (e) return e;
    }
    return nullptr;
  }

  /// Point `c`'s piece of argument `i` in element coordinates.
  [[nodiscard]] Interval elem(int c, int i) const {
    const Interval iv = ivs[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
    const coord_t stride = args[static_cast<std::size_t>(i)].view.stride;
    return {iv.lo * stride, iv.hi * stride};
  }
  /// Point `c`'s precise touched subset of argument `i` (sparse images), or
  /// null when the whole piece is touched or the argument is strided.
  [[nodiscard]] const IntervalSet* precise(int c, int i) const {
    return args[static_cast<std::size_t>(i)].view.stride == 1
               ? eager_parts[static_cast<std::size_t>(i)]->precise(c)
               : nullptr;
  }
};

/// Clears a launch's flight-recorder board entry (LaunchBoard) when the
/// launch retires or unwinds.
struct EndLaunch {
  void operator()(diag::FlightRecorder* fr) const { fr->end_launch(); }
};

/// Pass B's result: where each point ran and when it finished. Color c maps
/// to processor c mod P, consistently across libraries; points with no work
/// complete when their dependences are met.
struct Mapped {
  Mapped(const sim::Machine& machine, const std::vector<double>& dep_time,
         double t_launch)
      : completion(dep_time), wall_events(dep_time.size(), -1), max_completion(t_launch) {
    for (std::size_t c = 0; c < dep_time.size(); ++c) {
      point_mem.push_back(machine.proc(static_cast<int>(c) % machine.num_procs()).mem);
    }
  }
  std::vector<int> point_mem;      ///< per color: the mapped processor's memory
  std::vector<double> completion;  ///< per color: the kernel's completion
  std::vector<std::int64_t> wall_events;  ///< per color: see LaunchRecord
  double max_completion;
  bool exhausted{false};  ///< some point ran out of retries: poison the launch
};

/// One point kernel for Runtime::charge_point: a launch point of Pass B, or
/// one of shuffle's repack kernels.
struct PointKernel {
  int proc{0};
  TaskCost cost;          ///< the point's cost, before cost scaling
  double gate{0};         ///< every input is present
  double interior{0};     ///< local inputs present (Overlap interior start)
  double ghost_bytes{0};  ///< ghost share of cost.bytes (> 0: Overlap may split)
  bool faults{true};      ///< draws transient faults by point sequence number
};

/// Structural image-partition computation: scan the source argument's real
/// data under `src_part` and build the image (bounding interval + precise
/// touched set for sparse point images). Pure — no engine time, no caches,
/// no counters; called only by the constraint solve (Runtime::eager_solve).
PartitionRef build_image_partition(const StoreView& src, const Partition& src_part,
                                   ConstraintKind kind);

}  // namespace legate::rt::detail

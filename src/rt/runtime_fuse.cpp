// Fusion half of the runtime (lsr_fuse integration): the execute() tail
// that buffers eager-solved launches into a fusion window, the flush that
// rewrites a legal run into one fused launch, and the synthesis of the
// fused record itself. Legality analysis is pure and lives in
// src/fuse/fuse.cpp; everything here owns the window lifecycle and threads
// the fused record back through the one issue path (sim_apply), so the
// accounting and the leaves never special-case fusion. See DESIGN.md "Task
// & kernel fusion".

#include <algorithm>
#include <cctype>
#include <string>

#include "fuse/fuse.h"
#include "rt/runtime.h"
#include "rt/runtime_detail.h"

namespace legate::rt {

using detail::LaunchRecord;

Fusion parse_fusion_mode(const char* s) {
  if (s == nullptr) return Fusion::Unset;
  std::string v(s);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "off" || v == "0") return Fusion::Off;
  if (v == "on" || v == "1" || v == "auto") return Fusion::On;
  return Fusion::Unset;
}

const char* fusion_mode_name(Fusion f) {
  switch (f) {
    case Fusion::Off: return "off";
    case Fusion::On: return "on";
    default: return "unset";
  }
}

Future Runtime::fuse_execute(const std::shared_ptr<LaunchRecord>& R) {
  const auto elig = fuse::classify(*R);
  if (elig == fuse::Eligibility::Ineligible) {
    flush_fuse_window();
    sim_apply(R);
    return R->result;
  }
  // Image/halo-constrained launches may only *start* a window: their eager
  // solve scans real source bytes, which open-window members could still be
  // about to write. Flush before solving them.
  if (elig == fuse::Eligibility::HeadOnly && !fuse_window_.empty()) {
    flush_fuse_window();
  }
  // Every window candidate is solved when offered: legality needs concrete
  // partition identities, the fused leaf runs the children's per-point
  // intervals and the fused cost sums their costs. The decisions are
  // structural, so they are identical at any exec thread count.
  eager_solve(*R);
  if (!fuse_window_.empty() && !fuse_tracker_->admits(*R)) {
    flush_fuse_window();
  }
  fuse_window_.push_back(R);
  fuse_tracker_->add(*R);
  if (auto& fr = engine_->flight(); fr.enabled()) {
    fr.note_window(fuse_window_.size());
  }
  if (R->has_redop) {
    // Terminal link: the scalar future must resolve before execute() returns.
    flush_fuse_window();
    return R->result;
  }
  // Backstop: bound the buffered window (fence-free elementwise programs).
  if (fuse_window_.size() >= 64) flush_fuse_window();
  return Future{};
}

void Runtime::flush_fuse_window() {
  if (fuse_flushing_ || fuse_window_.empty()) return;
  fuse_flushing_ = true;
  std::vector<std::shared_ptr<LaunchRecord>> window;
  window.swap(fuse_window_);
  fuse_tracker_->clear();
  met_.fuse_windows.inc();
  if (auto& fr = engine_->flight(); fr.enabled()) {
    // Window contents are structural (identical at any exec thread count),
    // so the flush event rides the stable sim ring.
    fr.record(diag::EventKind::WindowFlush, "flush",
              static_cast<std::int64_t>(window.size()));
    fr.note_window(0);
  }

  // Stores destroyed while this window was open: their release accounting
  // waited (window members still use their state). Charge the releases at
  // the post-window stream position, even if the issue throws.
  auto run_releases = [this] {
    auto rel = std::move(fuse_pending_release_);
    fuse_pending_release_.clear();
    // The window's records are enqueued now, with their hazard edges
    // against these stores registered.
    for (const auto& [id, esize] : rel) retire_store(id, esize);
  };

  try {
    if (window.size() >= 2) {
      const auto k = window.size();
      auto F = make_fused_record(window);
      met_.fuse_fused.inc(static_cast<double>(k));
      met_.fuse_eliminated.inc(static_cast<double>(k - 1));
      engine_->emit(sim::Ev::Fused, {}, static_cast<std::int64_t>(k),
                    static_cast<std::int64_t>(k - 1));
      sim_apply(F);
      // The terminal link owns the window's scalar future (if any).
      window.back()->result = F->result;
    } else {
      if (auto& fr = engine_->flight(); fr.enabled()) {
        fr.record(diag::EventKind::FuseDecision, "passthrough", 1, 0);
      }
      sim_apply(window.front());
    }
  } catch (...) {
    fuse_flushing_ = false;
    run_releases();
    throw;
  }
  fuse_flushing_ = false;
  run_releases();
}

std::shared_ptr<LaunchRecord> Runtime::make_fused_record(
    std::vector<std::shared_ptr<LaunchRecord>> children) {
  auto plan = fuse::make_plan(children);
  met_.fuse_bytes_saved.inc(plan.bytes_saved);

  auto F = std::make_shared<LaunchRecord>();
  std::string name = "fused[";
  for (std::size_t k = 0; k < children.size(); ++k) {
    if (k > 0) name += '+';
    name += children[k]->name;
  }
  name += ']';
  F->name = std::move(name);

  const auto& head = children.front();
  if (!head->prof_label.empty()) {
    F->prof_label =
        head->prof_label + " [fused:" + std::to_string(children.size()) + "]";
  }
  F->wall_prof = head->wall_prof;
  F->wall_epoch = head->wall_epoch;

  F->args = std::move(plan.args);
  // Scalar reductions are terminal links (fuse_execute flushes on them), so
  // only the last child can carry one.
  F->redop = children.back()->redop;
  F->has_redop = children.back()->has_redop;
  F->forced_colors = -1;
  for (const auto& kid : children) {
    F->future_dep = std::max(F->future_dep, kid->future_dep);
    F->poisoned_dep = F->poisoned_dep || kid->poisoned_dep;
  }
  // Every written combined argument is alignment-solved over one disjoint
  // partition (WindowTracker invariant + per-child parallel_safe), so the
  // fused points may run concurrently.
  F->parallel_safe = true;

  // The fused leaf: per color, run each child's leaf over that child's own
  // eager-solved intervals, in window (= program) order. The captured
  // shared_ptrs keep the children's views (canonical bytes) and intervals
  // alive even if their stores were destroyed mid-window.
  F->leaf = [children](TaskContext& ctx) {
    const int c = ctx.color();
    for (const auto& kid : children) {
      if (kid->all_empty[static_cast<std::size_t>(c)] != 0) continue;
      TaskContext sub;
      sub.color_ = c;
      sub.colors_ = ctx.colors();
      sub.rec_ = kid.get();
      kid->leaf(sub);
      if (sub.contributed_) ctx.contribute(sub.partial_);
    }
  };
  // The fused cost: the children's costs (evaluated at their solves),
  // summed in chain order at their minimum efficiency, with the merged-read
  // round-trips discounted.
  F->cost = [children, saved = std::move(plan.saved_per_color)](const TaskContext& ctx) {
    const auto c = static_cast<std::size_t>(ctx.color());
    TaskCost sum;
    for (const auto& kid : children) {
      if (kid->all_empty[c] != 0) continue;
      const TaskCost& k = kid->costs[c];
      sum.bytes += k.bytes;
      sum.flops += k.flops;
      sum.efficiency = std::min(sum.efficiency, k.efficiency);
      sum.reshape += k.reshape;
    }
    sum.bytes = std::max(0.0, sum.bytes - saved[c]);
    return sum;
  };
  return F;
}

}  // namespace legate::rt

// Fusion half of the runtime (lsr_fuse integration): the execute() tail
// that buffers eager-solved launches into a fusion window, the flush that
// rewrites a legal run into one fused launch, and the synthesis of the
// fused record itself. Legality analysis is pure and lives in
// src/fuse/fuse.cpp; everything here owns the window lifecycle and threads
// the fused record back through the normal issue paths (sim_apply /
// pipelined enqueue), so the simulated and real halves never special-case
// fusion. See DESIGN.md "Task & kernel fusion".

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
    return issue_record(R);
  }
  // Image/halo-constrained launches may only *start* a window: their eager
  // solve scans real source bytes, which open-window members could still be
  // about to write. Flush before solving them.
  if (elig == fuse::Eligibility::HeadOnly && !fuse_window_.empty()) {
    flush_fuse_window();
  }
  // Every window candidate is solved at issue time, in both pipelined and
  // sequential modes: legality needs concrete partition identities, and the
  // fused leaf replays the children's per-point intervals. The decisions are
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

Future Runtime::issue_record(const std::shared_ptr<LaunchRecord>& R) {
  if (!pipeline_ || R->has_redop) {
    // Scalar futures resolve immediately (a fence point); without pipelining
    // the launch is applied in place. Leaves still run on the pool when
    // exec_threads > 1 — intra-launch parallelism needs no deferral.
    if (R->has_redop) drain_sim_queue();
    sim_apply(*R, /*deferred=*/false);
    return R->result;
  }

  // Pipelined: hand the leaf bodies to the task graph and defer every
  // simulated effect to the fence, replayed in issue order.
  if (R->eager_parts.empty()) eager_solve(*R);
  enqueue_record(R);
  sim_queue_.push_back([this, R] {
    if (R->node) pool_->wait(R->node);
    sim_apply(*R, /*deferred=*/true);
  });
  // Backstop: bound deferred state so pathological fence-free programs can't
  // accumulate unbounded records.
  if (sim_queue_.size() >= 1024) drain_sim_queue();
  // Non-scalar launches return an empty future, exactly as the sequential
  // path does on a fault-free run (poison requires fault injection, which
  // disables pipelining).
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
  // was deferred (window leaves may still read their views). Replay the
  // releases at the post-window stream position, even if the issue throws.
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
      issue_record(F);
      // The terminal link owns the window's scalar future (if any).
      window.back()->result = F->result;
    } else {
      if (auto& fr = engine_->flight(); fr.enabled()) {
        fr.record(diag::EventKind::FuseDecision, "passthrough", 1, 0);
      }
      issue_record(window.front());
    }
  } catch (...) {
    fuse_flushing_ = false;
    run_releases();
    throw;
  }
  fuse_flushing_ = false;
  run_releases();
}

void Runtime::drain_sim_queue() {
  if (draining_ || sim_queue_.empty()) return;
  met_.fences.inc();  // Volatile: drain count depends on pipelining depth
  draining_ = true;
  long replayed = 0;
  try {
    while (!sim_queue_.empty()) {
      auto fn = std::move(sim_queue_.front());
      sim_queue_.pop_front();
      fn();
      ++replayed;
    }
  } catch (...) {
    // Leave the remaining launches queued (a later fence continues the
    // drain); hazard nodes may still be pending, so keep them too.
    draining_ = false;
    throw;
  }
  draining_ = false;
  // Every queued launch waited on its node before replay, so all real work
  // is finished: the hazard graph is fully retired.
  hazards_.clear();
  if (auto& fr = engine_->flight(); fr.enabled()) {
    // Fence count depends on pipelining depth, so this is a volatile
    // (thread-ring) event; Launch/Retire replay already charged the stable
    // ring inside sim_apply.
    fr.record_thread(diag::EventKind::Fence, "fence", replayed);
    fr.progress();
  }
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
  // eager-solved intervals, in window (= program) order, then report the
  // chain's combined cost with the merged-read round-trips discounted. The
  // captured shared_ptrs keep the children's views (canonical bytes) and
  // intervals alive even if their stores were destroyed mid-window.
  std::vector<double> saved = std::move(plan.saved_per_color);
  F->leaf = [children, saved](TaskContext& ctx) {
    const int c = ctx.color();
    double bytes = 0, flops = 0, eff = 1.0, reshape = 0, partial = 0;
    bool contributed = false;
    for (const auto& kid : children) {
      if (kid->all_empty[static_cast<std::size_t>(c)] != 0) continue;
      TaskContext sub;
      sub.color_ = c;
      sub.colors_ = ctx.colors();
      sub.rec_ = kid.get();
      kid->leaf(sub);
      bytes += sub.cost_.bytes;
      flops += sub.cost_.flops;
      eff = std::min(eff, sub.cost_.efficiency);
      reshape += sub.reshape_bytes_;
      if (sub.contributed_) {
        partial = sub.partial_;
        contributed = true;
      }
    }
    bytes = std::max(0.0, bytes - saved[static_cast<std::size_t>(c)]);
    ctx.add_cost(bytes, flops, eff);
    if (reshape > 0) ctx.add_reshape_bytes(reshape);
    if (contributed) ctx.contribute(partial);
  };
  return F;
}

}  // namespace legate::rt

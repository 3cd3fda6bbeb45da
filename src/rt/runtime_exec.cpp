// Real-execution half of the runtime (legate::exec integration):
// LaunchRecord construction, the constraint solve and cost evaluation at
// issue, real leaf execution (inline or on the work-stealing pool),
// hazard-graph enqueue, and fence() waiting. The accounting stages
// (sim_apply) live in runtime.cpp.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "rt/runtime.h"
#include "rt/runtime_detail.h"
#include "rt/runtime_state.h"

namespace legate::rt {

namespace detail {

/// Out-of-line fence hook for Store::raw()/span(): see store.h.
void sync_for_access(const StoreImpl* impl) {
  if (impl != nullptr && impl->rt != nullptr) impl->rt->sync_store_access(impl->id);
}

}  // namespace detail

using detail::LaunchRecord;

void Runtime::sync_store_access(StoreId id) {
  // The open fusion window and outstanding leaves may still write the bytes:
  // issue and wait for them before the caller observes (and integrity
  // verifies) them.
  fence();
  if (opts_.integrity != Integrity::Off) {
    // External access verifies the bytes first (the caller is about to trust
    // them), then re-records: the returned span is mutable, so the runtime
    // conservatively treats every external access as a rewrite. External
    // writers that bypass this path must republish via mark_attached.
    if (auto* impl = find_live_store(id)) {
      integrity_verify(id, impl->data->data(), impl->data->size());
      integrity_record(id, impl->data->data(), impl->data->size(), 0,
                       impl->data->size());
    }
  }
  // The returned span is mutable: assume the caller changes the bytes, so
  // memoized image content of this store must be rebuilt, and cached
  // exchange plans signed against its state are stale. The write sequence
  // and the accounted identities stay (ROADMAP `[access]`).
  for (auto& [key, memo] : image_range(id)) memo.content.clear();
  comm_invalidate(id);
}

void Runtime::fence() {
  // Window flush first: it issues the (fused) launch, whose leaves the wait
  // then covers.
  flush_fuse_window();
  wait_leaves();
}

void Runtime::wait_leaves() {
  if (outstanding_.empty()) return;
  met_.fences.inc();  // Volatile: wait count depends on pipelining depth
  std::vector<std::shared_ptr<LaunchRecord>> done;
  done.swap(outstanding_);
  std::exception_ptr first;
  for (const auto& R : done) {
    pool_->wait(R->node);
    pair_walls(*R);
    if (first == nullptr) first = R->first_error();
  }
  // Every outstanding node finished: the hazard graph is fully retired.
  hazards_.clear();
  if (auto& fr = engine_->flight(); fr.enabled()) {
    // Volatile (thread-ring): the fence count depends on pipelining depth.
    fr.record_thread(diag::EventKind::Fence, "fence", static_cast<std::int64_t>(done.size()));
    fr.progress();
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void Runtime::pair_walls(const LaunchRecord& R) {
  auto& rec = engine_->recorder();
  for (std::size_t c = 0; c < R.wall_events.size(); ++c) {
    if (R.wall_events[c] < 0) continue;
    rec.set_wall(static_cast<std::size_t>(R.wall_events[c]), R.out[c].wall0, R.out[c].wall1);
  }
}

metrics::Snapshot Runtime::metrics_snapshot() {
  fence();  // observe a consistent set with every leaf finished
  engine_->emit(sim::Ev::Snapshot);
  return engine_->metrics().snapshot();
}

void Runtime::wait_store_writer(StoreId id) {
  auto it = hazards_.find(id);
  if (it != hazards_.end() && it->second.writer) pool_->wait(it->second.writer);
}

std::shared_ptr<LaunchRecord> Runtime::make_record(TaskLauncher& L) {
  auto R = std::make_shared<LaunchRecord>();
  R->name = L.name_;
  if (engine_->profiling()) {
    // Timeline label: operation name plus provenance (launcher tag, else the
    // enclosing provenance scope), captured when the record is made.
    R->prof_label = L.name_;
    const std::string& prov =
        !L.provenance_.empty() ? L.provenance_ : current_provenance();
    if (!prov.empty()) R->prof_label += " @" + prov;
    R->wall_prof = true;
    R->wall_epoch = engine_->recorder().wall_epoch();
  }
  R->args.reserve(L.args_.size());
  bool any_pin = false;
  for (int i = 0; i < static_cast<int>(L.args_.size()); ++i) {
    const auto& a = L.args_[i];
    R->args.push_back({a.store.view(), a.priv, a.ckind, a.image_src, a.halo_lo,
                       a.halo_hi, L.find_root(i), a.part});
    any_pin = any_pin || a.part != nullptr;
  }
  // Partitioning-strategy provenance: explicit pins are the nnz-balanced row
  // splits of the strategy subsystem, so tag the timeline label with the
  // strategy (the equal row split is the unlabeled default).
  if (any_pin && engine_->profiling()) R->prof_label += " [part=nnz]";
  if (comm_enabled() && engine_->profiling())
    R->prof_label +=
        comm_mode_ == comm::Mode::Overlap ? " [comm:overlap]" : " [comm:plan]";
  R->leaf = L.leaf_;
  R->cost = L.cost_;
  R->redop = L.redop_;
  R->has_redop = L.has_redop_;
  R->forced_colors = L.forced_colors_;
  R->future_dep = L.future_dep_;
  R->poisoned_dep = L.poisoned_dep_;

  // A launch's points may run concurrently only when every written argument
  // uses a disjoint equal partition (ckind None) and no other argument views
  // the same store through a non-None constraint (a broadcast read of a
  // store being written would race). Reduce arguments never race: partials
  // live in private buffers and the write-back is serial.
  bool safe = true;
  for (std::size_t i = 0; i < R->args.size() && safe; ++i) {
    const auto& w = R->args[i];
    if (w.priv != Priv::WriteDiscard && w.priv != Priv::ReadWrite) continue;
    if (w.ckind != ConstraintKind::None) {
      safe = false;
      break;
    }
    for (std::size_t j = 0; j < R->args.size(); ++j) {
      if (j == i) continue;
      const auto& o = R->args[j];
      if (o.view.id != w.view.id || o.priv == Priv::Reduce) continue;
      if (o.ckind != ConstraintKind::None) safe = false;
    }
  }
  R->parallel_safe = safe;
  return R;
}

void Runtime::eager_solve(LaunchRecord& R) {
  const int nargs = static_cast<int>(R.args.size());

  // Color count: the launch's own or the machine's, capped by the largest
  // alignment-solved basis.
  int colors = R.forced_colors > 0 ? R.forced_colors : default_colors();
  coord_t primary_basis = 0;
  for (const auto& a : R.args) {
    if (a.ckind == ConstraintKind::None && a.priv != Priv::Reduce) {
      primary_basis = std::max(primary_basis, a.view.basis);
    }
  }
  if (primary_basis > 0) {
    colors = static_cast<int>(
        std::min<coord_t>(colors, std::max<coord_t>(1, primary_basis)));
  }
  R.colors = colors;

  // Every key partition the accounting can reuse is structurally an equal
  // partition of its basis (fresh equal partitions, pin stand-ins and
  // shuffle layouts are the only partitions ever assigned as keys), so the
  // content of an unpinned alignment group is always the equal split; which
  // identity it carries is the accounting's business (account_partitions).
  auto equal_part = [&](coord_t basis) {
    auto [it, miss] = eager_equal_.try_emplace({basis, colors});
    if (miss) it->second = Partition::equal(basis, colors);
    return it->second;
  };
  auto whole_part = [&](coord_t basis) {
    auto [it, miss] = eager_whole_.try_emplace({basis, colors});
    if (miss) {
      it->second = std::make_shared<const Partition>(
          std::vector<Interval>(static_cast<std::size_t>(colors), Interval{0, basis}),
          false);
    }
    return it->second;
  };

  // Explicit pins (set_partition) apply to the pinned argument's whole
  // alignment group — first pin per group wins, in argument order.
  std::map<int, PartitionRef> pins;
  for (int i = 0; i < nargs; ++i) {
    const auto& a = R.args[i];
    if (a.part && a.ckind == ConstraintKind::None && a.priv != Priv::Reduce) {
      pins.emplace(a.root, a.part);
    }
  }
  for (const auto& [root, pin] : pins) {
    LSR_CHECK_MSG(pin->colors() == colors,
                  "explicit partition color count does not match the launch");
    coord_t hi = 0;
    for (const auto& iv : pin->subs()) hi = std::max(hi, iv.hi);
    LSR_CHECK_MSG(hi == R.args[root].view.basis,
                  "explicit partition does not cover the basis");
  }

  std::vector<PartitionRef> parts(static_cast<std::size_t>(nargs));
  for (int i = 0; i < nargs; ++i) {
    const auto& a = R.args[i];
    if (a.ckind == ConstraintKind::None && a.priv != Priv::Reduce) {
      auto pin = pins.find(a.root);
      parts[i] = pin != pins.end() ? pin->second : equal_part(a.view.basis);
    } else if (a.ckind == ConstraintKind::Broadcast || a.priv == Priv::Reduce) {
      parts[i] = whole_part(a.view.basis);
    }
  }
  // Image/halo constraints, iterated to handle chains (pos -> crd -> x).
  // Images read real source data: wait for that store's pending writer node
  // first, then memoize per (source, kind, write count, partition) so
  // steady-state iterations skip the scan.
  for (int pass = 0; pass < nargs; ++pass) {
    bool progress = false, pending = false;
    for (int i = 0; i < nargs; ++i) {
      const auto& a = R.args[i];
      if (a.ckind != ConstraintKind::ImageRects &&
          a.ckind != ConstraintKind::ImagePoints && a.ckind != ConstraintKind::Halo)
        continue;
      if (parts[i]) continue;
      if (!parts[a.image_src]) {
        pending = true;
        continue;
      }
      if (a.ckind == ConstraintKind::Halo) {
        std::vector<Interval> subs;
        subs.reserve(parts[a.image_src]->colors());
        for (const Interval& s : parts[a.image_src]->subs()) {
          if (s.empty()) {
            subs.emplace_back();
            continue;
          }
          Interval expanded{s.lo + a.halo_lo, s.hi + a.halo_hi};
          subs.push_back(expanded.intersect({0, a.view.basis}));
        }
        parts[i] = std::make_shared<const Partition>(std::move(subs), false);
      } else {
        const auto& src = R.args[a.image_src].view;
        wait_store_writer(src.id);
        auto& content = images_[{src.id, a.ckind, sync(src.id).version_counter}].content;
        auto [it, miss] = content.try_emplace(parts[a.image_src]->uid());
        if (miss) {
          it->second = detail::build_image_partition(src, *parts[a.image_src], a.ckind);
        }
        parts[i] = it->second;
      }
      progress = true;
    }
    if (!pending) break;
    LSR_CHECK_MSG(progress || !pending, "cyclic image constraints");
  }
  for (int i = 0; i < nargs; ++i) LSR_CHECK_MSG(parts[i] != nullptr, "unsolved arg");

  R.eager_parts = parts;
  R.ivs.assign(static_cast<std::size_t>(colors),
               std::vector<Interval>(static_cast<std::size_t>(nargs)));
  R.all_empty.assign(static_cast<std::size_t>(colors), 1);
  for (int c = 0; c < colors; ++c) {
    for (int i = 0; i < nargs; ++i) {
      Interval iv = parts[i]->sub(c).intersect({0, R.args[i].view.basis});
      R.ivs[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)] = iv;
      if (!iv.empty() && R.args[i].ckind != ConstraintKind::Broadcast) {
        R.all_empty[static_cast<std::size_t>(c)] = 0;
      }
    }
  }

  // Each charged point's cost, from its intervals (and image-source bytes,
  // waited for above).
  R.costs.assign(static_cast<std::size_t>(colors), TaskCost{});
  if (!R.cost) return;
  TaskContext ctx;
  ctx.colors_ = colors;
  ctx.rec_ = &R;
  for (int c = 0; c < colors; ++c) {
    if (R.all_empty[static_cast<std::size_t>(c)] != 0) continue;
    ctx.color_ = c;
    const TaskCost cost = R.cost(ctx);
    // Catch misconfigured kernel descriptors at the source (CostModel
    // rejects non-positive efficiency too, but here the task is known).
    LSR_CHECK_MSG(cost.efficiency > 0, "kernel efficiency must be positive");
    R.costs[static_cast<std::size_t>(c)] = cost;
  }
}

void Runtime::enqueue_record(const std::shared_ptr<LaunchRecord>& R) {
  std::vector<exec::NodeRef> deps;
  for (const auto& a : R->args) {
    auto& h = hazards_[a.view.id];
    if (h.writer) deps.push_back(h.writer);
    if (a.priv != Priv::Read) {
      for (const auto& r : h.readers) deps.push_back(r);
    }
  }
  auto node = pool_->submit([this, R] { run_leaves(*R); }, deps);
  for (const auto& a : R->args) {
    auto& h = hazards_[a.view.id];
    if (a.priv == Priv::Read) {
      h.readers.push_back(node);
    } else {
      // WriteDiscard / ReadWrite / Reduce all rewrite real bytes (the reduce
      // write-back happens inside run_leaves).
      h.writer = node;
      h.readers.clear();
    }
  }
  R->node = node;
  outstanding_.push_back(R);
}

void Runtime::run_leaves(LaunchRecord& R) {
  // Scripted execution stall (hung kernel / wedged driver model): sleep on
  // the executing thread before any leaf body runs. With fault injection
  // enabled pipelining is off, so this runs inline on the control thread,
  // under the launch's diag board, and the stateful injector access stays
  // single-threaded. Charges no simulated time — its purpose is tripping the
  // lsr_diag watchdog.
  if (injector_ != nullptr) {
    const double stall_s = injector_->stall_seconds_due(R.name);
    if (stall_s > 0) {
      auto& fr = engine_->flight();
      if (fr.enabled())
        fr.record_thread(diag::EventKind::Stall, R.name, 0, 0, stall_s);
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
    }
  }
  const int nargs = static_cast<int>(R.args.size());
  const int colors = R.colors;
  R.out.assign(static_cast<std::size_t>(colors), {});
  R.errors.assign(static_cast<std::size_t>(colors), nullptr);

  // Reduction accumulators; partials are folded in ascending color order at
  // any thread count, so the left-fold is bit-identical to sequential.
  std::vector<std::vector<double>> acc(static_cast<std::size_t>(nargs));
  bool has_reduce = false;
  for (int i = 0; i < nargs; ++i) {
    if (R.args[i].priv == Priv::Reduce) {
      LSR_CHECK_MSG(R.args[i].view.dtype == DType::F64,
                    "store reductions support f64 only");
      acc[i].assign(static_cast<std::size_t>(R.args[i].view.volume), 0.0);
      has_reduce = true;
    }
  }

  auto wall_now = [&R] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         R.wall_epoch)
        .count();
  };

  auto run_point = [&](int c, std::vector<std::vector<std::byte>>& bufs) {
    if (R.all_empty[static_cast<std::size_t>(c)] != 0) return;
    TaskContext ctx;
    ctx.color_ = c;
    ctx.colors_ = colors;
    ctx.rec_ = &R;
    for (int i = 0; i < nargs; ++i) {
      if (R.args[i].priv == Priv::Reduce) {
        bufs[i].assign(
            static_cast<std::size_t>(R.args[i].view.volume) * sizeof(double),
            std::byte{0});
      }
    }
    ctx.reduce_bufs_ = &bufs;
    auto& po = R.out[static_cast<std::size_t>(c)];
    if (R.wall_prof) po.wall0 = wall_now();
    try {
      R.leaf(ctx);
    } catch (...) {
      R.errors[static_cast<std::size_t>(c)] = std::current_exception();
    }
    if (R.wall_prof) po.wall1 = wall_now();
    po.partial = ctx.partial_;
    po.contributed = ctx.contributed_;
  };

  auto fold = [&](int i, std::vector<std::byte>& buf) {
    if (buf.empty()) return;
    const double* src = reinterpret_cast<const double*>(buf.data());
    for (std::size_t k = 0; k < acc[i].size(); ++k) acc[i][k] += src[k];
    buf.clear();
  };

  bool failed = false;
  const bool parallel = pool_ != nullptr && R.parallel_safe && colors > 1;
  if (!parallel) {
    // Sequential point loop on the calling thread (deterministic color
    // order, last-writer-wins preserved for aliased partitions).
    std::vector<std::vector<std::byte>> bufs(static_cast<std::size_t>(nargs));
    for (int c = 0; c < colors; ++c) {
      run_point(c, bufs);
      if (R.errors[static_cast<std::size_t>(c)]) {
        failed = true;
        break;  // sequential semantics: later points never ran
      }
      for (int i = 0; i < nargs; ++i) {
        if (R.args[i].priv == Priv::Reduce) fold(i, bufs[i]);
      }
    }
  } else {
    std::vector<std::vector<std::vector<std::byte>>> bufs(
        static_cast<std::size_t>(colors),
        std::vector<std::vector<std::byte>>(static_cast<std::size_t>(nargs)));
    pool_->parallel_for(colors, [&](long c) {
      run_point(static_cast<int>(c), bufs[static_cast<std::size_t>(c)]);
    });
    for (int c = 0; c < colors; ++c) {
      if (R.errors[static_cast<std::size_t>(c)]) failed = true;
      for (int i = 0; i < nargs; ++i) {
        if (R.args[i].priv == Priv::Reduce) {
          fold(i, bufs[static_cast<std::size_t>(c)][i]);
        }
      }
    }
  }

  // Write the folded partials back to the canonical buffers (the simulated
  // all-reduce is reduce_stores').
  if (has_reduce && !failed) {
    for (int i = 0; i < nargs; ++i) {
      if (R.args[i].priv != Priv::Reduce) continue;
      auto dst = R.args[i].view.span<double>();
      std::copy(acc[i].begin(), acc[i].end(), dst.begin());
    }
  }
  // Leaf batch done: wall-clock evidence of forward progress from whichever
  // thread ran it (pool worker under pipelining, control thread otherwise).
  auto& fr = engine_->flight();
  if (fr.enabled()) {
    fr.record_thread(diag::EventKind::LeafExec, R.name, colors,
                     failed ? 1 : 0);
    fr.progress();
  }
}

}  // namespace legate::rt

// Communication-planner half of the runtime (lsr_comm integration): the
// sim_apply Pass B replacement that materializes each launch's staleness-copy
// set into a cached ExchangePlan, charges it as coalesced per-link transfers,
// and (under Overlap) splits kernels into interior/boundary phases so compute
// proceeds while ghost transfers are in flight. The per-piece baseline path
// lives in runtime.cpp (ensure_in_memory); canonical results are identical —
// only the simulated copy schedule differs. See DESIGN.md §15.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <tuple>

#include "rt/runtime.h"
#include "rt/runtime_detail.h"
#include "rt/runtime_state.h"

namespace legate::rt {

using detail::LaunchRecord;

Runtime::Alloc* Runtime::comm_find_alloc(StoreId id, Interval elem,
                                         int mem) const {
  auto it = mem_state_[static_cast<std::size_t>(mem)]->allocs.find(id);
  if (it == mem_state_[static_cast<std::size_t>(mem)]->allocs.end()) {
    return nullptr;
  }
  for (auto& a : it->second) {
    if (a.extent.contains(elem)) return &a;
  }
  return nullptr;
}

void Runtime::comm_invalidate(StoreId id) {
  if (!comm_on_) return;
  long n = comm_cache_.invalidate_store(id);
  if (n > 0) met_.comm_plan_invalidations.inc(static_cast<double>(n));
}

void Runtime::comm_pass_b(LaunchRecord& R, const std::vector<double>& dep_time,
                          std::vector<double>& completion,
                          std::vector<int>& point_mem,
                          std::vector<double>& partials, double& max_completion) {
  const auto& pp = machine_.params();
  const int colors = R.colors;
  const int nargs = static_cast<int>(R.args.size());
  const int nprocs = machine_.num_procs();
  const auto& parts = R.eager_parts;
  const auto& point_ivs = R.ivs;
  const auto& all_empty = R.all_empty;

  std::vector<int> mem_node(machine_.memories().size(), 0);
  for (const auto& m : machine_.memories()) {
    mem_node[static_cast<std::size_t>(m.id)] = m.node;
  }

  // Staged arguments get instances (everything but Reduce, whose partials
  // live in private buffers); the keyed subset can additionally carry ghosts
  // (WriteDiscard instances need no staleness copies — and iterative solvers
  // rotate fresh output stores every iteration, so discard outputs must not
  // perturb the plan key either).
  std::vector<int> staged, keyed;
  for (int i = 0; i < nargs; ++i) {
    if (R.args[i].priv == Priv::Reduce) continue;
    staged.push_back(i);
    if (R.args[i].priv != Priv::WriteDiscard) keyed.push_back(i);
  }

  auto elem_of = [&](int c, int i) {
    Interval iv = point_ivs[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
    coord_t stride = R.args[static_cast<std::size_t>(i)].view.stride;
    return Interval{iv.lo * stride, iv.hi * stride};
  };
  auto precise_of = [&](int c, int i) -> const IntervalSet* {
    return R.args[static_cast<std::size_t>(i)].view.stride == 1
               ? parts[static_cast<std::size_t>(i)]->precise(c)
               : nullptr;
  };

  for (int c = 0; c < colors; ++c) {
    point_mem[static_cast<std::size_t>(c)] = machine_.proc(c % nprocs).mem;
  }

  // ---- Stage instances; collect pre-exchange (local) readiness -----------
  // Same allocation side effects as the per-piece path (LRU touches, pool
  // reuse, coalescing resize copies, OOM spilling); only the staleness
  // copies themselves are planned and coalesced below.
  std::vector<double> local_ready = dep_time;
  for (int c = 0; c < colors; ++c) {
    if (all_empty[static_cast<std::size_t>(c)] != 0) continue;
    const int mem = point_mem[static_cast<std::size_t>(c)];
    for (int i : staged) {
      Interval elem = elem_of(c, i);
      if (elem.empty()) continue;
      Alloc& a = find_or_create_alloc(R.args[static_cast<std::size_t>(i)].view,
                                      elem, mem);
      a.ready.for_each_in(elem, [&](Interval, double t) {
        local_ready[static_cast<std::size_t>(c)] =
            std::max(local_ready[static_cast<std::size_t>(c)], t);
      });
    }
  }

  // ---- Structural plan key ------------------------------------------------
  // Partition *content* (sub-intervals + precise runs), never uids: equal
  // content can come from different Partition objects (halo partitions are
  // rebuilt every launch, pins are the caller's own).
  // Store ids are excluded too — solvers rotate temporaries each iteration
  // while the exchange structure stays fixed; the signature below binds the
  // plan to the actual store states.
  comm::Hash kh;
  for (char ch : R.name) kh.mix(static_cast<std::uint64_t>(ch));
  kh.mix(static_cast<std::uint64_t>(colors));
  kh.mix(static_cast<std::uint64_t>(keyed.size()));
  for (int i : keyed) {
    const auto& a = R.args[static_cast<std::size_t>(i)];
    kh.mix(static_cast<std::uint64_t>(a.ckind));
    kh.mix_i(a.view.stride);
    kh.mix_i(a.view.basis);
    for (int c = 0; c < colors; ++c) {
      Interval elem = elem_of(c, i);
      kh.mix_i(elem.lo);
      kh.mix_i(elem.hi);
      if (const IntervalSet* pr = precise_of(c, i)) {
        pr->for_each(elem, [&](Interval r) {
          kh.mix_i(r.lo);
          kh.mix_i(r.hi);
        });
      }
    }
  }
  const std::uint64_t key = kh.digest();

  // ---- Valid-set signature ------------------------------------------------
  // Everything the derivation below reads, normalized so a hit guarantees an
  // identical staleness set: per keyed argument the version runs (as deltas
  // from the store's version counter — absolute versions advance every
  // iteration while the *pattern* repeats), the owner runs, and per point
  // the covering allocation's extent plus its held runs (same delta
  // normalization) over the required pieces. Gap markers distinguish
  // never-written/never-held from version 0.
  comm::Hash sh;
  for (int i : keyed) {
    const auto& a = R.args[static_cast<std::size_t>(i)];
    auto& ss = sync(a.view.id);
    const Interval whole = a.view.extent();
    ss.version.for_each_in(whole, [&](Interval iv, std::uint64_t v) {
      sh.mix_i(iv.lo);
      sh.mix_i(iv.hi);
      sh.mix(ss.version_counter - v);
    });
    ss.version.for_each_gap(whole, [&](Interval iv) {
      sh.mix_i(iv.lo);
      sh.mix_i(iv.hi);
      sh.mix(~0ULL);
    });
    ss.owner.for_each_in(whole, [&](Interval iv, int m) {
      sh.mix_i(iv.lo);
      sh.mix_i(iv.hi);
      sh.mix(static_cast<std::uint64_t>(m));
    });
    for (int c = 0; c < colors; ++c) {
      if (all_empty[static_cast<std::size_t>(c)] != 0) continue;
      Interval elem = elem_of(c, i);
      if (elem.empty()) continue;
      const Alloc* al =
          comm_find_alloc(a.view.id, elem, point_mem[static_cast<std::size_t>(c)]);
      if (al == nullptr) {
        // Staging always creates a covering allocation, but be conservative.
        sh.mix(0xA110CULL);
        continue;
      }
      sh.mix_i(al->extent.lo);
      sh.mix_i(al->extent.hi);
      auto scan = [&](Interval r) {
        al->held.for_each_in(r, [&](Interval iv, std::uint64_t v) {
          sh.mix_i(iv.lo);
          sh.mix_i(iv.hi);
          sh.mix(ss.version_counter - v);
        });
        al->held.for_each_gap(r, [&](Interval iv) {
          sh.mix_i(iv.lo);
          sh.mix_i(iv.hi);
          sh.mix(~0ULL);
        });
      };
      const IntervalSet* pr = precise_of(c, i);
      if (pr != nullptr) {
        pr->for_each(elem, scan);
      } else {
        scan(elem);
      }
    }
  }
  const std::uint64_t sig = sh.digest();

  // ---- Cache lookup / plan derivation -------------------------------------
  const comm::ExchangePlan* plan = comm_cache_.lookup(key, sig);
  // LSR_COMM_DEBUG=1: per-launch hit/miss trace for diagnosing key or
  // signature instability (e.g. a solver that should reach steady-state
  // reuse but keeps re-deriving).
  static const bool debug = std::getenv("LSR_COMM_DEBUG") != nullptr;
  if (debug)
    std::fprintf(stderr, "[comm] %-24s key=%016llx sig=%016llx %s\n",
                 R.name.c_str(), static_cast<unsigned long long>(key),
                 static_cast<unsigned long long>(sig),
                 plan != nullptr ? "HIT" : "miss");
  const bool hit = plan != nullptr;
  (hit ? met_.comm_plan_hits : met_.comm_plan_misses).inc();
  if (!hit) {
    comm::ExchangePlan fresh;
    // Scheduled-piece overlay per (mem, store, allocation): points sharing a
    // memory (CPU sockets on one node) must not double-schedule the same
    // ghost the per-piece path would have deduplicated through `held`.
    std::map<std::tuple<int, StoreId, coord_t>, IntervalMap<std::uint64_t>>
        overlay;
    for (int c = 0; c < colors; ++c) {
      if (all_empty[static_cast<std::size_t>(c)] != 0) continue;
      const int mem = point_mem[static_cast<std::size_t>(c)];
      for (int ord = 0; ord < static_cast<int>(keyed.size()); ++ord) {
        const int i = keyed[static_cast<std::size_t>(ord)];
        const auto& a = R.args[static_cast<std::size_t>(i)];
        Interval elem = elem_of(c, i);
        if (elem.empty()) continue;
        auto& ss = sync(a.view.id);
        Alloc* al = comm_find_alloc(a.view.id, elem, mem);
        LSR_CHECK_MSG(al != nullptr, "comm plan derivation before staging");
        auto& ov = overlay[{mem, a.view.id, al->extent.lo}];
        const double esize = static_cast<double>(dtype_size(a.view.dtype));
        // Required version per piece (implicit 0 = never written, no
        // movement), restricted to the precise touched set when one exists —
        // the same walk ensure_in_memory does.
        std::vector<std::pair<Interval, std::uint64_t>> required;
        auto collect = [&](Interval range) {
          ss.version.for_each_in(range, [&](Interval iv, std::uint64_t v) {
            required.emplace_back(iv, v);
          });
        };
        const IntervalSet* pr = precise_of(c, i);
        if (pr != nullptr) {
          pr->for_each(elem, collect);
        } else {
          collect(elem);
        }
        for (auto& [iv, v] : required) {
          if (v == 0) continue;
          std::vector<Interval> stale;
          al->held.for_each_in(iv, [&](Interval piece, std::uint64_t held_v) {
            if (held_v < v) stale.push_back(piece);
          });
          al->held.for_each_gap(iv, [&](Interval gap) { stale.push_back(gap); });
          for (Interval want : stale) {
            // Drop sub-pieces an earlier ghost into this allocation already
            // delivers at a sufficient version.
            std::vector<Interval> need;
            ov.for_each_in(want, [&](Interval p, std::uint64_t sv) {
              if (sv < v) need.push_back(p);
            });
            ov.for_each_gap(want, [&](Interval p) { need.push_back(p); });
            for (Interval piece : need) {
              std::vector<std::pair<Interval, int>> sources;
              ss.owner.for_each_in(piece, [&](Interval p, int m) {
                sources.emplace_back(p, m);
              });
              ss.owner.for_each_gap(piece, [&](Interval p) {
                sources.emplace_back(p, machine_.home_memory());
              });
              for (auto& [p, src_mem] : sources) {
                fresh.ghosts.push_back(comm::Ghost{
                    p, ord, src_mem, mem, c,
                    static_cast<double>(p.size()) * esize});
              }
              ov.assign(piece, v);
            }
          }
        }
      }
    }
    fresh.coalesce(colors, mem_node);
    fresh.signature = sig;
    // Bind only ghost-bearing stores into the invalidation index: aligned
    // reads of rotating solver temporaries must not evict the plan when the
    // temporary dies (see ExchangePlan::stores).
    for (const auto& g : fresh.ghosts) {
      const int i = keyed[static_cast<std::size_t>(g.arg)];
      fresh.stores.push_back(R.args[static_cast<std::size_t>(i)].view.id);
    }
    std::sort(fresh.stores.begin(), fresh.stores.end());
    fresh.stores.erase(std::unique(fresh.stores.begin(), fresh.stores.end()),
                       fresh.stores.end());
    if (debug)
      std::fprintf(stderr, "[comm]   insert ghosts=%zu stores=%zu\n",
                   fresh.ghosts.size(), fresh.stores.size());
    plan = comm_cache_.insert(key, std::move(fresh));
  }

  // ---- Apply: one engine copy per coalesced transfer ----------------------
  double bytes_intra = 0, bytes_nvlink = 0, bytes_ib = 0;
  // Issue earliest-ready-first: links are modeled as serialized clocks, so a
  // transfer stuck behind a late producer would convoy every transfer issued
  // after it on the same link. Equal-readiness ties break by ring offset
  // ((dst_node - src_node) mod N, the classic staggered all-to-all): if every
  // source served destinations in the same ascending order, the last
  // destination would be served last by everyone and its whole iteration
  // chain — including its own outgoing link — would trail the fleet. All key
  // components are deterministic, keeping the engine-op sequence reproducible.
  const int nnodes = machine_.nodes();
  struct IssueKey {
    double ready;
    int ring;
    std::size_t ti;
  };
  std::vector<IssueKey> order;
  order.reserve(plan->transfers.size());
  for (std::size_t ti = 0; ti < plan->transfers.size(); ++ti) {
    const auto& t = plan->transfers[ti];
    double src_ready = 0;
    for (std::uint32_t gi : t.ghosts) {
      const auto& g = plan->ghosts[static_cast<std::size_t>(gi)];
      auto& ss = sync(
          R.args[static_cast<std::size_t>(keyed[static_cast<std::size_t>(g.arg)])]
              .view.id);
      ss.last_write.for_each_in(g.piece, [&](Interval, double w) {
        src_ready = std::max(src_ready, w);
      });
    }
    const int sn = mem_node[static_cast<std::size_t>(t.src_mem)];
    const int dn = mem_node[static_cast<std::size_t>(t.dst_mem)];
    order.push_back({src_ready, (dn - sn + nnodes) % nnodes, ti});
  }
  std::stable_sort(order.begin(), order.end(), [](const IssueKey& a, const IssueKey& b) {
    if (a.ready != b.ready) return a.ready < b.ready;
    if (a.ring != b.ring) return a.ring < b.ring;
    return a.ti < b.ti;
  });
  for (const auto& [src_ready, ring, ti] : order) {
    const auto& t = plan->transfers[ti];
    const double done = engine_->copy(t.src_mem, t.dst_mem, t.bytes, src_ready);
    for (std::uint32_t gi : t.ghosts) {
      const auto& g = plan->ghosts[static_cast<std::size_t>(gi)];
      const StoreId sid =
          R.args[static_cast<std::size_t>(keyed[static_cast<std::size_t>(g.arg)])]
              .view.id;
      auto& ss = sync(sid);
      Alloc* al = comm_find_alloc(sid, g.piece, g.dst_mem);
      if (al == nullptr) continue;
      ss.version.for_each_in(g.piece, [&](Interval iv, std::uint64_t v) {
        al->held.assign(iv, v);
      });
      al->ready.assign(g.piece, done);
    }
    if (t.src_mem == t.dst_mem) {
      bytes_intra += t.bytes;
    } else if (mem_node[static_cast<std::size_t>(t.src_mem)] ==
               mem_node[static_cast<std::size_t>(t.dst_mem)]) {
      bytes_nvlink += t.bytes;
    } else {
      bytes_ib += t.bytes;
    }
  }

  // ---- Post-exchange data readiness per point ------------------------------
  // Walk the required (written) pieces' arrival times, exactly like the
  // per-piece path's final gate: this also picks up ghosts delivered to a
  // shared-memory neighbor's instance by an earlier transfer.
  std::vector<double> data_gate = local_ready;
  for (int c = 0; c < colors; ++c) {
    if (all_empty[static_cast<std::size_t>(c)] != 0) continue;
    for (int i : keyed) {
      const auto& a = R.args[static_cast<std::size_t>(i)];
      Interval elem = elem_of(c, i);
      if (elem.empty()) continue;
      auto& ss = sync(a.view.id);
      const Alloc* al =
          comm_find_alloc(a.view.id, elem, point_mem[static_cast<std::size_t>(c)]);
      if (al == nullptr) continue;
      auto gate = [&](Interval range) {
        ss.version.for_each_in(range, [&](Interval iv, std::uint64_t v) {
          if (v == 0) return;
          al->ready.for_each_in(iv, [&](Interval, double t) {
            data_gate[static_cast<std::size_t>(c)] =
                std::max(data_gate[static_cast<std::size_t>(c)], t);
          });
        });
      };
      const IntervalSet* pr = precise_of(c, i);
      if (pr != nullptr) {
        pr->for_each(elem, gate);
      } else {
        gate(elem);
      }
    }
  }

  // ---- Charge the kernels --------------------------------------------------
  for (int c = 0; c < colors; ++c) {
    if (all_empty[static_cast<std::size_t>(c)] != 0) {
      completion[static_cast<std::size_t>(c)] = dep_time[static_cast<std::size_t>(c)];
      continue;
    }
    const int proc_id = c % nprocs;
    const auto& proc = machine_.proc(proc_id);
    const auto& po = R.out[static_cast<std::size_t>(c)];
    if (po.contributed) partials.push_back(po.partial);
    sim::Cost cost = po.cost;
    if (opts_.model_reshape && proc.kind == sim::ProcKind::GPU) {
      cost.bytes += po.reshape * pp.legate_csr_reshape_fraction;
    }
    cost.bytes *= engine_->cost_scale();
    cost.flops *= engine_->cost_scale();
    double duration = engine_->cost_model().kernel_seconds(
        proc.kind, cost, proc.kind == sim::ProcKind::CPU ? cpu_fraction_ : 1.0);
    if (proc.kind == sim::ProcKind::GPU) duration += pp.gpu_kernel_launch;
    engine_->note_task();
    ++task_seq_;  // keep the point sequence aligned with the per-piece path
    const double lready = local_ready[static_cast<std::size_t>(c)];
    const double gready = data_gate[static_cast<std::size_t>(c)];
    const double gbytes =
        plan->ghost_bytes_by_color[static_cast<std::size_t>(c)];
    double done;
    if (comm_mode_ == comm::Mode::Overlap && gbytes > 0 && po.cost.bytes > 0 &&
        duration > 0 && gready > lready) {
      // Interior/boundary split: the fraction of the leaf's traffic that is
      // ghost data bounds the boundary phase; the interior (capped at half
      // the kernel so a ghost-dominated task still overlaps something)
      // starts on local data alone, hiding the exchange behind it.
      const double frac = std::min(0.5, gbytes / po.cost.bytes);
      const double t_int = engine_->busy_proc(
          proc_id, lready, duration * (1.0 - frac), R.prof_label);
      done = engine_->busy_proc(proc_id, std::max(t_int, gready),
                                duration * frac, R.prof_label);
      met_.comm_overlap_splits.inc();
    } else {
      done = engine_->busy_proc(proc_id, gready, duration, R.prof_label);
    }
    if (R.wall_prof && po.wall0 >= 0) {
      engine_->recorder().set_last_wall(po.wall0, po.wall1);
    }
    completion[static_cast<std::size_t>(c)] = done;
    max_completion = std::max(max_completion, done);
  }

  // ---- Accounting ----------------------------------------------------------
  const double scale = engine_->cost_scale();
  met_.comm_messages.inc(static_cast<double>(plan->transfers.size()));
  if (plan->ghosts.size() > plan->transfers.size()) {
    met_.comm_messages_saved.inc(
        static_cast<double>(plan->ghosts.size() - plan->transfers.size()));
  }
  if (plan->total_bytes > 0) met_.comm_bytes.inc(plan->total_bytes * scale);
  if (bytes_intra > 0) met_.comm_bytes_intra.inc(bytes_intra * scale);
  if (bytes_nvlink > 0) met_.comm_bytes_nvlink.inc(bytes_nvlink * scale);
  if (bytes_ib > 0) met_.comm_bytes_ib.inc(bytes_ib * scale);
  engine_->note_comm();
  auto& fr = engine_->flight();
  if (fr.enabled()) {
    fr.record(diag::EventKind::Comm, R.name,
              static_cast<std::int64_t>(plan->transfers.size()), hit ? 1 : 0,
              plan->total_bytes * scale);
  }
}

}  // namespace legate::rt

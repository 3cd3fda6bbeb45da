// Communication-planner half of the runtime (lsr_comm integration): sim_apply's
// Pass B. It creates every instance of a launch, materializes the launch's
// staleness-copy set into an ExchangePlan and charges it on the link model —
// under plan/overlap cached and coalesced per link, under off derived every
// launch and issued one message per ghost — then charges the kernels through
// Runtime::charge_point (runtime.cpp). Canonical results are identical in
// every mode; only the simulated copy schedule differs. See DESIGN.md §15.

#include <algorithm>
#include <map>
#include <tuple>

#include "rt/runtime.h"
#include "rt/runtime_detail.h"
#include "rt/runtime_state.h"

namespace legate::rt {

using detail::LaunchRecord;

Runtime::Alloc& Runtime::staged_alloc(StoreId id, Interval elem, int mem) const {
  Alloc* a = find_alloc(id, elem, mem);
  LSR_CHECK_MSG(a != nullptr, "comm planner: piece has no staged allocation");
  return *a;
}

void Runtime::comm_invalidate(StoreId id) {
  long n = comm_cache_.invalidate_store(id);
  if (n > 0) met_.comm_plan_invalidations.inc(static_cast<double>(n));
}

detail::Mapped Runtime::comm_pass_b(const LaunchRecord& R,
                                    const std::vector<double>& dep_time,
                                    double t_launch) {
  detail::Mapped m(machine_, dep_time, t_launch);
  std::vector<int> keyed;
  // Keyed arguments can carry ghosts: neither Reduce (partials live in
  // private buffers) nor WriteDiscard (no staleness copies — and solvers
  // rotate fresh output stores every iteration, which must not perturb the
  // plan key).
  for (int i = 0; i < static_cast<int>(R.args.size()); ++i) {
    const Priv p = R.args[static_cast<std::size_t>(i)].priv;
    if (p != Priv::Reduce && p != Priv::WriteDiscard) keyed.push_back(i);
  }

  const std::vector<double> local_ready = comm_instances(R, m.point_mem, dep_time);
  // Off, the uncoalesced ablation: no key, no signature, no cache — a fresh
  // plan every launch.
  comm::ExchangePlan uncached;
  const comm::ExchangePlan* plan = &uncached;
  bool hit = false;
  if (comm_enabled()) {
    const std::uint64_t key = comm_key(R, keyed);
    const std::uint64_t sig = comm_signature(R, keyed, m.point_mem);
    plan = comm_cache_.lookup(key, sig);
    hit = plan != nullptr;
    (hit ? met_.comm_plan_hits : met_.comm_plan_misses).inc();
    if (!hit) {
      comm::ExchangePlan fresh = comm_derive(R, keyed, m.point_mem);
      fresh.signature = sig;
      // Bind only ghost-bearing stores into the invalidation index: aligned
      // reads of rotating solver temporaries must not evict the plan when
      // the temporary dies (see ExchangePlan::stores).
      for (const auto& g : fresh.ghosts) {
        fresh.stores.push_back(R.args[static_cast<std::size_t>(keyed[static_cast<std::size_t>(g.arg)])].view.id);
      }
      std::sort(fresh.stores.begin(), fresh.stores.end());
      fresh.stores.erase(std::unique(fresh.stores.begin(), fresh.stores.end()),
                         fresh.stores.end());
      plan = comm_cache_.insert(key, std::move(fresh));
    }
  } else {
    uncached = comm_derive(R, keyed, m.point_mem);
  }
  comm_apply(R, keyed, *plan);
  const std::vector<double> gate = comm_gate(R, keyed, m.point_mem, local_ready);

  for (int c = 0; c < R.colors; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    if (R.all_empty[cc] != 0) continue;
    charge_color(R, c, m, gate[cc], local_ready[cc], plan->ghost_bytes_by_color[cc]);
  }
  engine_->emit(sim::Ev::Comm, R.name,
                static_cast<std::int64_t>(plan->transfers.size()), hit ? 1 : 0,
                plan->total_bytes * engine_->cost_scale());
  return m;
}

// Instances (the mapper's "size and coalesce" step, before any copy into
// them): every point's allocations, with their side effects — LRU touches,
// pool reuse, coalescing resize copies, OOM spilling. Returns each point's
// pre-exchange (local) readiness.
std::vector<double> Runtime::comm_instances(const LaunchRecord& R,
                                            const std::vector<int>& point_mem,
                                            const std::vector<double>& dep_time) {
  std::vector<double> local_ready = dep_time;
  for (int c = 0; c < R.colors; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    if (R.all_empty[cc] != 0) continue;
    for (int i = 0; i < static_cast<int>(R.args.size()); ++i) {
      const auto& a = R.args[static_cast<std::size_t>(i)];
      if (a.priv == Priv::Reduce) continue;
      local_ready[cc] = std::max(
          local_ready[cc], ensure_in_memory(a.view, R.elem(c, i), point_mem[cc]));
    }
  }
  return local_ready;
}

// Structural plan key: partition *content* (sub-intervals + precise runs),
// never uids — equal content can come from different Partition objects
// (halo partitions are rebuilt every launch, pins are the caller's own).
// Store ids are excluded too: solvers rotate temporaries each iteration
// while the exchange structure stays fixed; the signature binds the plan to
// the actual store states. Precise runs enter as their partition's digest,
// computed once per Partition: with the element interval also mixed in,
// equal keys still mean equal runs within every point's piece.
std::uint64_t Runtime::comm_key(const LaunchRecord& R, const std::vector<int>& keyed) const {
  comm::Hash kh;
  for (char ch : R.name) kh.mix(static_cast<std::uint64_t>(ch));
  kh.mix(static_cast<std::uint64_t>(R.colors));
  kh.mix(static_cast<std::uint64_t>(keyed.size()));
  for (int i : keyed) {
    const auto& a = R.args[static_cast<std::size_t>(i)];
    const Partition& part = *R.eager_parts[static_cast<std::size_t>(i)];
    kh.mix(static_cast<std::uint64_t>(a.ckind));
    kh.mix_i(a.view.stride);
    kh.mix_i(a.view.basis);
    for (int c = 0; c < R.colors; ++c) {
      Interval elem = R.elem(c, i);
      kh.mix_i(elem.lo);
      kh.mix_i(elem.hi);
      if (R.precise(c, i) != nullptr) kh.mix(part.precise_digest(c));
    }
  }
  return kh.digest();
}

// Valid-set signature: everything the derivation reads, normalized so a hit
// guarantees an identical staleness set. Per keyed argument: the version
// runs (as deltas from the store's version counter — absolute versions
// advance every iteration while the *pattern* repeats), the owner runs, and
// per point the covering allocation's extent plus its held runs (same delta
// normalization) over the required pieces. Gap markers distinguish
// never-written/never-held from version 0.
std::uint64_t Runtime::comm_signature(const LaunchRecord& R, const std::vector<int>& keyed,
                                      const std::vector<int>& point_mem) {
  comm::Hash sh;
  for (int i : keyed) {
    const auto& a = R.args[static_cast<std::size_t>(i)];
    auto& ss = sync(a.view.id);
    // The runs and the gaps of `r`, each walk resuming where its previous
    // one (over an earlier `r`) stopped.
    auto mix_runs = [&](const auto& runs, auto version, Interval r, auto run_hint,
                        auto gap_hint) {
      runs.for_each_run(
          r, version,
          [&](Interval iv, std::uint64_t v) {
            sh.mix_i(iv.lo);
            sh.mix_i(iv.hi);
            sh.mix(ss.version_counter - v);
          },
          run_hint);
      runs.for_each_gap(
          r,
          [&](Interval iv) {
            sh.mix_i(iv.lo);
            sh.mix_i(iv.hi);
            sh.mix(~0ULL);
          },
          gap_hint);
    };
    const Interval whole = a.view.extent();
    mix_runs(ss.written(), &Written::version, whole, nullptr, nullptr);
    ss.written().for_each_run(whole, &Written::owner, [&](Interval iv, int m) {
      sh.mix_i(iv.lo);
      sh.mix_i(iv.hi);
      sh.mix(static_cast<std::uint64_t>(m));
    });
    for (int c = 0; c < R.colors; ++c) {
      if (R.all_empty[static_cast<std::size_t>(c)] != 0) continue;
      Interval elem = R.elem(c, i);
      if (elem.empty()) continue;
      const Alloc& al =
          staged_alloc(a.view.id, elem, point_mem[static_cast<std::size_t>(c)]);
      sh.mix_i(al.extent.lo);
      sh.mix_i(al.extent.hi);
      IntervalMap<Held>::Hint run_hint, gap_hint;
      for_each_touched(elem, R.precise(c, i), [&](Interval r) {
        mix_runs(al.held(), &Held::version, r, &run_hint, &gap_hint);
      });
    }
  }
  return sh.digest();
}

// Derivation (cache miss, or every launch under off): the launch's staleness
// set as ghosts in (color, arg, piece) order, coalesced per link unless off.
comm::ExchangePlan Runtime::comm_derive(const LaunchRecord& R, const std::vector<int>& keyed,
                                        const std::vector<int>& point_mem) {
  comm::ExchangePlan fresh;
  // Each (point, argument) pair's instance, and how many pairs read it. CPU
  // sockets on one node share their node's instances, and a later reader
  // must not re-schedule a ghost an earlier one pulls, so a shared instance
  // keeps the set of pieces already scheduled into it (`written` is fixed
  // during one derivation, so a scheduled piece is always current).
  // Instances are named by (mem, store, whole extent): without coalescing,
  // two overlapping exact-extent allocations can share a lower bound.
  struct Instance {
    int readers{0};
    IntervalSet scheduled;
  };
  std::map<std::tuple<int, StoreId, coord_t, coord_t>, Instance> instances;
  const std::size_t nk = keyed.size();
  std::vector<std::pair<const Alloc*, Instance*>> read(static_cast<std::size_t>(R.colors) * nk);
  for (int c = 0; c < R.colors; ++c) {
    if (R.all_empty[static_cast<std::size_t>(c)] != 0) continue;
    const int mem = point_mem[static_cast<std::size_t>(c)];
    for (std::size_t ord = 0; ord < nk; ++ord) {
      const auto& a = R.args[static_cast<std::size_t>(keyed[ord])];
      const Interval elem = R.elem(c, keyed[ord]);
      if (elem.empty()) continue;
      const Alloc& al = staged_alloc(a.view.id, elem, mem);
      Instance& inst = instances[{mem, a.view.id, al.extent.lo, al.extent.hi}];
      ++inst.readers;
      read[static_cast<std::size_t>(c) * nk + ord] = {&al, &inst};
    }
  }
  for (int c = 0; c < R.colors; ++c) {
    const int mem = point_mem[static_cast<std::size_t>(c)];
    for (std::size_t ord = 0; ord < nk; ++ord) {
      const auto [al, inst] = read[static_cast<std::size_t>(c) * nk + ord];
      if (al == nullptr) continue;
      const int i = keyed[ord];
      const auto& a = R.args[static_cast<std::size_t>(i)];
      auto& ss = sync(a.view.id);
      const double esize = static_cast<double>(dtype_size(a.view.dtype));
      auto pull = [&](Interval piece) {
        ss.written().for_each_run(piece, &Written::owner, [&](Interval p, int src_mem) {
          fresh.ghosts.push_back(comm::Ghost{p, static_cast<int>(ord), src_mem, mem, c,
                                             static_cast<double>(p.size()) * esize});
        });
      };
      // The staleness walk, minus sub-pieces an earlier ghost into a shared
      // instance already delivers.
      auto plan_stale = [&](Interval, std::uint64_t, const std::vector<Interval>& stale) {
        for (Interval want : stale) {
          if (inst->readers == 1) {
            pull(want);
            continue;
          }
          std::vector<Interval> need;
          inst->scheduled.for_each_gap(want, [&](Interval p) { need.push_back(p); });
          for (Interval piece : need) {
            pull(piece);
            inst->scheduled.add(piece);
          }
        }
      };
      for_each_stale(ss.written(), al->held(), R.elem(c, i), R.precise(c, i), plan_stale);
    }
  }
  std::vector<int> mem_node(machine_.memories().size());
  for (const auto& m : machine_.memories()) {
    mem_node[static_cast<std::size_t>(m.id)] = m.node;
  }
  fresh.coalesce(R.colors, mem_node, comm_enabled());
  return fresh;
}

// Apply: one engine copy per transfer, then the transfer metrics.
void Runtime::comm_apply(const LaunchRecord& R, const std::vector<int>& keyed,
                         const comm::ExchangePlan& plan) {
  auto store_of = [&](const comm::Ghost& g) {
    return R.args[static_cast<std::size_t>(keyed[static_cast<std::size_t>(g.arg)])]
        .view.id;
  };
  // Each keyed argument's sync state, resolved at its first ghost.
  std::vector<SyncState*> states(keyed.size(), nullptr);
  auto state_of = [&](const comm::Ghost& g) -> SyncState& {
    SyncState*& s = states[static_cast<std::size_t>(g.arg)];
    if (s == nullptr) s = &sync(store_of(g));
    return *s;
  };
  // A ghost lands in its point's instance, found through the point's
  // required interval (a piece alone can lie in two overlapping exact-extent
  // allocations) once per (color, arg).
  std::vector<Alloc*> target(static_cast<std::size_t>(R.colors) * keyed.size(), nullptr);
  auto target_of = [&](const comm::Ghost& g) -> Alloc& {
    const auto ord = static_cast<std::size_t>(g.arg);
    Alloc*& a = target[static_cast<std::size_t>(g.color) * keyed.size() + ord];
    if (a == nullptr) a = &staged_alloc(store_of(g), R.elem(g.color, keyed[ord]), g.dst_mem);
    return *a;
  };
  std::vector<double> src_ready(plan.transfers.size(), 0.0);
  for (const auto& g : plan.ghosts) {
    src_ready[g.transfer] = latest(state_of(g).written(), g.piece, src_ready[g.transfer]);
  }
  double bytes_intra = 0, bytes_nvlink = 0, bytes_ib = 0;
  std::vector<double> done(plan.transfers.size());
  auto issue = [&](std::size_t ti) {
    const auto& t = plan.transfers[ti];
    done[ti] = engine_->copy(sim::Copy::Ghost, t.src_mem, t.dst_mem, t.bytes, src_ready[ti]);
    if (t.src_mem == t.dst_mem) {
      bytes_intra += t.bytes;
    } else if (machine_.memory(t.src_mem).node == machine_.memory(t.dst_mem).node) {
      bytes_nvlink += t.bytes;
    } else {
      bytes_ib += t.bytes;
    }
  };
  if (comm_enabled()) {
    // Coalesced transfers issue earliest-ready-first: links are modeled as
    // serialized clocks, so a transfer stuck behind a late producer would
    // convoy every transfer issued after it on the same link. Equal-readiness
    // ties break by ring offset ((dst_node - src_node) mod N, the classic
    // staggered all-to-all): if every source served destinations in the same
    // ascending order, the last destination would be served last by everyone
    // and its whole iteration chain — including its own outgoing link — would
    // trail the fleet. All key components are deterministic, keeping the
    // engine-op sequence reproducible.
    const int nnodes = machine_.nodes();
    struct IssueKey {
      double ready;
      int ring;
      std::size_t ti;
    };
    std::vector<IssueKey> order;
    order.reserve(plan.transfers.size());
    for (std::size_t ti = 0; ti < plan.transfers.size(); ++ti) {
      const int sn = machine_.memory(plan.transfers[ti].src_mem).node;
      const int dn = machine_.memory(plan.transfers[ti].dst_mem).node;
      order.push_back({src_ready[ti], (dn - sn + nnodes) % nnodes, ti});
    }
    std::sort(order.begin(), order.end(), [](const IssueKey& a, const IssueKey& b) {
      if (a.ready != b.ready) return a.ready < b.ready;
      if (a.ring != b.ring) return a.ring < b.ring;
      return a.ti < b.ti;
    });
    for (const IssueKey& k : order) issue(k.ti);
  } else {
    // Off keeps derivation order.
    for (std::size_t ti = 0; ti < plan.transfers.size(); ++ti) issue(ti);
  }
  // Each instance now holds its ghosts, valid once their transfer landed.
  // The derivation schedules a piece into an instance at most once, so the
  // ghosts of one instance are disjoint: each run of consecutive ghosts
  // into one instance is sorted and merged in one pass.
  std::vector<std::pair<Interval, Held>> runs;
  Alloc* into = nullptr;
  auto flush = [&] {
    if (into == nullptr) return;
    auto by_lo = [](const auto& a, const auto& b) { return a.first.lo < b.first.lo; };
    if (!std::is_sorted(runs.begin(), runs.end(), by_lo)) {
      std::sort(runs.begin(), runs.end(), by_lo);
    }
    into->hold_sorted(runs);
    runs.clear();
  };
  for (const auto& g : plan.ghosts) {
    Alloc& al = target_of(g);
    if (&al != into) {
      flush();
      into = &al;
    }
    const double t = done[g.transfer];
    state_of(g).written().for_each_run(g.piece, &Written::version,
                                       [&](Interval iv, std::uint64_t v) {
                                         runs.emplace_back(iv, Held{v, t});
                                       });
  }
  flush();
  const double scale = engine_->cost_scale();
  met_.comm_messages.inc(static_cast<double>(plan.transfers.size()));
  if (plan.ghosts.size() > plan.transfers.size()) {
    met_.comm_messages_saved.inc(
        static_cast<double>(plan.ghosts.size() - plan.transfers.size()));
  }
  if (plan.total_bytes > 0) met_.comm_bytes.inc(plan.total_bytes * scale);
  if (bytes_intra > 0) met_.comm_bytes_intra.inc(bytes_intra * scale);
  if (bytes_nvlink > 0) met_.comm_bytes_nvlink.inc(bytes_nvlink * scale);
  if (bytes_ib > 0) met_.comm_bytes_ib.inc(bytes_ib * scale);
}

// Gate: post-exchange data readiness per point. Walks the required pieces'
// arrival times (held data is always written data): this also picks up
// ghosts delivered to a shared-memory neighbor's instance by an earlier
// transfer.
std::vector<double> Runtime::comm_gate(const LaunchRecord& R, const std::vector<int>& keyed,
                                       const std::vector<int>& point_mem,
                                       const std::vector<double>& local_ready) {
  std::vector<double> gate = local_ready;
  for (int c = 0; c < R.colors; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    if (R.all_empty[cc] != 0) continue;
    for (int i : keyed) {
      const auto& a = R.args[static_cast<std::size_t>(i)];
      Interval elem = R.elem(c, i);
      if (elem.empty()) continue;
      const Alloc& al = staged_alloc(a.view.id, elem, point_mem[cc]);
      IntervalMap<Held>::Hint hint;
      for_each_touched(elem, R.precise(c, i),
                       [&](Interval r) { gate[cc] = latest(al.held(), r, gate[cc], &hint); });
    }
  }
  return gate;
}

}  // namespace legate::rt

#include "rt/runtime.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "fuse/fuse.h"
#include "rt/checkpoint.h"
#include "rt/runtime_detail.h"
#include "rt/runtime_state.h"

namespace legate::rt {

using detail::LaunchRecord;

// ---------------------------------------------------------------------------
// StoreImpl
// ---------------------------------------------------------------------------

namespace detail {

StoreImpl::StoreImpl(Runtime* rt_, StoreId id_, DType dtype_,
                     std::vector<coord_t> shape_, HostBufferPool& buffers, bool zero)
    : rt(rt_), id(id_), dtype(dtype_), shape(std::move(shape_)) {
  LSR_CHECK(shape.size() == 1 || shape.size() == 2);
  data = buffers.acquire(static_cast<std::size_t>(volume()) * dtype_size(dtype), zero);
}

StoreImpl::~StoreImpl() {
  if (rt != nullptr) rt->on_store_destroyed(this);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Internal runtime state: SyncState / Alloc / MemState definitions live in
// rt/runtime_state.h, shared with the comm-planner translation unit.
// ---------------------------------------------------------------------------
// TaskContext
// ---------------------------------------------------------------------------

Interval TaskContext::interval(int arg) const {
  return rec_->ivs[static_cast<std::size_t>(color_)][static_cast<std::size_t>(arg)];
}

Interval TaskContext::elem_interval(int arg) const { return rec_->elem(color_, arg); }

std::span<std::byte> TaskContext::arg_bytes(int arg) const {
  if (reduce_bufs_ != nullptr && !(*reduce_bufs_)[arg].empty()) {
    return {(*reduce_bufs_)[arg].data(), (*reduce_bufs_)[arg].size()};
  }
  // Canonical bytes through the record's view — deliberately NOT Store::raw()
  // (that is a fence point; leaves may run mid-pipeline on pool threads).
  return rec_->args[static_cast<std::size_t>(arg)].view.raw();
}

void TaskContext::contribute(double v) {
  partial_ = v;
  contributed_ = true;
}

CostFn per_element(int arg, double bytes, double flops) {
  return [=](const TaskContext& ctx) {
    const double n = static_cast<double>(ctx.elem_interval(arg).size());
    return TaskCost{n * bytes, n * flops};
  };
}

// ---------------------------------------------------------------------------
// TaskLauncher
// ---------------------------------------------------------------------------

TaskLauncher::TaskLauncher(Runtime& rt, std::string name)
    : rt_(rt), name_(std::move(name)) {}

int TaskLauncher::add_arg(const Store& s, Priv p) {
  int idx = static_cast<int>(args_.size());
  Arg a{};
  a.store = s;
  a.priv = p;
  a.align_root = idx;
  args_.push_back(std::move(a));
  return idx;
}

int TaskLauncher::find_root(int a) {
  int r = a;
  while (args_[r].align_root != r) r = args_[r].align_root;
  while (args_[a].align_root != r) {
    int next = args_[a].align_root;
    args_[a].align_root = r;
    a = next;
  }
  return r;
}

void TaskLauncher::align(int a, int b) {
  LSR_CHECK_MSG(args_[a].store.basis() == args_[b].store.basis(),
                "aligned arguments must share a basis extent");
  int ra = find_root(a), rb = find_root(b);
  if (ra != rb) args_[rb].align_root = ra;
}

void TaskLauncher::image_rects(int src, int dst) {
  LSR_CHECK(args_[src].store.dtype() == DType::Rect1);
  args_[dst].ckind = ConstraintKind::ImageRects;
  args_[dst].image_src = src;
}

void TaskLauncher::image_points(int src, int dst) {
  LSR_CHECK(args_[src].store.dtype() == DType::I64);
  args_[dst].ckind = ConstraintKind::ImagePoints;
  args_[dst].image_src = src;
}

void TaskLauncher::halo(int src, int dst, coord_t lo_off, coord_t hi_off) {
  args_[dst].ckind = ConstraintKind::Halo;
  args_[dst].image_src = src;
  args_[dst].halo_lo = lo_off;
  args_[dst].halo_hi = hi_off;
}

void TaskLauncher::broadcast(int arg) { args_[arg].ckind = ConstraintKind::Broadcast; }

void TaskLauncher::set_partition(int arg, PartitionRef p) {
  LSR_CHECK(p != nullptr);
  LSR_CHECK_MSG(p->disjoint(), "explicit partitions must be disjoint");
  LSR_CHECK_MSG(args_[arg].ckind == ConstraintKind::None,
                "explicit partitions only apply to alignment-constrained args");
  args_[arg].part = std::move(p);
}

Future TaskLauncher::execute() { return rt_.execute(*this); }

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(const sim::Machine& machine, RuntimeOptions opts)
    : machine_(machine), engine_(std::make_unique<sim::Engine>(machine_)), opts_(opts) {
  const auto& pp = machine_.params();
  task_overhead_ = opts.task_overhead >= 0 ? opts.task_overhead : pp.legate_task_overhead;
  cpu_fraction_ =
      opts.cpu_core_fraction > 0 ? opts.cpu_core_fraction : pp.legate_cpu_core_fraction;
  mem_state_.reserve(machine_.memories().size());
  for (std::size_t i = 0; i < machine_.memories().size(); ++i) {
    mem_state_.push_back(std::make_unique<MemState>());
  }
  // Real execution backend (legate::exec). The thread count comes from
  // options, falling back to LSR_EXEC_THREADS.
  int threads = opts_.exec_threads;
  if (threads <= 0) {
    if (const char* e = std::getenv("LSR_EXEC_THREADS")) threads = std::atoi(e);
    if (threads <= 0) threads = 1;
  }
  exec_threads_ = threads;
  // Fault injection's stalls and flips, and checksummed stores'
  // verify-on-read and write-back checksums, must see each launch's real
  // bytes in order around its leaves, so they keep the leaves inline.
  pipeline_ = exec_threads_ > 1 && opts_.exec_pipeline != 0 && !opts_.faults.enabled &&
              opts_.integrity == Integrity::Off;
  if (exec_threads_ > 1) {
    pool_ = std::make_unique<exec::Pool>(exec_threads_, &engine_->metrics());
  }
  // Partitioning strategy: option, else LSR_PARTITION env, else rows.
  partition_strategy_ = opts_.partition;
  if (partition_strategy_ == PartitionStrategy::Unset) {
    partition_strategy_ = parse_partition_strategy(std::getenv("LSR_PARTITION"));
  }
  if (partition_strategy_ == PartitionStrategy::Unset) {
    partition_strategy_ = PartitionStrategy::Rows;
  }
  // Fusion mode: option, else LSR_FUSE env, else off. Fault injection
  // disables the pass — its retry/poison bookkeeping must observe each
  // launch individually, exactly like pipelining.
  fusion_mode_ = opts_.fusion;
  if (fusion_mode_ == Fusion::Unset) {
    fusion_mode_ = parse_fusion_mode(std::getenv("LSR_FUSE"));
  }
  if (fusion_mode_ == Fusion::Unset) fusion_mode_ = Fusion::Off;
  fusion_on_ = fusion_mode_ != Fusion::Off && !opts_.faults.enabled;
  if (fusion_on_) fuse_tracker_ = std::make_unique<fuse::WindowTracker>();
  // Comm-planner mode: option, else LSR_COMM env, else off. Every mode runs
  // the planner's Pass B; off is its uncached, uncoalesced ablation.
  comm_mode_ = opts_.comm;
  if (comm_mode_ == comm::Mode::Unset) {
    comm_mode_ = comm::parse_comm_mode(std::getenv("LSR_COMM"));
  }
  if (comm_mode_ == comm::Mode::Unset) comm_mode_ = comm::Mode::Off;
  // Diagnostics mode: option, else LSR_DIAG env, else off. The engine already
  // configured itself from the environment at construction; reconfigure with
  // the resolved option set and wire the watchdog's executor-pool probe.
  diag::Mode dmode = opts_.diag;
  if (dmode == diag::Mode::Unset) dmode = diag::parse_mode(std::getenv("LSR_DIAG"));
  if (dmode == diag::Mode::Unset) dmode = diag::Mode::Off;
  engine_->flight().configure(dmode, opts_.diag_opts);
  engine_->flight().note_partition_nnz(partition_strategy_ ==
                                       PartitionStrategy::Nnz);
  if (pool_ != nullptr) {
    engine_->flight().set_pool_status([p = pool_.get()] {
      exec::Pool::Status s = p->status();
      return diag::PoolStatus{s.queued, s.running, s.completed, true};
    });
  }

  register_metrics();
  auto& mreg = engine_->metrics();
  host_buffers_ = std::make_shared<detail::HostBufferPool>(
      mreg.counter("lsr_rt_host_buffers_fresh_total",
                   "canonical host buffers newly allocated",
                   metrics::Stability::Volatile),
      mreg.counter("lsr_rt_host_buffers_reused_total",
                   "canonical host buffers recycled from the pool",
                   metrics::Stability::Volatile),
      mreg.gauge("lsr_rt_host_buffer_pool_bytes",
                 "idle canonical host-buffer bytes held for reuse",
                 metrics::Stability::Volatile));
  ledger_.set_hashed_counter(mreg.counter(
      "lsr_integrity_bytes_hashed_total",
      "bytes run through CRC32C by checksum maintenance and verification"));

  if (opts_.faults.enabled) {
    injector_ = std::make_unique<sim::FaultInjector>(opts_.faults);
    // Phantom reservation shrinking every framebuffer, so the spill path can
    // be exercised without paper-scale problem sizes.
    if (opts_.faults.oom_pressure_bytes > 0) {
      for (const auto& m : machine_.memories()) {
        if (m.kind == sim::MemKind::Frame) {
          engine_->alloc_bytes(m.id, opts_.faults.oom_pressure_bytes);
        }
      }
    }
  }
}

// Runtime-layer metric handles, in registration order (the order
// snapshots list them in).
void Runtime::register_metrics() {
  auto& mreg = engine_->metrics();
  met_.launches = mreg.counter("lsr_rt_launches_total", "task launches applied");
  met_.part_reuse_hits = mreg.counter(
      "lsr_rt_partition_reuse_hits_total",
      "alignment groups satisfied by an existing key partition");
  met_.part_reuse_misses =
      mreg.counter("lsr_rt_partition_reuse_misses_total",
                   "alignment groups needing a fresh equal partition");
  met_.image_hits = mreg.counter("lsr_rt_image_cache_hits_total",
                                 "dependent partitions served from cache");
  met_.image_misses = mreg.counter("lsr_rt_image_cache_misses_total",
                                   "dependent partitions computed");
  met_.alloc_existing = mreg.counter("lsr_rt_alloc_existing_total",
                                     "requirements served by a covering allocation");
  met_.alloc_fresh =
      mreg.counter("lsr_rt_alloc_fresh_total", "exact fresh allocations");
  met_.alloc_pool_reuse = mreg.counter("lsr_rt_alloc_pool_reuse_total",
                                       "allocations recycled from the free pool");
  met_.alloc_coalesced = mreg.counter(
      "lsr_rt_alloc_coalesced_total",
      "allocations grown by merging overlapping neighbors (Section 4.2)");
  met_.partitions_created =
      mreg.counter("lsr_rt_partitions_created_total", "partitions materialized");
  met_.checkpoint_bytes = mreg.counter("lsr_rt_checkpoint_bytes_total",
                                       "bytes snapshotted to the modeled PFS");
  met_.restore_bytes = mreg.counter("lsr_rt_restore_bytes_total",
                                    "bytes restored from the modeled PFS");
  met_.fences = mreg.counter("lsr_rt_fences_total",
                             "leaf-node waits (count depends on pipelining)",
                             metrics::Stability::Volatile);
  met_.flips_overwritten =
      mreg.counter("lsr_integrity_flips_overwritten_total",
                   "injected flips retired by a full overwrite before any read");
  met_.part_strategy_rows =
      mreg.counter("lsr_part_strategy_rows_total",
                   "launches whose primary domain used the equal row split");
  met_.part_strategy_nnz =
      mreg.counter("lsr_part_strategy_nnz_total",
                   "launches whose primary domain used an nnz-balanced split");
  met_.part_imbalance_pct = mreg.gauge(
      "lsr_part_imbalance_pct",
      "last launch's work imbalance: 100 * (max point work / mean - 1)");
  met_.part_max_work = mreg.gauge(
      "lsr_part_max_work", "last launch's max per-point work (bytes + flops)");
  met_.part_mean_work = mreg.gauge(
      "lsr_part_mean_work", "last launch's mean per-point work (bytes + flops)");
  met_.fuse_windows = mreg.counter("lsr_fuse_windows_scanned_total",
                                   "fusion windows analyzed at flush");
  met_.fuse_fused =
      mreg.counter("lsr_fuse_launches_fused_total",
                   "original launches folded into a fused launch");
  met_.fuse_eliminated = mreg.counter("lsr_fuse_launches_eliminated_total",
                                      "task launches eliminated by fusion");
  met_.fuse_bytes_saved = mreg.counter(
      "lsr_fuse_bytes_saved_total",
      "intermediate store round-trip bytes eliminated by fused chains");
  met_.comm_plan_hits = mreg.counter(
      "lsr_comm_plan_hits_total",
      "launches whose halo-exchange plan was served from the cache");
  met_.comm_plan_misses = mreg.counter("lsr_comm_plan_misses_total",
                                       "halo-exchange plans derived fresh");
  met_.comm_plan_invalidations =
      mreg.counter("lsr_comm_plan_invalidations_total",
                   "cached exchange plans dropped by store mutation/"
                   "destruction/shuffle/restore");
  met_.comm_messages = mreg.counter(
      "lsr_comm_messages_total", "exchange transfers issued (one per ghost under comm off)");
  met_.comm_messages_saved =
      mreg.counter("lsr_comm_messages_saved_total",
                   "ghost copies folded into another ghost's transfer");
  met_.comm_bytes = mreg.counter("lsr_comm_bytes_total",
                                 "ghost bytes moved by exchange plans");
  met_.comm_bytes_intra = mreg.counter(
      "lsr_comm_bytes_intra_total", "exchange-plan bytes within one memory");
  met_.comm_bytes_nvlink = mreg.counter(
      "lsr_comm_bytes_nvlink_total",
      "exchange-plan bytes over intra-node (nvlink-class) links");
  met_.comm_bytes_ib = mreg.counter(
      "lsr_comm_bytes_ib_total",
      "exchange-plan bytes over inter-node (ib-class) links");
  met_.comm_overlap_splits = mreg.counter(
      "lsr_comm_overlap_splits_total",
      "kernels split into interior/boundary phases to overlap the exchange");
}

Runtime::~Runtime() {
  // Finish any outstanding leaves before tearing the machine state down;
  // errors surfacing this late have nowhere to go.
  try {
    fence();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
  // Detach the watchdog's pool probe before the pool dies; set_pool_status
  // blocks until any in-flight watchdog sample finished with the old probe.
  engine_->flight().set_pool_status({});
  pool_.reset();
  for (auto* impl : live_stores_) impl->rt = nullptr;
  host_buffers_->close();
}

std::string Runtime::diag_dump(const std::string& reason) {
  fence();
  return engine_->flight().dump(reason);
}

Store Runtime::create_store(DType dtype, std::vector<coord_t> shape,
                            FirstWrite first_write) {
  // Integrity keeps the zero fill: the birth checksum below must cover
  // defined bytes.
  const bool zero =
      first_write == FirstWrite::Partial || opts_.integrity != Integrity::Off;
  auto impl = std::make_shared<detail::StoreImpl>(
      this, next_store_id_++, dtype, std::move(shape), *host_buffers_, zero);
  live_stores_.insert(impl.get());
  sync_.emplace(impl->id, std::make_unique<SyncState>());
  // Checksum the zero-initialized buffer so every live store is tracked
  // from birth (a flip landing before the first write is still caught).
  integrity_record(impl->id, impl->data->data(), impl->data->size(), 0,
                   impl->data->size());
  return Store(std::move(impl));
}

void Runtime::mark_attached(const Store& s) {
  fence();  // attachment observes and republishes the canonical bytes
  // Materialize the backing allocation in the home memory. The attached host
  // data predates the simulated run: it is valid there from t = 0.
  const int home = machine_.home_memory();
  double esize = static_cast<double>(dtype_size(s.dtype()));
  alloc_with_spill(home, static_cast<double>(s.volume()) * esize, s.id());
  write_external(s, 0.0,
                 mem_state_[home]->allocs[s.id()].emplace_back(s.extent(), ++use_tick_, esize));
}

void Runtime::write_external(const Store& s, double t, Alloc& home) {
  auto& ss = sync(s.id());
  ss.begin_write();
  ss.readers.clear();
  ss.write(s.extent(), machine_.home_memory(), t, home);
  poisoned_stores_.erase(s.id());
  // The canonical bytes were written externally: refresh the checksums.
  auto raw = s.view().raw();
  integrity_record(s.id(), raw.data(), raw.size(), 0, raw.size());
  comm_invalidate(s.id());
}

void Runtime::on_store_destroyed(detail::StoreImpl* impl) {
  live_stores_.erase(impl);
  StoreId id = impl->id;
  ledger_.forget(id);
  // Flips still outstanding on a dying store were never read again: masked
  // corruption on dead data, retired (not detected) so the flip ledger
  // balances — injected == detected + overwritten at scrub time.
  if (auto it = outstanding_flips_.find(id); it != outstanding_flips_.end()) {
    met_.flips_overwritten.inc(static_cast<double>(it->second.size()));
    outstanding_flips_.erase(it);
  }
  double esize = static_cast<double>(dtype_size(impl->dtype));
  if (!fuse_window_.empty()) {
    // An open fusion window may still read this store's view, and its members
    // are not enqueued yet: erasing the hazard entry now would sever the
    // writer edge their enqueue still has to see. Defer the retirement to the
    // window's stream position (flush).
    fuse_pending_release_.emplace_back(id, esize);
  } else {
    retire_store(id, esize);
  }
}

void Runtime::retire_store(StoreId id, double esize) {
  // The id is unreachable from future launches, and every launch that used
  // it was already accounted. (Pending nodes stay alive through the pool
  // queue and their records.)
  hazards_.erase(id);
  for (std::size_t mem = 0; mem < mem_state_.size(); ++mem) {
    auto it = mem_state_[mem]->allocs.find(id);
    if (it == mem_state_[mem]->allocs.end()) continue;
    for (auto& a : it->second) {
      engine_->free_bytes(static_cast<int>(mem),
                          static_cast<double>(a.extent.size()) * esize);
      // Remember the extent so a future same-shaped requirement can reuse it.
      auto& pool = mem_state_[mem]->pool;
      pool.push_back(a.extent);
      if (pool.size() > 64) pool.erase(pool.begin());
    }
    mem_state_[mem]->allocs.erase(it);
  }
  sync_.erase(id);
  // Store ids are never reused, so the dead source's image memo can never
  // hit again.
  auto dead = image_range(id);
  images_.erase(dead.begin(), dead.end());
  // Plans referencing the dead id must not survive: runs at the store's
  // position in the issued stream in every mode, so the hit/miss/
  // invalidation sequence is deterministic.
  comm_invalidate(id);
}

Runtime::SyncState& Runtime::sync(StoreId id) {
  auto it = sync_.find(id);
  LSR_CHECK_MSG(it != sync_.end(), "unknown store");
  return *it->second;
}

PartitionRef Runtime::key_partition(const Store& s) {
  fence();  // a fence point like the other accessors
  auto it = sync_.find(s.id());
  if (it == sync_.end() || it->second->key_uid == 0) return nullptr;
  return Partition::equal(s.basis(), it->second->key_colors);
}

namespace detail {

PartitionRef build_image_partition(const StoreView& src, const Partition& src_part,
                                   ConstraintKind kind) {
  std::vector<Interval> subs;
  subs.reserve(src_part.colors());
  if (kind == ConstraintKind::ImageRects) {
    auto data = src.span<Rect1>();
    for (int c = 0; c < src_part.colors(); ++c) {
      Interval s = src_part.sub(c).intersect(src.extent());
      coord_t lo = 0, hi = -1;
      bool any = false;
      for (coord_t i = s.lo; i < s.hi; ++i) {
        const Rect1& r = data[static_cast<std::size_t>(i)];
        if (r.empty()) continue;
        if (!any) {
          lo = r.lo;
          hi = r.hi;
          any = true;
        } else {
          lo = std::min(lo, r.lo);
          hi = std::max(hi, r.hi);
        }
      }
      subs.emplace_back(any ? Interval{lo, hi + 1} : Interval{});
    }
    return std::make_shared<const Partition>(std::move(subs), /*disjoint=*/false);
  }

  LSR_CHECK(kind == ConstraintKind::ImagePoints);
  // Point images carry both views Legion maintains: the bounding interval
  // (what a rectangular instance allocates) and the precise set of touched
  // coordinates (what the copy engine moves). Sparse access patterns with
  // wide bounding boxes — the quantum benchmark's flip terms — make the
  // distinction matter: traffic stays data-dependent while allocations
  // balloon (the paper's 64-GPU OOM).
  auto data = src.span<coord_t>();
  std::vector<IntervalSet> precise;
  precise.reserve(static_cast<std::size_t>(src_part.colors()));
  std::vector<coord_t> touched;
  bool any_sparse = false;
  for (int c = 0; c < src_part.colors(); ++c) {
    Interval s = src_part.sub(c).intersect(src.extent());
    coord_t lo = 0, hi = -1;
    bool any = false;
    touched.clear();
    touched.reserve(static_cast<std::size_t>(s.size()));
    for (coord_t i = s.lo; i < s.hi; ++i) {
      coord_t v = data[static_cast<std::size_t>(i)];
      touched.push_back(v);
      if (!any) {
        lo = hi = v;
        any = true;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    subs.emplace_back(any ? Interval{lo, hi + 1} : Interval{});
    // Coalesce the touched coordinates into maximal intervals.
    IntervalSet set;
    if (any) {
      std::sort(touched.begin(), touched.end());
      coord_t run_lo = touched.front(), run_hi = touched.front();
      for (coord_t v : touched) {
        if (v <= run_hi + 1) {
          run_hi = std::max(run_hi, v);
        } else {
          set.add({run_lo, run_hi + 1});
          run_lo = run_hi = v;
        }
      }
      set.add({run_lo, run_hi + 1});
      if (set.size_within({lo, hi + 1}) < (hi + 1 - lo) * 9 / 10) any_sparse = true;
    }
    precise.push_back(std::move(set));
  }
  if (any_sparse) {
    return std::make_shared<const Partition>(std::move(subs), std::move(precise),
                                             /*disjoint=*/false);
  }
  // Dense image: the bounding interval is (nearly) exact; skip the
  // precise sets to keep validity bookkeeping cheap.
  return std::make_shared<const Partition>(std::move(subs), /*disjoint=*/false);
}

}  // namespace detail

std::uint64_t Runtime::image_identity(StoreId src, std::uint64_t src_part,
                                      ConstraintKind kind) {
  // Keyed by the write count the solve saw: nothing is accounted between a
  // record's solve and its accounting.
  auto [it, miss] =
      images_[{src, kind, sync(src).version_counter}].accounted.try_emplace(src_part, 0);
  if (!miss) {
    met_.image_hits.inc();
    return it->second;
  }
  met_.image_misses.inc();
  // Dependent partitioning runs on the runtime's control path.
  engine_->control_advance(5e-6, "dependent-partitioning");
  met_.partitions_created.inc();
  it->second = Partition::next_uid();
  return it->second;
}

Runtime::Alloc* Runtime::find_alloc(StoreId id, Interval elem, int mem) const {
  auto& allocs = mem_state_[static_cast<std::size_t>(mem)]->allocs;
  auto it = allocs.find(id);
  if (it == allocs.end()) return nullptr;
  for (auto& a : it->second) {
    if (a.extent.contains(elem)) return &a;
  }
  return nullptr;
}

Runtime::Alloc& Runtime::find_or_create_alloc(const detail::StoreView& store,
                                              Interval elem, int mem) {
  if (Alloc* a = find_alloc(store.id, elem, mem)) {
    a->last_use = ++use_tick_;
    met_.alloc_existing.inc();
    return *a;
  }
  auto& allocs = mem_state_[mem]->allocs[store.id];
  double esize = static_cast<double>(dtype_size(store.dtype));

  if (!opts_.coalescing) {
    // Ablation mode: exact-extent allocation per new requirement.
    met_.alloc_fresh.inc();
    alloc_with_spill(mem, static_cast<double>(elem.size()) * esize, store.id);
    allocs.emplace_back(elem, ++use_tick_, esize);
    return allocs.back();
  }

  // Recycle a pooled extent (from an out-of-scope store) when nothing
  // overlaps the requirement; this is the Fig. 5 steady-state path.
  bool any_overlap = false;
  for (auto& a : allocs) any_overlap = any_overlap || a.extent.overlaps(elem);
  if (!any_overlap) {
    auto& pool = mem_state_[mem]->pool;
    for (auto it = pool.begin(); it != pool.end(); ++it) {
      if (it->contains(elem) && it->size() <= 2 * elem.size() + 64) {
        Interval ext = *it;
        pool.erase(it);
        met_.alloc_pool_reuse.inc();
        alloc_with_spill(mem, static_cast<double>(ext.size()) * esize, store.id);
        allocs.emplace_back(ext, ++use_tick_, esize);
        return allocs.back();
      }
    }
  }

  // Coalescing (Section 4.2): grow a new allocation to the bounding union of
  // the requirement and every existing overlapping allocation, migrating the
  // valid data of the merged allocations (the paper's "resize RA1 to RA5").
  Interval ext = elem;
  std::vector<std::size_t> merged;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < allocs.size(); ++i) {
      if (std::find(merged.begin(), merged.end(), i) != merged.end()) continue;
      if (allocs[i].extent.overlaps(ext)) {
        ext = ext.span_union(allocs[i].extent);
        merged.push_back(i);
        changed = true;
      }
    }
  }

  if (merged.empty()) {
    met_.alloc_fresh.inc();
  } else {
    met_.alloc_coalesced.inc();
  }
  Alloc merged_alloc{ext, ++use_tick_, esize};
  alloc_with_spill(mem, static_cast<double>(ext.size()) * esize, store.id);
  for (std::size_t i : merged) {
    Alloc& old = allocs[i];
    // Intra-memory copy of the valid contents into the resized allocation.
    coord_t valid_elems = old.held().covered_size(old.extent);
    if (valid_elems > 0) {
      double done = engine_->copy(sim::Copy::Resize, mem, mem,
                                  static_cast<double>(valid_elems) * esize,
                                  latest(old.held(), old.extent, 0.0));
      merged_alloc.absorb(old, done);
    }
    engine_->free_bytes(mem, static_cast<double>(old.extent.size()) * esize);
  }
  // Erase merged allocations (descending index order keeps indices valid).
  std::sort(merged.rbegin(), merged.rend());
  for (std::size_t i : merged) allocs.erase(allocs.begin() + static_cast<long>(i));
  allocs.push_back(std::move(merged_alloc));
  return allocs.back();
}

double Runtime::ensure_in_memory(const detail::StoreView& store, Interval elem,
                                 int mem) {
  if (elem.empty()) return 0.0;
  // The instance always covers the bounding interval (rectangular
  // allocation). Resize copies recorded their completion in `held`.
  return latest(find_or_create_alloc(store, elem, mem).held(), elem, 0.0);
}

// ---------------------------------------------------------------------------
// Fault tolerance: spill-on-OOM, node loss, checkpoint/restart
// ---------------------------------------------------------------------------

int Runtime::sysmem_of_node(int node) const {
  for (const auto& m : machine_.memories()) {
    if (m.node == node && m.kind == sim::MemKind::Sys) return m.id;
  }
  return machine_.home_memory();
}

void Runtime::alloc_with_spill(int mem, double bytes, StoreId requesting) {
  for (;;) {
    try {
      engine_->alloc_bytes(mem, bytes);
      return;
    } catch (const OutOfMemoryError&) {
      if (!opts_.spill_on_oom || spilling_ || !evict_lru(mem, requesting)) throw;
    }
  }
}

bool Runtime::evict_lru(int mem, StoreId requesting) {
  auto& ms = *mem_state_[mem];
  const bool is_frame = machine_.memory(mem).kind == sim::MemKind::Frame;

  // Pieces of `a` holding the *only* up-to-date copy (this memory owns the
  // latest version there), one per run of equal (owner, version); everything
  // else in the allocation is a clean replica that can simply be dropped.
  auto dirty_pieces = [&](StoreId sid, const Alloc& a) {
    std::vector<std::pair<Interval, std::uint64_t>> out;
    const auto& written = sync(sid).written();
    auto owner_version = [](const Written& w) { return std::pair{w.owner, w.version}; };
    a.held().for_each_run(a.extent, &Held::version, [&](Interval iv, std::uint64_t v) {
      written.for_each_run(iv, owner_version, [&](Interval q, auto ov) {
        if (ov == std::pair{mem, v}) out.emplace_back(q, v);
      });
    });
    return out;
  };

  StoreId victim_sid = 0;
  std::size_t victim_idx = 0;
  double oldest = std::numeric_limits<double>::infinity();
  bool found = false;
  for (auto& [sid, allocs] : ms.allocs) {
    if (sid == requesting || pinned_.count(sid) > 0) continue;
    for (std::size_t i = 0; i < allocs.size(); ++i) {
      if (allocs[i].last_use >= oldest) continue;
      // System memory is the spill target of last resort: dirty data there
      // has nowhere cheaper to go, so only clean replicas are evictable.
      if (!is_frame && !dirty_pieces(sid, allocs[i]).empty()) continue;
      oldest = allocs[i].last_use;
      victim_sid = sid;
      victim_idx = i;
      found = true;
    }
  }
  if (!found) return false;

  spilling_ = true;
  auto& vec = ms.allocs[victim_sid];
  Alloc victim = std::move(vec[victim_idx]);
  vec.erase(vec.begin() + static_cast<long>(victim_idx));
  if (vec.empty()) ms.allocs.erase(victim_sid);

  auto dirty = dirty_pieces(victim_sid, victim);
  if (!dirty.empty() && is_frame) {
    // Spill sole copies to the node's system memory with a charged copy;
    // ownership follows so later readers fetch from there.
    int dst = sysmem_of_node(machine_.memory(mem).node);
    Alloc* target = find_alloc(victim_sid, victim.extent, dst);
    if (target == nullptr) {
      engine_->alloc_bytes(dst,
                           static_cast<double>(victim.extent.size()) * victim.esize);
      target = &mem_state_[dst]->allocs[victim_sid].emplace_back(victim.extent,
                                                                  victim.last_use, victim.esize);
    }
    for (auto& [piece, v] : dirty) {
      double done = engine_->copy(sim::Copy::Spill, mem, dst,
                                  static_cast<double>(piece.size()) * victim.esize,
                                  latest(victim.held(), piece, 0.0));
      target->hold(piece, v, done);
      // The spill copy joins the dependence chain for this data.
      sync(victim_sid).relocate(piece, dst, done);
    }
  }
  engine_->free_bytes(mem, static_cast<double>(victim.extent.size()) * victim.esize);
  engine_->emit(sim::Ev::Spill);
  spilling_ = false;
  return true;
}

void Runtime::handle_node_loss(int node) {
  engine_->emit(sim::Ev::NodeLoss, {}, node);
  // Hot-spare model: a replacement node with the same shape is admitted, so
  // partitioning — and therefore every bit of the canonical computation —
  // is unchanged. Only the data resident on the lost node is gone.
  for (const auto& m : machine_.memories()) {
    if (m.node != node) continue;
    auto& ms = *mem_state_[m.id];
    for (auto& [sid, allocs] : ms.allocs) {
      for (auto& a : allocs) {
        engine_->free_bytes(m.id, static_cast<double>(a.extent.size()) * a.esize);
      }
    }
    ms.allocs.clear();
    ms.pool.clear();
  }
  // A store whose latest version was owned by a lost memory is poisoned
  // until restored or fully rewritten. Ownership falls back to the home
  // memory so later staging still has a (stale) source to copy from.
  const Interval kAll{0, std::numeric_limits<coord_t>::max()};
  for (auto& [sid, ss] : sync_) {
    std::vector<Interval> lost;
    ss->written().for_each_in(kAll, [&](Interval iv, const Written& w) {
      if (machine_.memory(w.owner).node == node) lost.push_back(iv);
    });
    if (lost.empty()) continue;
    poisoned_stores_.insert(sid);
    diag_note_poison(sid, "node-loss", /*allow_dump=*/false);
    for (Interval iv : lost) ss->relocate(iv, machine_.home_memory(), 0.0);
  }
  // Loss detection + replacement admission stall the whole machine.
  engine_->stall_all(engine_->makespan(), opts_.faults.node_recovery_seconds);
  node_loss_pending_ = true;
  auto& fr = engine_->flight();
  if (fr.enabled()) {
    fr.note_node_loss(node);
    fr.dump("node-loss");
  }
}

void Runtime::poll_faults() {
  if (injector_ == nullptr) return;
  if (injector_->node_loss_due(engine_->makespan())) {
    handle_node_loss(injector_->config().node_loss_node);
  }
  poll_silent_flips();
}

// ---------------------------------------------------------------------------
// Data integrity: silent-flip injection + checksummed stores
// ---------------------------------------------------------------------------

detail::StoreImpl* Runtime::find_live_store(StoreId id) const {
  for (auto* impl : live_stores_) {
    if (impl->id == id) return impl;
  }
  return nullptr;
}

void Runtime::poll_silent_flips() {
  const auto& fc = opts_.faults;
  if (fc.bitflip_rate <= 0 && fc.scripted_flips.empty()) return;
  const double now = engine_->makespan();
  for (std::size_t i : injector_->scripted_flips_due(now)) {
    const auto& f = fc.scripted_flips[i];
    apply_flip(f.store, f.offset, f.bit, now);
  }
  if (fc.bitflip_rate > 0) {
    const double dt = now - last_flip_poll_;
    if (dt > 0) {
      // Stores in id order: the flip schedule must not depend on the
      // unordered_set's iteration order.
      std::vector<detail::StoreImpl*> stores(live_stores_.begin(),
                                             live_stores_.end());
      std::sort(stores.begin(), stores.end(),
                [](const auto* a, const auto* b) { return a->id < b->id; });
      const long poll = flip_poll_seq_++;
      for (auto* s : stores) {
        // The random upset model covers the floating-point data plane only:
        // a flipped pos rect or crd index is not silent — it sends a leaf out
        // of bounds, which on real hardware is a crash, not a wrong answer.
        // Structural stores remain reachable via scripted_flips for targeted
        // experiments.
        if (s->dtype != DType::F64) continue;
        const auto nbytes = static_cast<std::uint64_t>(s->data->size());
        const double exposure = static_cast<double>(nbytes) * dt;
        const int k = injector_->resident_flips(poll, s->id, exposure);
        for (int j = 0; j < k; ++j) {
          apply_flip(s->id, injector_->flip_offset(poll, s->id, j, nbytes),
                     injector_->flip_bit(poll, s->id, j), now);
        }
      }
    }
    last_flip_poll_ = now;
  }
}

void Runtime::apply_flip(StoreId id, std::uint64_t offset, int bit,
                         double now) {
  detail::StoreImpl* impl = find_live_store(id);
  if (impl == nullptr || offset >= impl->data->size()) return;
  auto& byte = impl->data->data()[static_cast<std::size_t>(offset)];
  byte ^= static_cast<std::byte>(1U << static_cast<unsigned>(bit));
  engine_->emit(sim::Ev::FlipInjected);
  if (opts_.integrity != Integrity::Off) {
    outstanding_flips_[id].push_back({offset, now});
  }
}

void Runtime::integrity_verify(StoreId id, std::byte* data,
                               std::size_t nbytes) {
  if (opts_.integrity == Integrity::Off || !ledger_.tracked(id)) return;
  auto bad = ledger_.verify(id, data, nbytes);
  if (bad.empty()) return;
  const double now = engine_->makespan();
  auto& live = outstanding_flips_[id];
  for (const auto& b : bad) {
    // Account every injected-but-undetected flip this chunk covers (the
    // detection-latency metric); a bad chunk with no injection record still
    // counts once (corruption from an unmodeled source).
    bool counted = false;
    for (auto it = live.begin(); it != live.end();) {
      if (it->offset >= b.lo && it->offset < b.hi) {
        engine_->emit(sim::Ev::FlipDetected, {}, 0, 0, now - it->time);
        counted = true;
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    if (!counted) engine_->emit(sim::Ev::FlipDetected);
    bool fixed = false;
    if (opts_.integrity == Integrity::Recover) {
      fixed = ledger_.try_correct(id, data, nbytes, b);
      if (fixed) engine_->emit(sim::Ev::FlipRecovered);
    }
    if (!fixed) {
      // Uncorrectable (or Detect policy): the bytes are untrusted. Poison
      // the store — the same path PR 1's retry exhaustion takes, so solvers
      // roll back to a clean checkpoint instead of consuming garbage — and
      // accept the damaged bytes as the new baseline so the same corruption
      // is not re-detected on every subsequent read.
      poisoned_stores_.insert(id);
      diag_note_poison(id, "integrity");
      ledger_.record(id, data, nbytes, b.lo, b.hi);
    }
  }
  if (live.empty()) outstanding_flips_.erase(id);
}

void Runtime::integrity_record(StoreId id, const std::byte* data,
                               std::size_t nbytes, std::size_t lo,
                               std::size_t hi) {
  if (opts_.integrity == Integrity::Off) return;
  ledger_.record(id, data, nbytes, lo, hi);
  auto it = outstanding_flips_.find(id);
  if (it != outstanding_flips_.end()) {
    auto& live = it->second;
    const auto before = live.size();
    std::erase_if(live, [&](const LiveFlip& f) {
      return f.offset >= lo && f.offset < hi;
    });
    if (before != live.size()) {
      met_.flips_overwritten.inc(static_cast<double>(before - live.size()));
    }
    if (live.empty()) outstanding_flips_.erase(it);
  }
}

void Runtime::integrity_after_leaves(detail::LaunchRecord& R) {
  // The rate-based in-flight model targets the SpMV data path: that is the
  // kernel the Huang–Abraham checksum protects, and the classical ABFT fault
  // model (corruption inside the matrix product, invisible to memory
  // checksums because the wrong bytes are hashed as written). Output flips
  // elsewhere would be silent by construction — nothing in the stack claims
  // to catch them — so drawing them would only poison the determinism story.
  const bool spmv_path = R.name.find("spmv") != std::string::npos;
  for (const auto& a : R.args) {
    if (a.priv == Priv::Read) continue;
    auto raw = a.view.raw();
    // In-flight corruption: the launch's written bytes take a flip *before*
    // they are checksummed, so the ledger faithfully protects wrong data and
    // only the algorithmic (ABFT) layer can notice. Drawn per written store
    // from its own deterministic sequence.
    if (spmv_path && injector_ != nullptr &&
        injector_->config().output_flip_rate > 0 &&
        a.view.dtype == DType::F64) {
      const long oseq = output_seq_++;
      if (injector_->output_flip(oseq)) {
        const std::uint64_t n = static_cast<std::uint64_t>(a.view.volume);
        const std::uint64_t idx = injector_->output_flip_index(oseq, n);
        const int bit = injector_->output_flip_bit(oseq);
        auto* words = reinterpret_cast<std::uint64_t*>(raw.data());
        words[idx] ^= 1ULL << static_cast<unsigned>(bit);
        engine_->emit(sim::Ev::FlipInjected);
      }
    }
    integrity_record(a.view.id, raw.data(), raw.size(), 0, raw.size());
  }
}

void Runtime::integrity_scrub() {
  if (opts_.integrity == Integrity::Off) return;
  fence();
  poll_faults();
  std::vector<detail::StoreImpl*> stores(live_stores_.begin(),
                                         live_stores_.end());
  std::sort(stores.begin(), stores.end(),
            [](const auto* a, const auto* b) { return a->id < b->id; });
  for (auto* s : stores) {
    integrity_verify(s->id, s->data->data(), s->data->size());
  }
}

Checkpoint Runtime::checkpoint(const std::vector<Store>& stores) {
  fence();  // the snapshot must observe fully-written real data
  Checkpoint ck;
  double ready = engine_->control_advance(task_overhead_, "checkpoint");
  double bytes = 0;
  for (const Store& s : stores) {
    // The snapshot is consistent: it waits for every in-flight writer.
    ready = latest(sync(s.id()).written(), s.extent(), ready);
    auto raw = s.raw();
    ck.entries_.push_back({s, std::vector<std::byte>(raw.begin(), raw.end())});
    bytes += static_cast<double>(raw.size());
  }
  met_.checkpoint_bytes.inc(bytes * engine_->cost_scale());
  double done = engine_->checkpoint_io(bytes, ready, /*restore=*/false);
  // The checkpoint reads the stores: subsequent writers must wait for it.
  for (const Store& s : stores) sync(s.id()).readers.emplace_back(s.extent(), done);
  ck.taken_at_ = done;
  return ck;
}

double Runtime::restore(const Checkpoint& ckpt) {
  fence();  // in-flight work must not race the canonical rewrite
  double ready = engine_->control_advance(task_overhead_, "restore");
  met_.restore_bytes.inc(ckpt.bytes() * engine_->cost_scale());
  double done = engine_->checkpoint_io(ckpt.bytes(), ready, /*restore=*/true);
  for (const auto& e : ckpt.entries_) {
    auto raw = e.store.raw();
    LSR_CHECK_MSG(raw.size() == e.data.size(), "restore into resized store");
    std::memcpy(raw.data(), e.data.data(), e.data.size());
    const int home = machine_.home_memory();
    write_external(e.store, done,
                   find_or_create_alloc(e.store.view(), e.store.extent(), home));
    // The rewrite re-baselined the checksums; it also retires any outstanding
    // corruption: the snapshot bytes are clean by construction (verified on
    // checkpoint, payload-checksummed on disk).
    outstanding_flips_.erase(e.store.id());
  }
  return done;
}

double Runtime::shuffle(const Store& in, const Store& out,
                        const std::function<void()>& body) {
  fence();  // `body` reads/writes canonical bytes on the control thread
  const int P = machine_.num_procs();
  poll_faults();
  double t_launch = engine_->control_advance(task_overhead_, "shuffle");
  pinned_.insert(in.id());
  pinned_.insert(out.id());

  auto& sin = sync(in.id());
  const double src_ready = latest(sin.written(), in.extent(), t_launch);

  body();  // real data movement on canonical buffers

  // The body rewrote `out` externally (through spans): refresh checksums
  // before anything reads it back.
  {
    auto v = out.view();
    integrity_record(out.id(), v.raw().data(), v.raw().size(), 0,
                     v.raw().size());
  }

  double esize = static_cast<double>(dtype_size(out.dtype()));
  double block_bytes =
      static_cast<double>(in.volume()) * esize / (static_cast<double>(P) * P);
  std::vector<double> dst_ready(static_cast<std::size_t>(P), src_ready);
  // The volume/P² all-to-all travels as one transfer per modeled link — per
  // memory (shared-memory socket pairs), per memory pair (same node), per
  // node pair (ib) — like an MPI_Alltoall built on per-peer message
  // combining. Off, the uncoalesced ablation, keys each (s, d) processor
  // pair apart: one block per message, in (s, d) order. A processor sends
  // nothing to itself; distinct processors sharing one memory (CPU sockets
  // on a node) exchange their blocks on the per-memory intra clock.
  const bool per_link = comm_mode_ != comm::Mode::Off;
  struct Agg {
    int src_mem, dst_mem;
    double bytes{0};
    long pieces{0};
    std::vector<int> dst_procs;
  };
  std::map<std::tuple<int, int, int>, Agg> groups;
  for (int s = 0; s < P; ++s) {
    for (int d = 0; d < P; ++d) {
      if (s == d) continue;
      int ms = machine_.proc(s).mem;
      int md = machine_.proc(d).mem;
      int ns = machine_.memory(ms).node;
      int nd = machine_.memory(md).node;
      std::tuple<int, int, int> link = !per_link  ? std::tuple{3, s, d}
                                       : ms == md ? std::tuple{0, ms, ms}
                                       : ns == nd ? std::tuple{1, ms, md}
                                                  : std::tuple{2, ns, nd};
      auto [it, fresh] = groups.try_emplace(link, Agg{ms, md, 0, 0, {}});
      it->second.bytes += block_bytes;
      ++it->second.pieces;
      it->second.dst_procs.push_back(d);
    }
  }
  double bytes_total = 0;
  for (auto& [link, g] : groups) {
    double done =
        engine_->copy(sim::Copy::Shuffle, g.src_mem, g.dst_mem, g.bytes, src_ready);
    for (int d : g.dst_procs) {
      dst_ready[static_cast<std::size_t>(d)] =
          std::max(dst_ready[static_cast<std::size_t>(d)], done);
    }
    bytes_total += g.bytes;
    met_.comm_messages.inc();
    if (g.pieces > 1) {
      met_.comm_messages_saved.inc(static_cast<double>(g.pieces - 1));
    }
    const double scaled = g.bytes * engine_->cost_scale();
    met_.comm_bytes.inc(scaled);
    (g.src_mem == g.dst_mem ? met_.comm_bytes_intra
     : machine_.memory(g.src_mem).node == machine_.memory(g.dst_mem).node
         ? met_.comm_bytes_nvlink
         : met_.comm_bytes_ib)
        .inc(scaled);
  }
  engine_->emit(sim::Ev::Comm, "shuffle", static_cast<std::int64_t>(groups.size()), 0,
                bytes_total * engine_->cost_scale());

  // Each destination runs a local repack kernel and then owns its block.
  auto part = Partition::equal(out.basis(), P);
  auto& sout = sync(out.id());
  sout.begin_write();
  double max_done = t_launch;
  for (int d = 0; d < P; ++d) {
    Interval iv = part->sub(d);
    Interval elem{iv.lo * out.stride(), iv.hi * out.stride()};
    if (elem.empty()) continue;
    // Repacks draw no transient faults: the point sequence stays the
    // launches' alone.
    const double done =
        charge_point({.proc = d, .cost = {2.0 * static_cast<double>(elem.size()) * esize, 0, 1.0, 0},
                      .gate = dst_ready[static_cast<std::size_t>(d)], .faults = false},
                     "shuffle_repack")
            .first;
    const int mem = machine_.proc(d).mem;
    sout.write(elem, mem, done, find_or_create_alloc(out.view(), elem, mem));
    max_done = std::max(max_done, done);
  }
  sout.key_uid = part->uid();
  sout.key_colors = P;
  sout.readers.clear();
  sin.readers.emplace_back(in.extent(), max_done);
  // The shuffle fully rewrites `out` from `in`: poison follows the source.
  if (poisoned_stores_.count(in.id()) > 0) {
    poisoned_stores_.insert(out.id());
    diag_note_poison(out.id(), "shuffle-propagate");
  } else {
    poisoned_stores_.erase(out.id());
  }
  // The shuffle rewrote `out`'s version/ownership layout wholesale.
  comm_invalidate(out.id());
  pinned_.clear();
  return max_done;
}


// ---------------------------------------------------------------------------
// Task execution: issue (execute -> sim_apply)
// ---------------------------------------------------------------------------

Future Runtime::execute(TaskLauncher& L) {
  LSR_CHECK_MSG(L.leaf_ != nullptr, "task has no leaf function");
  auto R = make_record(L);
  // With fusion active, records route through the window analysis first
  // (src/rt/runtime_fuse.cpp), which issues through sim_apply too.
  if (fusion_on_) return fuse_execute(R);
  sim_apply(R);
  return R->result;
}

void Runtime::sim_apply(const std::shared_ptr<LaunchRecord>& record) {
  LaunchRecord& R = *record;
  // The board stays up until the launch is accounted, inline leaves
  // included, so a hang anywhere names this launch.
  const detail::LaunchBoard board = begin_launch(R);
  const double t_launch = engine_->control_advance(task_overhead_, R.name);
  if (R.eager_parts.empty()) eager_solve(R);
  start_leaves(record);
  const std::vector<std::uint64_t> key_of = account_partitions(R);
  bool poisoned = pin_launch(R);
  const std::vector<double> dep_time = analyze(R, t_launch);
  detail::Mapped m = comm_pass_b(R, dep_time, t_launch);
  R.wall_events = std::move(m.wall_events);
  poisoned = poisoned || m.exhausted;
  publish(R, m, key_of, poisoned);
  const double done = reduce_stores(R, m.max_completion, poisoned);
  pinned_.clear();
  R.result = reduce_scalar(R, done, poisoned);
  auto& fr = engine_->flight();
  if (fr.enabled()) {
    fr.record(diag::EventKind::Retire, R.name, R.colors, poisoned ? 1 : 0, done);
  }
  fr.progress();
  if (R.node == nullptr) {  // inline leaves: done, and the launch is accounted
    pair_walls(R);
    if (auto err = R.first_error()) std::rethrow_exception(err);
  } else if (outstanding_.size() >= 1024) {
    wait_leaves();  // backstop: bound the records a fence-free program keeps
  }
}

// Poll faults, verify-on-read, and publish the launch on the
// flight-recorder board.
detail::LaunchBoard Runtime::begin_launch(LaunchRecord& R) {
  poll_faults();
  // Verify-on-read: every argument whose current bytes this launch consumes
  // (including image-constraint sources read during partitioning) is checked
  // against the ledger before any real work observes it.
  if (opts_.integrity != Integrity::Off) {
    for (const auto& a : R.args) {
      if (a.priv != Priv::Read && a.priv != Priv::ReadWrite) continue;
      auto raw = a.view.raw();
      integrity_verify(a.view.id, raw.data(), raw.size());
    }
  }
  met_.launches.inc();
  // Flight recorder: publish the launch on the board before any simulated
  // work or inline leaf, so a hang anywhere below names this launch as the
  // suspect. The board is cleared even on the exception paths (OOM) — a dead
  // launch must not keep the watchdog's busy signal high.
  auto& fr = engine_->flight();
  if (!fr.enabled()) return nullptr;
  fr.begin_launch(R.name, static_cast<long>(pending_launches()));
  fr.record(diag::EventKind::Launch, R.name, static_cast<std::int64_t>(R.args.size()));
  return detail::LaunchBoard(&fr);
}

void Runtime::start_leaves(const std::shared_ptr<LaunchRecord>& R) {
  if (pipeline_) {
    enqueue_record(R);
    return;
  }
  // Inline (parallel-for on the pool when there is one). Leaves touch no
  // simulated state, so running them here keeps the engine-op sequence of
  // the accounting below unchanged.
  run_leaves(*R);
  // Write-back checksums (and possible in-flight output corruption ahead of
  // them) for everything this launch wrote.
  if (R->first_error() == nullptr &&
      (opts_.integrity != Integrity::Off ||
       (injector_ != nullptr && injector_->config().output_flip_rate > 0))) {
    integrity_after_leaves(*R);
  }
}

// Partition accounting (Section 4.1). The content is solved; the accounting
// tracks which partitions the runtime creates and reuses, by identity.
// ident[i] is argument i's partition identity (it keys the image accounting
// of chains); key_of[i] is the key identity its store adopts in Pass C.
// Last, the work-spread gauges of the solved split.
std::vector<std::uint64_t> Runtime::account_partitions(const LaunchRecord& R) {
  const int nargs = static_cast<int>(R.args.size());
  std::vector<std::uint64_t> ident(static_cast<std::size_t>(nargs), 0);
  std::vector<std::uint64_t> key_of(static_cast<std::size_t>(nargs), 0);
  auto fresh = [this] {
    met_.partitions_created.inc();
    return Partition::next_uid();
  };
  // Alignment groups: reuse a key partition of the largest member when it
  // has the launch's color count, else make a fresh equal partition.
  // Broadcast & reduce arguments get a new whole partition every launch.
  std::unordered_map<int, std::vector<int>> groups;
  for (int i = 0; i < nargs; ++i) {
    const auto& a = R.args[i];
    if (a.ckind == ConstraintKind::None && a.priv != Priv::Reduce) {
      groups[a.root].push_back(i);
    } else if (a.ckind == ConstraintKind::Broadcast || a.priv == Priv::Reduce) {
      ident[static_cast<std::size_t>(i)] = Partition::next_uid();
    }
  }
  bool any_pin = false;
  for (auto& [root, members] : groups) {
    std::uint64_t keyed = 0;
    if (opts_.partition_reuse) {
      // Prefer the key partition of the largest store in the group
      // ("keep the largest region in place").
      std::vector<int> order = members;
      std::sort(order.begin(), order.end(), [&](int x, int y) {
        return R.args[x].view.volume > R.args[y].view.volume;
      });
      for (int m : order) {
        const auto& ss = sync(R.args[m].view.id);
        if (ss.key_uid != 0 && ss.key_colors == R.colors) {
          keyed = ss.key_uid;
          break;
        }
      }
    }
    std::uint64_t chosen;
    std::uint64_t key;
    const bool pinned = std::any_of(members.begin(), members.end(),
                                    [&](int m) { return R.args[m].part != nullptr; });
    if (pinned) {
      // Explicit pin (set_partition): the caller's split, e.g. nnz-balanced
      // rows, wins over key reuse but never becomes a key partition. The
      // group adopts an equal-structured stand-in key instead, so later
      // unpinned launches on the same stores reuse rather than re-create.
      // Pins are provided, not reused: they count toward the strategy
      // counters below, not the reuse hit/miss pair.
      any_pin = true;
      chosen = R.eager_parts[static_cast<std::size_t>(members[0])]->uid();
      key = keyed != 0 || !opts_.partition_reuse ? keyed : fresh();
    } else if (keyed != 0) {
      met_.part_reuse_hits.inc();
      chosen = key = keyed;
    } else {
      met_.part_reuse_misses.inc();
      chosen = key = fresh();
    }
    for (int m : members) {
      ident[static_cast<std::size_t>(m)] = chosen;
      key_of[static_cast<std::size_t>(m)] = key;
    }
  }
  // Strategy accounting for launches that have a primary (alignment-solved)
  // domain at all: did it run over equal row splits or an explicit
  // nnz-balanced pin?
  if (!groups.empty()) {
    (any_pin ? met_.part_strategy_nnz : met_.part_strategy_rows).inc();
  }
  // Halo partitions are rebuilt every launch; images go through the image
  // accounting. Chains (pos -> crd -> x) resolve over repeated passes, in
  // the order the solve resolved them.
  for (bool pending = true; pending;) {
    pending = false;
    for (int i = 0; i < nargs; ++i) {
      const auto& a = R.args[i];
      if (ident[static_cast<std::size_t>(i)] != 0 || a.image_src < 0) continue;
      const std::uint64_t src = ident[static_cast<std::size_t>(a.image_src)];
      if (src == 0) {
        pending = true;
      } else {
        ident[static_cast<std::size_t>(i)] =
            a.ckind == ConstraintKind::Halo
                ? fresh()
                : image_identity(R.args[a.image_src].view.id, src, a.ckind);
      }
    }
  }
  // How well the chosen row split balanced this launch's work.
  if (R.colors > 1) {
    double max_work = 0, total_work = 0;
    int busy = 0;
    for (int c = 0; c < R.colors; ++c) {
      if (R.all_empty[static_cast<std::size_t>(c)] != 0) continue;
      const auto& cost = R.costs[static_cast<std::size_t>(c)];
      double work = cost.bytes + cost.flops;
      max_work = std::max(max_work, work);
      total_work += work;
      ++busy;
    }
    if (busy > 0 && total_work > 0) {
      double mean_work = total_work / R.colors;
      met_.part_max_work.set(max_work);
      met_.part_mean_work.set(mean_work);
      met_.part_imbalance_pct.set(100.0 * (max_work / mean_work - 1.0));
    }
  }
  return key_of;
}

// Pin the launch's stores: never OOM spill victims while it is in flight.
// Returns whether a poisoned future dependence or a poisoned input taints
// everything this launch writes.
bool Runtime::pin_launch(const LaunchRecord& R) {
  bool poisoned = R.poisoned_dep;
  for (const auto& a : R.args) {
    pinned_.insert(a.view.id);
    if (a.priv != Priv::WriteDiscard && poisoned_stores_.count(a.view.id) > 0) {
      poisoned = true;
    }
  }
  return poisoned;
}

// Pass A: dependence analysis against pre-launch state. Every argument waits
// for the writers of its piece (RAW for reads, WAW for writes); writes also
// wait for the readers they supersede (WAR).
std::vector<double> Runtime::analyze(const LaunchRecord& R, double t_launch) {
  std::vector<double> dep_time(static_cast<std::size_t>(R.colors),
                               std::max(t_launch, R.future_dep));
  for (int c = 0; c < R.colors; ++c) {
    double& t = dep_time[static_cast<std::size_t>(c)];
    for (int i = 0; i < static_cast<int>(R.args.size()); ++i) {
      const auto& a = R.args[static_cast<std::size_t>(i)];
      const Interval elem = R.elem(c, i);
      if (elem.empty()) continue;
      auto& ss = sync(a.view.id);
      t = latest(ss.written(), elem, t);
      if (a.priv == Priv::Read) continue;
      for (auto& [riv, rt_] : ss.readers) {
        if (riv.overlaps(elem)) t = std::max(t, rt_);
      }
    }
  }
  return dep_time;
}

void Runtime::charge_color(const LaunchRecord& R, int c, detail::Mapped& m,
                           double gate, double interior, double ghost_bytes) {
  // The point's cost was evaluated at the solve; its leaf may still run.
  const auto cc = static_cast<std::size_t>(c);
  const auto [done, exhausted] = charge_point(
      {.proc = c % machine_.num_procs(), .cost = R.costs[cc], .gate = gate,
       .interior = interior, .ghost_bytes = ghost_bytes},
      R.prof_label);
  const auto& rec = engine_->recorder();  // pair_walls fills this event
  if (R.wall_prof && !exhausted && rec.enabled() && !rec.events().empty()) {
    m.wall_events[cc] = static_cast<std::int64_t>(rec.events().size()) - 1;
  }
  m.completion[cc] = done;
  m.max_completion = std::max(m.max_completion, done);
  m.exhausted = m.exhausted || exhausted;
}

// The point-kernel charge (Section 4.2 "charge its kernel"): roofline cost
// with the reshape term and cost scaling, GPU launch overhead, the transient
// fault loop keyed on task_seq_ and the Overlap interior/boundary split.
// Pass B and shuffle's repack call it.
std::pair<double, bool> Runtime::charge_point(const detail::PointKernel& k,
                                              std::string_view label) {
  const auto& pp = machine_.params();
  const auto& proc = machine_.proc(k.proc);
  sim::Cost cost{k.cost.bytes, k.cost.flops, k.cost.efficiency};
  if (opts_.model_reshape && proc.kind == sim::ProcKind::GPU) {
    cost.bytes += k.cost.reshape * pp.legate_csr_reshape_fraction;
  }
  cost.bytes *= engine_->cost_scale();
  cost.flops *= engine_->cost_scale();
  double duration = engine_->cost_model().kernel_seconds(
      proc.kind, cost, proc.kind == sim::ProcKind::CPU ? cpu_fraction_ : 1.0);
  if (proc.kind == sim::ProcKind::GPU) duration += pp.gpu_kernel_launch;
  engine_->emit(sim::Ev::Task);
  // Transient-fault model. The leaf ran exactly once, so canonical data is
  // always the fault-free bits; failures cost only time and metadata. Each
  // failed attempt occupies the processor for part of the duration from the
  // gate, then pays detection latency and exponential backoff before the
  // retry. Exhausting max_attempts poisons the launch instead of producing
  // a wrong value: the point never completes healthy, and dependences
  // advance at the time the permanent failure is detected.
  double start = k.gate;
  int attempt = 0;
  if (k.faults) {
    const long seq = task_seq_++;
    if (injector_ != nullptr) {
      const auto& fc = injector_->config();
      while (injector_->should_fail(seq, attempt)) {
        engine_->emit(sim::Ev::Fault);
        const double wasted = duration * injector_->fail_fraction(seq, attempt);
        const double failed = engine_->busy_proc(k.proc, start, wasted, label);
        const double detected = failed + fc.detect_seconds;
        if (++attempt >= fc.max_attempts) {
          engine_->note_recovery(k.proc, failed, detected, label);
          engine_->bump_to(detected);
          return {detected, true};
        }
        engine_->emit(sim::Ev::Retry);
        start = detected + fc.backoff_seconds * std::pow(2.0, attempt - 1);
        engine_->note_recovery(k.proc, failed, start, label);
      }
    }
  }
  double done;
  if (attempt == 0 && comm_mode_ == comm::Mode::Overlap && k.ghost_bytes > 0 &&
      k.cost.bytes > 0 && duration > 0 && k.gate > k.interior) {
    // Interior/boundary split: the fraction of the leaf's traffic that is
    // ghost data bounds the boundary phase; the interior (capped at half the
    // kernel so a ghost-dominated task still overlaps something) starts on
    // local data alone, hiding the exchange behind it. A retried point runs
    // unsplit from its last backoff.
    const double frac = std::min(0.5, k.ghost_bytes / k.cost.bytes);
    const double t_int =
        engine_->busy_proc(k.proc, k.interior, duration * (1.0 - frac), label);
    done = engine_->busy_proc(k.proc, std::max(t_int, k.gate), duration * frac, label);
    met_.comm_overlap_splits.inc();
  } else {
    done = engine_->busy_proc(k.proc, start, duration, label);
  }
  return {done, false};
}

// Pass C: publish writes into the dependence state.
void Runtime::publish(const LaunchRecord& R, const detail::Mapped& m,
                      const std::vector<std::uint64_t>& key_of, bool poisoned) {
  for (int i = 0; i < static_cast<int>(R.args.size()); ++i) {
    const auto& a = R.args[static_cast<std::size_t>(i)];
    if (a.priv == Priv::Read || a.priv == Priv::Reduce) continue;  // below / reduce_stores
    auto& ss = sync(a.view.id);
    ss.begin_write();
    for (int c = 0; c < R.colors; ++c) {
      const Interval elem = R.elem(c, i);
      if (elem.empty()) continue;
      const int mem = m.point_mem[static_cast<std::size_t>(c)];
      // The writer's allocation now holds the fresh data.
      ss.write(elem, mem, m.completion[static_cast<std::size_t>(c)],
               find_or_create_alloc(a.view, elem, mem));
    }
    // Writes clear the reader set they superseded.
    std::erase_if(ss.readers, [&](const std::pair<Interval, double>& r) {
      for (int c = 0; c < R.colors; ++c) {
        if (r.first.overlaps(R.elem(c, i))) return true;
      }
      return false;
    });
    // Poison bookkeeping: a poisoned launch taints what it writes; a healthy
    // launch that rewrites a store's full extent washes old poison out.
    if (poisoned) {
      poisoned_stores_.insert(a.view.id);
      diag_note_poison(a.view.id, "retry-exhausted");
    } else if (poisoned_stores_.count(a.view.id) > 0) {
      IntervalSet written;
      for (int c = 0; c < R.colors; ++c) written.add(R.elem(c, i));
      if (written.size_within(a.view.extent()) == a.view.volume) {
        poisoned_stores_.erase(a.view.id);
      }
    }
    // Track the key partition of written stores for future reuse (pinned
    // groups adopt their equal-structured stand-in, never the pin).
    if (key_of[static_cast<std::size_t>(i)] != 0) {
      ss.key_uid = key_of[static_cast<std::size_t>(i)];
      ss.key_colors = R.colors;
    }
  }
  // Reads register for WAR tracking; read-only stores also adopt the
  // partition they were last used with as their key partition, so future
  // launches (and their cached images) can align with them — read-mostly
  // data like a solver's matrix would otherwise never anchor reuse.
  for (int i = 0; i < static_cast<int>(R.args.size()); ++i) {
    const auto& a = R.args[static_cast<std::size_t>(i)];
    if (a.priv != Priv::Read) continue;
    auto& ss = sync(a.view.id);
    for (int c = 0; c < R.colors; ++c) {
      const Interval elem = R.elem(c, i);
      if (!elem.empty())
        ss.readers.emplace_back(elem, m.completion[static_cast<std::size_t>(c)]);
    }
    if (ss.key_uid == 0 && key_of[static_cast<std::size_t>(i)] != 0) {
      ss.key_uid = key_of[static_cast<std::size_t>(i)];
      ss.key_colors = R.colors;
    }
  }
}

// Store reductions: all-reduce + replication; returns the launch's final
// completion. (The real write-back of the folded partials happens in
// run_leaves, in fixed color order; only the simulated collective is
// charged here.)
double Runtime::reduce_stores(const LaunchRecord& R, double max_completion,
                              bool poisoned) {
  for (const auto& a : R.args) {
    if (a.priv != Priv::Reduce) continue;
    double bytes = static_cast<double>(a.view.volume) * sizeof(double);
    double t_red = engine_->allreduce_bytes(R.colors, bytes, max_completion, true);
    auto& ss = sync(a.view.id);
    ss.begin_write();
    ss.readers.clear();
    // After the all-reduce every participating memory holds the result and the
    // first owns it. Allocating in one memory never moves another's allocs.
    std::vector<Alloc*> holders;
    for (const auto& proc : machine_.procs()) {
      holders.push_back(&find_or_create_alloc(a.view, a.view.extent(), proc.mem));
    }
    ss.write(a.view.extent(), machine_.procs().front().mem, t_red, holders);
    // Reductions rewrite the whole store: poison follows the launch state.
    if (poisoned) {
      poisoned_stores_.insert(a.view.id);
      diag_note_poison(a.view.id, "retry-exhausted");
    } else {
      poisoned_stores_.erase(a.view.id);
    }
    max_completion = std::max(max_completion, t_red);
  }
  return max_completion;
}

// The scalar reduction future: once the leaves finished, the charged
// points' partials folded in color order.
Future Runtime::reduce_scalar(const LaunchRecord& R, double ready, bool poisoned) {
  Future fut;
  if (R.has_redop) {
    if (R.node != nullptr) wait_leaves();
    std::vector<double> partials;
    for (int c = 0; c < R.colors; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      if (R.all_empty[cc] == 0 && R.out[cc].contributed) partials.push_back(R.out[cc].partial);
    }
    double v = partials.empty() ? 0.0 : partials.front();
    for (std::size_t k = 1; k < partials.size(); ++k) {
      const double p = partials[k];
      switch (*R.redop) {
        case ScalarRedop::Sum: v += p; break;
        case ScalarRedop::Max: v = std::max(v, p); break;
        case ScalarRedop::Min: v = std::min(v, p); break;
      }
    }
    fut.value = v;
    fut.ready = engine_->allreduce(R.colors, ready, true);
    fut.valid = true;
  }
  fut.poisoned = poisoned;
  return fut;
}

void Runtime::diag_note_poison(StoreId id, const char* why, bool allow_dump) {
  auto& fr = engine_->flight();
  if (!fr.enabled()) return;
  fr.record(diag::EventKind::Poison, why, static_cast<std::int64_t>(id));
  fr.note_poison(id);
  // One post-mortem dump per runtime on the first poison propagation: that
  // is the moment the terminal injected fault became user-visible damage.
  if (allow_dump && !diag_poison_dumped_) {
    diag_poison_dumped_ = true;
    fr.dump("poison");
  }
}

}  // namespace legate::rt

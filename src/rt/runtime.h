#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ranges>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "comm/comm.h"
#include "exec/pool.h"
#include "integrity/integrity.h"
#include "rt/partition.h"
#include "rt/store.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "util/interval_map.h"

namespace legate::fuse {
class WindowTracker;
}

namespace legate::rt {

class Checkpoint;
class Runtime;
class TaskLauncher;

namespace detail {
struct LaunchRecord;
struct EndLaunch;
using LaunchBoard = std::unique_ptr<diag::FlightRecorder, EndLaunch>;
struct Mapped;
struct PointKernel;
}

/// Access privilege of a task argument.
enum class Priv {
  Read,          ///< read-only
  WriteDiscard,  ///< whole sub-interval overwritten; prior contents dead
  ReadWrite,     ///< in-place update
  Reduce,        ///< every point produces a full-store partial, summed
};

/// How an argument's partition is constrained (Section 4.1).
enum class ConstraintKind {
  None,
  Broadcast,    ///< whole store visible to every point task
  ImageRects,   ///< partition = image of a Rect1-typed source argument
  ImagePoints,  ///< partition = image of an i64 coordinate source argument
  Halo,         ///< partition = source partition expanded by fixed offsets
};

enum class ScalarRedop { Sum, Max, Min };

/// What a store's creator declares about the store's first launch (an
/// internal create_store argument). `Full`: that launch overwrites every
/// element before anything reads the store, so its host buffer is handed
/// out without a zero fill. `Partial` (todense, scatters, reductions, and
/// anything undeclared) keeps the fill.
enum class FirstWrite { Partial, Full };

/// Result of a scalar reduction (dot, norm, ...). `value` is exact (computed
/// for real); `ready` is the simulated completion time including the
/// all-reduce model. `poisoned` marks a value produced from data the modeled
/// machine lost (exhausted retries, unrecovered node loss): the canonical
/// bits are still the fault-free values, but consumers must not trust them.
/// A scalar launch is accounted at issue like any other; it then fences
/// (waits for its own leaves and every earlier outstanding one) and folds
/// its partials in color order, so the value is real when execute() returns.
struct Future {
  double value{0};
  double ready{0};
  bool valid{false};
  bool poisoned{false};
};

/// Per-point view handed to leaf task bodies and to cost functions. Mirrors
/// the paper's Fig. 7 tasks: leaves index the *global* store span within
/// their assigned bounds. Under exec_threads > 1 the points of one launch run
/// concurrently on the pool, so a context only ever touches its own
/// intervals/buffers. A cost function runs at issue: it may read image
/// sources' bytes only (the solve waited for their writers).
class TaskContext {
 public:
  [[nodiscard]] int color() const { return color_; }
  [[nodiscard]] int colors() const { return colors_; }

  /// Basis-unit interval assigned to this point for argument `arg`
  /// (rows of a 2-D store, elements of a 1-D store).
  [[nodiscard]] Interval interval(int arg) const;
  /// Element interval (basis interval scaled by the row stride).
  [[nodiscard]] Interval elem_interval(int arg) const;
  /// Basis units in interval(arg), as a double: the unit of cost formulas.
  [[nodiscard]] double count(int arg) const { return static_cast<double>(interval(arg).size()); }

  /// Typed view of argument `arg`. For Reduce arguments this is a private
  /// zero-initialized partial buffer; otherwise the canonical store data.
  template <typename T>
  [[nodiscard]] std::span<T> full(int arg) const {
    auto bytes = arg_bytes(arg);
    return {reinterpret_cast<T*>(bytes.data()), bytes.size() / sizeof(T)};
  }

  /// Contribute a partial value to the launch's scalar reduction.
  void contribute(double v);

 private:
  friend class Runtime;
  [[nodiscard]] std::span<std::byte> arg_bytes(int arg) const;

  int color_{0};
  int colors_{1};
  const detail::LaunchRecord* rec_{nullptr};
  std::vector<std::vector<std::byte>>* reduce_bufs_{nullptr};  // per arg; empty if none
  double partial_{0};
  bool contributed_{false};
};

/// Roofline work of one point task, what the simulator charges for it.
struct TaskCost {
  double bytes{0};       ///< bytes moved through the memory system
  double flops{0};       ///< floating point operations
  double efficiency{1};  ///< multiplier < 1 slows the kernel down
  /// Section 3 penalty: bytes of reshaping a global-CSR piece into a local
  /// matrix before an external (cuSPARSE-style) kernel; charged on GPUs.
  double reshape{0};
};

/// A launch's cost: one point's work as a function of its color and solved
/// intervals (see TaskContext), evaluated at issue.
using CostFn = std::function<TaskCost(const TaskContext&)>;

/// The streaming cost of elementwise kernels: `bytes` and `flops` per
/// element of argument `arg`'s piece.
[[nodiscard]] CostFn per_element(int arg, double bytes, double flops);

/// Declarative task launch: stores + privileges + partitioning constraints.
/// The runtime's constraint solver picks concrete partitions at execute()
/// time, reusing existing ("key") partitions whenever they satisfy the
/// constraints — the mechanism that lets Legate Sparse and the dense library
/// compose without knowing about each other (Section 4.1).
class TaskLauncher {
 public:
  TaskLauncher(Runtime& rt, std::string name);

  int add_input(const Store& s) { return add_arg(s, Priv::Read); }
  int add_output(const Store& s) { return add_arg(s, Priv::WriteDiscard); }
  int add_inout(const Store& s) { return add_arg(s, Priv::ReadWrite); }
  int add_reduction(const Store& s) { return add_arg(s, Priv::Reduce); }

  /// Constrain two arguments to use aligned partitions of their bases.
  void align(int a, int b);
  /// Constrain dst's partition to the image of src's (Rect1 entries).
  void image_rects(int src, int dst);
  /// Constrain dst's partition to the image of src's (i64 coordinates).
  void image_points(int src, int dst);
  /// Constrain dst's partition to src's expanded by [lo_off, hi_off] basis
  /// units and clipped (stencil/banded access patterns).
  void halo(int src, int dst, coord_t lo_off, coord_t hi_off);
  /// Replicate the whole argument to every point task.
  void broadcast(int arg);
  /// Pin `arg`'s partition explicitly (must be disjoint, cover the basis and
  /// match the launch's color count); arguments aligned with it share it.
  /// The partitioning-strategy subsystem uses this to launch sparse kernels
  /// over nnz-balanced row splits instead of the equal default. Explicit
  /// partitions win over key-partition reuse but are never adopted as key
  /// partitions themselves, so downstream dense launches keep their equal
  /// splits.
  void set_partition(int arg, PartitionRef p);

  /// Request a scalar reduction combined across point tasks.
  void reduce_scalar(ScalarRedop op) {
    redop_ = op;
    has_redop_ = true;
  }

  void set_leaf(std::function<void(TaskContext&)> fn) { leaf_ = std::move(fn); }
  /// The simulated work of each point (no cost function = zero work). The
  /// runtime evaluates it at issue, from the solved partitions alone, so a
  /// launch is accounted without waiting for its leaves.
  void set_cost(CostFn fn) { cost_ = std::move(fn); }
  /// Tag this launch with provenance for the profiler (e.g. the sparse
  /// format or algorithm phase). Overrides the runtime's provenance scope;
  /// purely observational — has no effect on scheduling or timing.
  void set_provenance(std::string p) { provenance_ = std::move(p); }
  /// Force the number of point tasks (e.g. 1 for sequential glue work).
  void require_colors(int n) { forced_colors_ = n; }
  /// Add a dependence on a scalar future (tasks consume futures without
  /// blocking the control lane, like Legate's scalar plumbing). A poisoned
  /// future poisons this launch and everything it writes.
  void depend_on(double future_ready, bool poisoned = false) {
    future_dep_ = std::max(future_dep_, future_ready);
    poisoned_dep_ = poisoned_dep_ || poisoned;
  }

  Future execute();

  struct Arg {
    Store store;
    Priv priv;
    ConstraintKind ckind{ConstraintKind::None};
    int image_src{-1};
    coord_t halo_lo{0}, halo_hi{0};
    int align_root{-1};  // union-find parent (index into args_)
    PartitionRef part;   // explicit partition pin (see set_partition)
  };

 private:
  friend class Runtime;
  friend class TaskContext;
  int add_arg(const Store& s, Priv p);
  int find_root(int a);

  Runtime& rt_;
  std::string name_;
  std::vector<Arg> args_;
  std::function<void(TaskContext&)> leaf_;
  CostFn cost_;
  std::optional<ScalarRedop> redop_;
  bool has_redop_{false};
  int forced_colors_{-1};
  double future_dep_{0};
  bool poisoned_dep_{false};
  std::string provenance_;
};

/// Data-integrity policy for silent-corruption protection (checksummed
/// stores + ABFT solver checks). See DESIGN.md "Data integrity & ABFT".
enum class Integrity {
  Off,      ///< no checksums; injected flips silently corrupt results
  Detect,   ///< verify-on-read; corruption poisons the store (solvers abort
            ///< or roll back but never return silently-wrong values)
  Recover,  ///< detect + repair: single-bit CRC correction in place, ABFT
            ///< retry of corrupted SpMVs, rollback for anything else
};

/// Task & kernel fusion policy (src/fuse). See DESIGN.md "Task & kernel
/// fusion".
enum class Fusion {
  Unset,  ///< read LSR_FUSE (`off|on`), defaulting to Off
  Off,
  On,
};

/// Parse `off|0|on|1` (`auto`, an older spelling, also means On; anything
/// else = Unset → default).
[[nodiscard]] Fusion parse_fusion_mode(const char* s);
[[nodiscard]] const char* fusion_mode_name(Fusion f);

/// Behaviour toggles, used by the ablation benchmarks.
struct RuntimeOptions {
  bool coalescing = true;       ///< Section 4.2 allocation coalescing
  bool partition_reuse = true;  ///< Section 4.1 key-partition reuse
  bool model_reshape = true;    ///< Section 3 local-reshape penalty
  double task_overhead = -1;    ///< control-lane seconds/launch; <0 = default
  /// Core fraction for CPU leaf tasks (Legate reserves runtime cores).
  double cpu_core_fraction = -1;  ///< <0 = params default
  /// When an allocation would exceed capacity, evict LRU clean allocations
  /// (spilling dirty ones to system memory) before surfacing the OOM.
  bool spill_on_oom = true;
  /// Deterministic fault schedule; disabled by default (zero overhead and
  /// bit-identical makespans to a fault-free build when off).
  sim::FaultConfig faults;
  /// Real executor threads for leaf tasks (legate::exec). 0 reads the
  /// LSR_EXEC_THREADS environment variable (default 1). 1 = leaves run
  /// inline on the issuing thread; >1 runs the point tasks of each launch on
  /// a work-stealing pool. Every launch is accounted at issue either way, so
  /// results, simulated makespans and stats are bit-identical at any thread
  /// count.
  int exec_threads = 0;
  /// Cross-launch pipelining (on unless 0): execute() returns before the
  /// launch's leaves finish, and the next fence waits for them. Only active
  /// with exec_threads > 1, fault injection off and integrity off (their
  /// checks must observe each launch's leaves in order).
  int exec_pipeline = 1;
  /// Checksummed-store policy. Off by default (zero per-launch overhead).
  /// Detect/Recover maintain per-chunk CRC32C over every canonical store,
  /// verified on read and refreshed on write-back/copy/shuffle/checkpoint;
  /// like fault injection, a non-Off policy disables pipelining (verification
  /// must observe each launch's real bytes before and after its leaves).
  Integrity integrity = Integrity::Off;
  /// Row-split strategy for distributed sparse kernels (see PartitionStrategy
  /// in rt/partition.h). Unset reads the LSR_PARTITION environment variable
  /// (`rows|nnz|auto`), defaulting to Rows. Individual matrices can override
  /// via CsrMatrix::set_partition_strategy.
  PartitionStrategy partition = PartitionStrategy::Unset;
  /// Task & kernel fusion over a window of issued launches (src/fuse).
  /// Unset reads the LSR_FUSE environment variable (`off|on`),
  /// defaulting to Off. Fault injection disables fusion (like pipelining,
  /// its retry/poison bookkeeping must observe each launch individually);
  /// everything else — pipelining, partition pins, integrity, checkpoints —
  /// composes.
  Fusion fusion = Fusion::Unset;
  /// Always-on flight recorder + hang watchdog + post-mortem dumps
  /// (src/diag). Unset reads the LSR_DIAG environment variable
  /// (`off|on|abort-on-hang`), defaulting to Off. Recording never perturbs
  /// issue ordering or simulated time: results and every Stable metric are
  /// bit-identical with diag on or off, at any exec thread count.
  diag::Mode diag = diag::Mode::Unset;
  /// Recorder/watchdog tuning (ring capacity, stall deadline, divergence
  /// window, dump directory). Defaults come from the LSR_DIAG_* environment
  /// variables; tests override fields directly.
  diag::Options diag_opts = diag::Options::from_env();
  /// Communication planner (src/comm): cached halo-exchange plans with
  /// per-link message coalescing (`plan`) and interior/boundary kernel
  /// splitting so compute overlaps the exchange (`overlap`). Unset reads the
  /// LSR_COMM environment variable (`off|plan|overlap`), defaulting to Off.
  /// Results are bit-identical across modes and exec thread counts; only the
  /// simulated copy schedule changes. Every mode stages launches through the
  /// planner's Pass B: `off` is its uncached ablation with one message per
  /// ghost (the Fig. 5 baseline). The planner composes with fault injection
  /// and with the coalescing=false ablation.
  comm::Mode comm = comm::Mode::Unset;
};

/// The Legion-model runtime: dynamic dependence analysis over the task
/// stream, constraint solving, mapping, allocation management with
/// coalescing, and discrete-event time accounting, all at issue. Leaf tasks
/// execute for real on canonical host buffers; wall-clock time is simulated,
/// but with exec_threads > 1 the leaf bodies additionally run in parallel on
/// a real thread pool (src/exec) without changing a single simulated or
/// computed bit.
class Runtime {
 public:
  explicit Runtime(const sim::Machine& machine, RuntimeOptions opts = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// New store of `dtype` and `shape` (1 or 2 dims). Its bytes are zero
  /// unless `first_write` is FirstWrite::Full and integrity is off.
  Store create_store(DType dtype, std::vector<coord_t> shape,
                     FirstWrite first_write = FirstWrite::Partial);

  /// Create a 1-D store initialized from host data (lives in the home
  /// system memory, like a NumPy array handed to Legate).
  template <typename T>
  Store attach(const std::vector<T>& data) {
    Store s = create_store(dtype_of<T>::value, {static_cast<coord_t>(data.size())},
                           FirstWrite::Full);
    auto dst = s.span<T>();
    std::copy(data.begin(), data.end(), dst.begin());
    mark_attached(s);
    return s;
  }

  /// Engine access observes real and simulated state: fences first.
  [[nodiscard]] sim::Engine& engine() {
    fence();
    return *engine_;
  }
  [[nodiscard]] const sim::Machine& machine() const { return machine_; }

  // -- metrics ---------------------------------------------------------------
  /// Always-on metrics registry (lives on this runtime's engine, so separate
  /// Runtimes never share counters). Unlike engine(), this does NOT fence:
  /// every launch is accounted at issue, so the values are current while its
  /// leaves still run.
  [[nodiscard]] metrics::Registry& metrics() { return engine_->metrics(); }
  /// Fence and take a consistent snapshot of every metric.
  /// Stable-tagged values in the result are bit-identical at any exec thread
  /// count (see src/metrics/metrics.h). Records an instant marker on the
  /// profiler timeline when tracing is enabled.
  [[nodiscard]] metrics::Snapshot metrics_snapshot();

  // -- diagnostics -----------------------------------------------------------
  /// The engine's always-on flight recorder (lsr_diag). Like metrics(), this
  /// does NOT fence: recording and watchdog state are safe mid-pipeline.
  [[nodiscard]] diag::FlightRecorder& flight() { return engine_->flight(); }
  /// Fence and write a post-mortem diagnostic dump (the
  /// `--dump-on-exit` bench hook). Returns the dump path, "" on failure.
  std::string diag_dump(const std::string& reason);

  // -- execution backend -----------------------------------------------------
  /// Issue the open fusion window, then wait for every outstanding leaf
  /// node and rethrow the first leaf error, in issue order. Simulated
  /// accounting never waits here: each launch was accounted at issue. Runs
  /// automatically wherever the control path observes real data or a
  /// complete stream: Store::raw()/span(), scalar futures,
  /// checkpoint/restore/shuffle, sim_time(), engine(), stats accessors.
  void fence();
  [[nodiscard]] int exec_threads() const { return exec_threads_; }
  /// Whether execute() returns before the launch's leaves finish.
  [[nodiscard]] bool pipelining() const { return pipeline_; }
  /// Launches whose leaves no fence has waited for yet, plus the open
  /// fusion window (test/diagnostic hook).
  [[nodiscard]] std::size_t pending_launches() const {
    return outstanding_.size() + fuse_window_.size();
  }
  /// Image memo entries, one per (source, kind, write sequence) (test hook).
  /// A store's entries are erased when it is released, so the count tracks
  /// live sources only.
  [[nodiscard]] std::size_t image_cache_entries() const { return images_.size(); }
  /// The pool recycling this runtime's canonical host buffers (test hook).
  [[nodiscard]] detail::HostBufferPool& host_buffers() { return *host_buffers_; }

  // -- fusion ----------------------------------------------------------------
  /// Whether the fusion pass is active (mode on and fault injection
  /// off). Resolved once in the constructor.
  [[nodiscard]] bool fusion_enabled() const { return fusion_on_; }
  /// Resolved fusion mode (never Unset).
  [[nodiscard]] Fusion fusion_mode() const { return fusion_mode_; }
  /// Launches currently buffered in the open fusion window (test hook).
  [[nodiscard]] std::size_t fuse_window_size() const { return fuse_window_.size(); }
  /// Task launches actually applied (after fusion): the
  /// lsr_rt_launches_total counter. A fence point.
  [[nodiscard]] long launches_applied() { return fenced(met_.launches); }
  /// Original launches folded into fused launches / launches eliminated by
  /// fusion so far: the lsr_fuse_launches_{fused,eliminated}_total counters.
  /// Fence points.
  [[nodiscard]] long fused_participants() { return fenced(met_.fuse_fused); }
  [[nodiscard]] long fused_eliminated() { return fenced(met_.fuse_eliminated); }

  // -- communication planner (src/comm) --------------------------------------
  /// Whether the comm planner caches and coalesces (mode plan/overlap).
  [[nodiscard]] bool comm_enabled() const { return comm_mode_ != comm::Mode::Off; }
  /// Resolved comm mode (never Unset).
  [[nodiscard]] comm::Mode comm_mode() const { return comm_mode_; }
  /// Exchange-plan cache hits/misses/invalidations: the lsr_comm_plan_*
  /// counters. A fence point.
  [[nodiscard]] comm::PlanStats comm_plan_stats() {
    return {fenced(met_.comm_plan_hits), fenced(met_.comm_plan_misses),
            fenced(met_.comm_plan_invalidations)};
  }

  // -- profiling -------------------------------------------------------------
  /// Nested provenance scopes label every event recorded while active
  /// (solver name, algorithm phase) — Legate's provenance strings. Use the
  /// RAII ProvenanceScope below rather than calling these directly.
  void push_provenance(std::string p) { provenance_.push_back(std::move(p)); }
  void pop_provenance() {
    if (!provenance_.empty()) provenance_.pop_back();
  }
  [[nodiscard]] const std::string& current_provenance() const {
    static const std::string empty;
    return provenance_.empty() ? empty : provenance_.back();
  }

  [[nodiscard]] const RuntimeOptions& options() const { return opts_; }
  [[nodiscard]] int default_colors() const { return machine_.num_procs(); }
  /// Resolved runtime-wide partitioning strategy (never Unset: the
  /// constructor folds in LSR_PARTITION and the Rows default).
  [[nodiscard]] PartitionStrategy partition_strategy() const {
    return partition_strategy_;
  }
  [[nodiscard]] double sim_time() {
    fence();
    return engine_->makespan();
  }

  /// Key partition currently tracked for a store (may be null). Keys are
  /// equal splits of the store's basis; the result has the key's content,
  /// not its identity.
  [[nodiscard]] PartitionRef key_partition(const Store& s);

  /// Number of partitions materialized so far (ablation metric): the
  /// lsr_rt_partitions_created_total counter. A fence point.
  [[nodiscard]] long partitions_created() { return fenced(met_.partitions_created); }

  // -- fault tolerance ------------------------------------------------------
  /// Whether `s` holds data the modeled machine lost (retry exhaustion or a
  /// node loss whose memories owned the latest version). Cleared when the
  /// store is fully overwritten by a healthy launch or restored. Poison is
  /// decided by the simulated accounting, which runs at issue, so this never
  /// needs to fence.
  [[nodiscard]] bool store_poisoned(const Store& s) const {
    return poisoned_stores_.count(s.id()) > 0;
  }
  /// True once after a scheduled node loss fired; solvers poll this to
  /// trigger checkpoint recovery.
  [[nodiscard]] bool consume_node_loss() {
    bool v = node_loss_pending_;
    node_loss_pending_ = false;
    return v;
  }
  [[nodiscard]] const sim::FaultInjector* fault_injector() const {
    return injector_.get();
  }

  // -- data integrity -------------------------------------------------------
  /// Active checksummed-store policy.
  [[nodiscard]] Integrity integrity() const { return opts_.integrity; }
  /// Verify every tracked store against its ledger checksums (a full scrub),
  /// detecting — and under Recover, repairing — any resident corruption the
  /// normal verify-on-read path has not reached yet. A fence point. Tests
  /// and benches call this at end-of-run so `flips_detected` accounts for
  /// every injected flip still live in a store.
  void integrity_scrub();

  /// Snapshot the canonical contents of `stores` (plus caller-attached
  /// scalars) and charge the simulated checkpoint write. See rt/checkpoint.h.
  /// A fence point: the snapshot observes fully-written real data.
  [[nodiscard]] Checkpoint checkpoint(const std::vector<Store>& stores);
  /// Restore a snapshot: canonical buffers are rewritten, the stores'
  /// version/ownership state is reset to the home memory, poison is cleared,
  /// and the simulated restore read is charged. Returns the completion time.
  /// A fence point.
  double restore(const Checkpoint& ckpt);

  /// All-to-all repartitioning primitive (distributed transpose & friends):
  /// every processor's block of `out` draws on every block of `in`. `body`
  /// performs the real data movement on the canonical buffers; the engine is
  /// charged one copy per (src, dst) processor pair of volume/P² bytes —
  /// the communication pattern the paper cites for the factorization's dense
  /// transposes (Section 6.2). A fence point.
  double shuffle(const Store& in, const Store& out,
                 const std::function<void()>& body);

  // -- internal API (used by TaskLauncher / StoreImpl) --
  Future execute(TaskLauncher& launcher);
  void on_store_destroyed(detail::StoreImpl* impl);
  void mark_attached(const Store& s);
  /// Store::raw()/span() hook: fence, then drop the memoized image content
  /// of `id` (the returned span is mutable, so assume the bytes change).
  void sync_store_access(StoreId id);

 private:
  struct SyncState;
  struct Alloc;
  struct MemState;

  void register_metrics();  ///< constructor only
  /// Image accounting: identity of the dependent partition of `src` under
  /// the partition identity `src_part` at the source's current write count.
  /// A miss charges the dependent-partitioning control time and counts a
  /// created partition; the content itself comes from the solve.
  std::uint64_t image_identity(StoreId src, std::uint64_t src_part, ConstraintKind kind);
  /// The one external write (attach, restore): `s` takes a fresh version,
  /// valid from `t` in `home`, an allocation in the home memory.
  void write_external(const Store& s, double t, Alloc& home);
  /// Ensure `store` has an instance covering `elem` in memory `mem`; returns
  /// the simulated time at which the data it already holds there is valid.
  /// Staleness copies into it are Pass B's (comm_pass_b).
  double ensure_in_memory(const detail::StoreView& store, Interval elem, int mem);
  /// First allocation of `id` in `mem` containing `elem`, or null (no LRU touch).
  [[nodiscard]] Alloc* find_alloc(StoreId id, Interval elem, int mem) const;
  Alloc& find_or_create_alloc(const detail::StoreView& store, Interval elem, int mem);
  SyncState& sync(StoreId id);

  // -- execution backend internals ------------------------------------------
  /// Copy a launcher into a self-contained record (views, leaf, flags).
  std::shared_ptr<detail::LaunchRecord> make_record(TaskLauncher& L);
  /// The launch's constraint solve, the only code that computes partition
  /// content: colors, pin resolution and validation, equal/whole/halo/image
  /// partitions (images read real data, after waiting on pending writers of
  /// the source), per-point intervals, and then each point's cost through
  /// the launch's cost function. Runs at issue. Touches no simulated state.
  void eager_solve(detail::LaunchRecord& R);
  /// Run the launch's leaf bodies for real (inline, or parallel-for on the
  /// pool) and fold Reduce partials in fixed color order.
  void run_leaves(detail::LaunchRecord& R);
  /// Issue one (possibly fused) launch: its stages below, once, in program
  /// order, in every mode. Only the leaves may still be running on return.
  void sim_apply(const std::shared_ptr<detail::LaunchRecord>& R);
  // sim_apply's stages, in order (runtime.cpp; comm_pass_b, Pass B, in
  // runtime_comm.cpp). Each hands a typed result to the next.
  detail::LaunchBoard begin_launch(detail::LaunchRecord& R);
  /// Hand the leaves to the pool (pipelining) or run them inline, with the
  /// integrity hooks that must follow them.
  void start_leaves(const std::shared_ptr<detail::LaunchRecord>& R);
  std::vector<std::uint64_t> account_partitions(const detail::LaunchRecord& R);
  bool pin_launch(const detail::LaunchRecord& R);
  std::vector<double> analyze(const detail::LaunchRecord& R, double t_launch);
  void publish(const detail::LaunchRecord& R, const detail::Mapped& m,
               const std::vector<std::uint64_t>& key_of, bool poisoned);
  double reduce_stores(const detail::LaunchRecord& R, double max_completion,
                       bool poisoned);
  /// Scalar launches fence, then fold the points' partials in color order.
  Future reduce_scalar(const detail::LaunchRecord& R, double ready, bool poisoned);
  /// Charge launch point `c` through charge_point and land it in `m`.
  void charge_color(const detail::LaunchRecord& R, int c, detail::Mapped& m,
                    double gate, double interior, double ghost_bytes);
  /// The one point-kernel charge, shared by Pass B and shuffle's repack:
  /// returns (completion, retries exhausted). See the definition in
  /// runtime.cpp.
  std::pair<double, bool> charge_point(const detail::PointKernel& k,
                                       std::string_view label);
  /// Submit the record's real work as a task-graph node with dependence
  /// edges from the per-store reader/writer hazard state.
  void enqueue_record(const std::shared_ptr<detail::LaunchRecord>& R);
  /// Attach each charged point's measured leaf interval to its task event
  /// (profiling); the leaves must have finished.
  void pair_walls(const detail::LaunchRecord& R);
  /// fence() minus the window flush: wait for every outstanding leaf node,
  /// pair walls, and rethrow the first leaf error in issue order.
  void wait_leaves();
  // -- fusion internals (src/rt/runtime_fuse.cpp) ----------------------------
  /// execute() tail when fusion is active: eager-solve the record, then
  /// append it to the open window, flush the window, or pass it through,
  /// per the legality rules in fuse/fuse.h.
  Future fuse_execute(const std::shared_ptr<detail::LaunchRecord>& R);
  /// Rewrite the buffered window into a single fused launch (≥2 records)
  /// or pass the singleton through, then issue it. Idempotent when empty.
  void flush_fuse_window();
  /// Synthesize the fused record for a legal run: combined argument plan,
  /// chained leaf and costs, max/OR-folded dependences, terminal reduction.
  std::shared_ptr<detail::LaunchRecord> make_fused_record(
      std::vector<std::shared_ptr<detail::LaunchRecord>> children);
  // -- comm-planner internals (src/rt/runtime_comm.cpp) ----------------------
  /// Pass B of sim_apply, the only one (Section 4.2, Fig. 5): create every
  /// instance, derive the launch's ExchangePlan (or, under plan/overlap,
  /// replay a cached one), charge its transfers on the link model, and
  /// charge the kernels through charge_point. Under comm off the plan is
  /// derived every launch and issued as one transfer per ghost, in
  /// derivation order. Its stages follow, in order.
  detail::Mapped comm_pass_b(const detail::LaunchRecord& R,
                             const std::vector<double>& dep_time, double t_launch);
  std::vector<double> comm_instances(const detail::LaunchRecord& R,
                                     const std::vector<int>& point_mem,
                                     const std::vector<double>& dep_time);
  std::uint64_t comm_key(const detail::LaunchRecord& R, const std::vector<int>& keyed) const;
  std::uint64_t comm_signature(const detail::LaunchRecord& R, const std::vector<int>& keyed,
                               const std::vector<int>& point_mem);
  comm::ExchangePlan comm_derive(const detail::LaunchRecord& R, const std::vector<int>& keyed,
                                 const std::vector<int>& point_mem);
  void comm_apply(const detail::LaunchRecord& R, const std::vector<int>& keyed,
                  const comm::ExchangePlan& plan);
  std::vector<double> comm_gate(const detail::LaunchRecord& R, const std::vector<int>& keyed,
                                const std::vector<int>& point_mem,
                                const std::vector<double>& local_ready);
  /// The allocation staging gave `id` in `mem` covering `elem`: find_alloc,
  /// checked (staging pins every argument).
  [[nodiscard]] Alloc& staged_alloc(StoreId id, Interval elem, int mem) const;
  /// Drop cached exchange plans touching `id` (store mutation/destruction/
  /// shuffle/restore) and bump the invalidation counter. Nothing is cached
  /// under comm off.
  void comm_invalidate(StoreId id);

  /// Block until the last pending real writer of `id` finished (eager image
  /// computation reads real bytes mid-pipeline).
  void wait_store_writer(StoreId id);
  /// Drop a dead store's hazard entry and charge its simulated release.
  /// Must not run while an open fusion window still references the id.
  void retire_store(StoreId id, double esize);

  /// alloc_bytes with graceful OOM degradation: on capacity overflow, evict
  /// least-recently-used allocations (spilling dirty data to the node's
  /// system memory with a charged copy) and retry before rethrowing.
  void alloc_with_spill(int mem, double bytes, StoreId requesting);
  /// Evict the LRU evictable allocation in `mem`; returns false if none.
  bool evict_lru(int mem, StoreId requesting);
  /// Drop every allocation in the lost node's memories, poison stores whose
  /// latest data lived only there, and charge the recovery outage.
  void handle_node_loss(int node);
  void poll_faults();
  [[nodiscard]] int sysmem_of_node(int node) const;

  // -- diagnostics internals --------------------------------------------------
  /// Record a Poison flight-recorder event + board update for store `id`;
  /// the first poison per runtime also writes a post-mortem dump (unless
  /// `allow_dump` is false because a more specific dump follows, e.g.
  /// node-loss). Control path only.
  void diag_note_poison(StoreId id, const char* why, bool allow_dump = true);

  // -- data-integrity internals ---------------------------------------------
  /// Apply due scripted and rate-drawn silent bit flips to live canonical
  /// buffers (deterministic: stores visited in id order, draws keyed on a
  /// control-path poll counter). Called from poll_faults().
  void poll_silent_flips();
  /// Flip bit `bit` of the byte at `offset` in store `id` (no-op when the
  /// store is dead or too small) and account the injection.
  void apply_flip(StoreId id, std::uint64_t offset, int bit, double now);
  /// Verify `data` against the ledger; on mismatch account detection,
  /// attempt in-place CRC correction under Recover, and poison the store
  /// when the damage is uncorrectable (or the policy is Detect).
  void integrity_verify(StoreId id, std::byte* data, std::size_t nbytes);
  /// Refresh the ledger over [lo, hi) after a write-back; flips overwritten
  /// before detection are retired as dead.
  void integrity_record(StoreId id, const std::byte* data, std::size_t nbytes,
                        std::size_t lo, std::size_t hi);
  /// Post-leaf hook for one launch: apply any in-flight output flip to the
  /// written arguments, then checksum them.
  void integrity_after_leaves(detail::LaunchRecord& R);
  [[nodiscard]] detail::StoreImpl* find_live_store(StoreId id) const;

  sim::Machine machine_;
  std::unique_ptr<sim::Engine> engine_;
  RuntimeOptions opts_;
  double task_overhead_;
  double cpu_fraction_;
  PartitionStrategy partition_strategy_{PartitionStrategy::Rows};
  bool diag_poison_dumped_{false};  ///< first-poison dump fired

  StoreId next_store_id_{1};
  std::unordered_set<detail::StoreImpl*> live_stores_;
  /// Recycles canonical host buffers; shared so buffer deleters can hold it
  /// weakly (rt/host_buffer.h). Closed in ~Runtime.
  std::shared_ptr<detail::HostBufferPool> host_buffers_;
  std::unordered_map<StoreId, std::unique_ptr<SyncState>> sync_;
  std::vector<std::unique_ptr<MemState>> mem_state_;  // per memory

  /// The image memo (DESIGN.md §4), erased when the source is released. The
  /// solve and the accounting name the source partition by different uids,
  /// so content and accounted identities are keyed apart.
  struct ImageKey {
    StoreId src;
    ConstraintKind kind;
    std::uint64_t seq;  ///< the source's write count (SyncState::version_counter)
    auto operator<=>(const ImageKey&) const = default;
  };
  struct ImageMemo {
    std::map<std::uint64_t, PartitionRef> content;     ///< solve uid -> image
    std::map<std::uint64_t, std::uint64_t> accounted;  ///< accounted uid -> identity
  };
  std::map<ImageKey, ImageMemo> images_;
  /// The memo entries sourced from `id` (keys sort by source first).
  [[nodiscard]] auto image_range(StoreId id) {
    return std::ranges::subrange(images_.lower_bound({id, ConstraintKind::None, 0}),
                                 images_.lower_bound({id + 1, ConstraintKind::None, 0}));
  }

  // -- execution backend state ----------------------------------------------
  std::unique_ptr<exec::Pool> pool_;  ///< null when exec_threads == 1
  int exec_threads_{1};
  bool pipeline_{false};
  /// Pipelined launches whose leaves no fence has waited for, in issue order.
  std::vector<std::shared_ptr<detail::LaunchRecord>> outstanding_;
  /// Whole-store real-data hazard tracking for the node graph.
  struct Hazard {
    exec::NodeRef writer;                ///< last pending writer node
    std::vector<exec::NodeRef> readers;  ///< readers since that writer
  };
  std::unordered_map<StoreId, Hazard> hazards_;
  std::map<std::pair<coord_t, int>, PartitionRef> eager_equal_;  ///< (basis, colors)
  std::map<std::pair<coord_t, int>, PartitionRef> eager_whole_;  ///< broadcast/reduce

  // -- fusion state (src/rt/runtime_fuse.cpp) --------------------------------
  Fusion fusion_mode_{Fusion::Off};
  bool fusion_on_{false};
  bool fuse_flushing_{false};  ///< inside flush_fuse_window(); re-entry is a no-op
  /// Open fusion window: consecutive eager-solved fusable launches awaiting
  /// rewrite. Flushed by fences, ineligible launches, legality breaks,
  /// terminal scalar reductions, and a size backstop.
  std::vector<std::shared_ptr<detail::LaunchRecord>> fuse_window_;
  /// Window-compatibility state mirroring fuse_window_ (see fuse/fuse.h).
  std::unique_ptr<fuse::WindowTracker> fuse_tracker_;
  /// Stores destroyed while a window was open: their release accounting
  /// waits until the window (which may still read their views) is issued.
  std::vector<std::pair<StoreId, double>> fuse_pending_release_;

  // -- comm-planner state (src/rt/runtime_comm.cpp) --------------------------
  comm::Mode comm_mode_{comm::Mode::Off};
  comm::PlanCache comm_cache_;

  // -- fault-tolerance state -------------------------------------------------
  std::unique_ptr<sim::FaultInjector> injector_;
  long task_seq_{0};   ///< deterministic point-task sequence number
  double use_tick_{0};  ///< logical clock stamping allocation touches (LRU)
  std::unordered_set<StoreId> poisoned_stores_;
  /// Stores staged for the in-flight launch; never spill victims.
  std::unordered_set<StoreId> pinned_;
  bool node_loss_pending_{false};
  bool spilling_{false};  ///< guards against recursive spill

  // -- data-integrity state --------------------------------------------------
  integrity::ChecksumLedger ledger_;
  /// One injected-but-undetected resident flip (byte offset + simulated
  /// injection time, for the detection-latency metric).
  struct LiveFlip {
    std::uint64_t offset{0};
    double time{0};
  };
  std::map<StoreId, std::vector<LiveFlip>> outstanding_flips_;
  long flip_poll_seq_{0};    ///< control-path poll counter keying flip draws
  double last_flip_poll_{0};  ///< simulated time of the previous flip poll
  long output_seq_{0};  ///< written-arg counter keying in-flight flip draws
  std::vector<std::string> provenance_;  ///< profiler provenance scope stack

  /// Fence, then read a counter: the fenced count accessors above.
  long fenced(const metrics::Counter& c) {
    fence();
    return static_cast<long>(c.value());
  }

  /// Runtime-layer metric handles (registered once in the constructor). All
  /// Stable handles are bumped exclusively on the control thread, at issue,
  /// in program order — the determinism contract of the registry.
  struct Met {
    metrics::Counter launches;
    metrics::Counter part_reuse_hits, part_reuse_misses;
    metrics::Counter image_hits, image_misses;
    metrics::Counter alloc_existing, alloc_fresh, alloc_pool_reuse,
        alloc_coalesced;
    metrics::Counter partitions_created;
    metrics::Counter checkpoint_bytes, restore_bytes;
    metrics::Counter fences;  ///< Volatile: wait count depends on pipelining
    /// Injected flips retired by a full overwrite before any read could
    /// observe them (dead data; not a detection failure).
    metrics::Counter flips_overwritten;
    /// Launch-domain strategy accounting: launches solved over equal row
    /// splits vs explicit nnz-balanced pins, plus per-launch work-spread
    /// gauges (max/mean leaf-recorded work over non-empty points, and the
    /// imbalance percentage 100*(max/mean - 1)), from the launch's cost
    /// function. All bumped at issue, so they are Stable.
    metrics::Counter part_strategy_rows, part_strategy_nnz;
    metrics::Gauge part_imbalance_pct, part_max_work, part_mean_work;
    /// Fusion-pass accounting (src/fuse): windows analyzed, original
    /// launches folded into fused launches, launches eliminated, and
    /// intermediate store round-trip bytes the fused chains no longer pay.
    /// Bumped only in flush_fuse_window() on the control thread → Stable.
    metrics::Counter fuse_windows, fuse_fused, fuse_eliminated,
        fuse_bytes_saved;
    /// Communication-planner accounting (src/comm): exchange-plan cache
    /// hits/misses/invalidations, transfers issued, ghosts folded into
    /// another ghost's transfer, bytes moved by link class, and
    /// kernels split into interior/boundary phases under Overlap. All bumped
    /// at issue → Stable.
    metrics::Counter comm_plan_hits, comm_plan_misses, comm_plan_invalidations;
    metrics::Counter comm_messages, comm_messages_saved;
    metrics::Counter comm_bytes, comm_bytes_intra, comm_bytes_nvlink,
        comm_bytes_ib;
    metrics::Counter comm_overlap_splits;
  } met_;
};

/// RAII provenance scope: every task launched while alive is labeled
/// `name @scope` on the profiler timeline.
class ProvenanceScope {
 public:
  ProvenanceScope(Runtime& rt, std::string p) : rt_(rt) {
    rt_.push_provenance(std::move(p));
  }
  ~ProvenanceScope() { rt_.pop_provenance(); }
  ProvenanceScope(const ProvenanceScope&) = delete;
  ProvenanceScope& operator=(const ProvenanceScope&) = delete;

 private:
  Runtime& rt_;
};

}  // namespace legate::rt

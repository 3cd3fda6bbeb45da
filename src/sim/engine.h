#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "diag/diag.h"
#include "metrics/metrics.h"
#include "prof/prof.h"
#include "sim/machine.h"
#include "util/common.h"

namespace legate::sim {

/// Roofline work descriptor for one leaf task / kernel invocation.
struct Cost {
  double bytes{0};       ///< bytes moved through the memory system
  double flops{0};       ///< floating point operations
  double efficiency{1};  ///< multiplier < 1 slows the kernel down
};

/// Traffic & activity counts, reported with every benchmark run. A view:
/// Engine::stats() reads each field from its lsr_sim_* / lsr_integrity_*
/// registry counter, the only place the count lives.
struct Stats {
  double bytes_intra{0};   ///< intra-memory copies (allocation resizing)
  double bytes_nvlink{0};  ///< intra-node inter-memory traffic
  double bytes_ib{0};      ///< inter-node traffic
  double bytes_ckpt{0};    ///< checkpoint/restore traffic to the modeled PFS
  long copies{0};
  long tasks{0};
  long allreduces{0};
  // Resilience counters (all zero unless fault injection / recovery fires).
  long faults_injected{0};  ///< transient task faults + node losses injected
  long retries{0};          ///< point-task re-executions after a fault
  long spills{0};           ///< allocations evicted/spilled under OOM pressure
  long checkpoints{0};      ///< Runtime::checkpoint() snapshots taken
  long restores{0};         ///< Runtime::restore() rollbacks performed
  // Data-integrity counters (zero unless silent-corruption injection fires).
  long flips_injected{0};   ///< silent bit flips applied to store bytes
  long flips_detected{0};   ///< flips caught by checksum verification
  long flips_recovered{0};  ///< flips repaired bit-exactly in place
};

/// Discrete engine and runtime events, reported through Engine::emit. One
/// table in Engine::emit wires each kind to its sinks: the registry counter
/// that holds its count (if any), its prof marker category (if any) and its
/// flight-recorder event kind (if any).
enum class Ev : std::uint8_t {
  Task,           ///< a point task was charged (count only)
  Fault,          ///< a transient point-task fault was injected
  NodeLoss,       ///< a whole node was lost (a = node); counts as a fault
  Retry,          ///< a point-task re-execution was scheduled
  Spill,          ///< an allocation was spilled under OOM pressure
  Snapshot,       ///< a metrics snapshot was taken (marker only)
  FlipInjected,   ///< a silent bit flip was applied
  FlipDetected,   ///< a flip was caught (v = injection-to-detection seconds)
  FlipRecovered,  ///< a flip was repaired bit-exactly
  Fused,          ///< a window became one fused launch (a = k, b = k - 1)
  Comm,           ///< an exchange plan or shuffle was applied
                  ///< (a = transfers, b = 1 plan hit / 0 miss, v = bytes)
};

/// Why a copy moves bytes. Engine::copy charges each copy's scaled bytes to
/// its cause's Stable counter, lsr_sim_copy_<cause>_bytes_total, as well as
/// to its link class: the cause counters sum exactly to intra + nvlink + ib.
enum class Copy : std::uint8_t {
  Ghost,    ///< a stale piece pulled into a launch's instance (Pass B)
  Resize,   ///< valid contents migrated into a coalesced allocation
  Spill,    ///< a sole copy evicted to system memory under OOM pressure
  Shuffle,  ///< an all-to-all block of Runtime::shuffle
  Mpi,      ///< a message of the MPI-style baseline (baselines/mpisim)
};

/// Turns a roofline Cost into seconds on a given processor kind.
/// Callers select the core fraction (Legate reserves runtime cores; SciPy is
/// single-threaded) so the same model serves the runtime and all baselines.
class CostModel {
 public:
  explicit CostModel(const PerfParams& pp) : pp_(pp) {}

  [[nodiscard]] double kernel_seconds(ProcKind kind, const Cost& c,
                                      double core_fraction = 1.0) const {
    double bw = 0, fl = 0;
    switch (kind) {
      case ProcKind::CPU:
        bw = pp_.cpu_mem_bw * core_fraction;
        fl = pp_.cpu_flops * core_fraction;
        break;
      case ProcKind::GPU:
        bw = pp_.gpu_mem_bw;
        fl = pp_.gpu_flops;
        break;
    }
    // A non-positive efficiency is always a misconfigured kernel descriptor
    // (the multiplier divides the roofline time); failing loudly here beats
    // silently charging full-speed time for a kernel someone meant to derate.
    LSR_CHECK_MSG(c.efficiency > 0, "kernel cost has non-positive efficiency");
    double t = std::max(c.bytes / bw, c.flops / fl);
    return t / c.efficiency;
  }

 private:
  PerfParams pp_;
};

/// Discrete-event accounting for one program run.
///
/// The runtime executes leaf tasks for real and, in parallel, asks the engine
/// when each task/copy/collective would complete on the modeled machine.
/// Because the task stream is processed in order and every dependence is
/// already resolved to a completion time, no event queue is needed: each
/// resource (processor, copy link, NIC, control lane) is a monotone clock.
class Engine {
 public:
  explicit Engine(const Machine& machine);

  /// Occupy the sequential launch path (Python / library op dispatch) for
  /// `overhead` seconds; returns the time the launch is finished. `label`
  /// names the dispatched operation on the recorded timeline.
  double control_advance(double overhead, std::string_view label = {});

  /// Occupy processor `proc` starting no earlier than `ready` for `duration`
  /// seconds; returns completion time. `label` names the task on the
  /// recorded timeline (ignored unless profiling is enabled).
  double busy_proc(int proc, double ready, double duration,
                   std::string_view label = {});

  /// Timeline only: processor `proc` waits from `from` to `to` for a failed
  /// point's detection and retry backoff. Occupies no clock, so simulated
  /// times are unchanged; the interval lets the critical path attribute the
  /// gap instead of reading it as wait.
  void note_recovery(int proc, double from, double to, std::string_view label = {});

  /// Model a copy of `bytes` from memory `src` to memory `dst` whose source
  /// data is available at `ready`; returns completion time. `src == dst`
  /// models intra-memory movement (allocation resizing / reshape). `cause`
  /// selects the byte counter the copy is charged to besides its link's.
  double copy(Copy cause, int src, int dst, double bytes, double ready);

  /// Model an all-reduce across `nprocs` processors whose inputs are ready at
  /// `ready`. Legate-style carries a linear per-processor term (the Legion
  /// issue exposed in Fig. 9); MPI-style is a clean log tree.
  double allreduce(int nprocs, double ready, bool legate_style);

  /// All-reduce carrying `bytes` of payload per processor (dense partial
  /// sums). Adds a ring term 2·b·(p−1)/p over the bottleneck link.
  double allreduce_bytes(int nprocs, double bytes, double ready, bool legate_style);

  /// Capacity accounting: reserve / release application bytes in a memory.
  /// Throws OutOfMemoryError when a memory would exceed capacity.
  void alloc_bytes(int mem, double bytes);
  void free_bytes(int mem, double bytes);
  [[nodiscard]] double used_bytes(int mem) const { return mem_used_.at(mem); }
  [[nodiscard]] double peak_bytes(int mem) const { return mem_peak_.at(mem); }
  [[nodiscard]] double capacity(int mem) const { return machine_.memory(mem).capacity; }
  /// Bytes still allocatable (cost_scale applied symmetrically by callers).
  [[nodiscard]] double free_capacity(int mem) const {
    return machine_.memory(mem).capacity - mem_used_.at(mem);
  }

  /// Global outage: every clock (control, processors, copy engines) stalls
  /// for `seconds` starting no earlier than `at`. Models whole-machine
  /// hiccups such as node-loss detection + replacement admission.
  double stall_all(double at, double seconds);

  /// Model a checkpoint write (or restore read) of `bytes` to the parallel
  /// file system; one shared PFS channel serializes checkpoint traffic.
  /// Bumps the matching resilience counter and returns the completion time.
  double checkpoint_io(double bytes, double ready, bool restore);

  /// Extend the makespan to at least `t` (failure-detection tails that
  /// occupy no resource clock).
  void bump_to(double t) { bump(t); }

  /// Report one discrete event to every sink its kind is wired to. With
  /// profiling and diag off this only bumps the kind's counter (and, for a
  /// detected flip, the latency histogram): no string is built and nothing
  /// is allocated. `label` names the flight-recorder event (default: the
  /// kind's own label).
  void emit(Ev kind, std::string_view label = {}, std::int64_t a = 0,
            std::int64_t b = 0, double v = 0);

  /// Workload scale factor S: benchmarks execute a 1/S functional sample of
  /// the modeled problem and charge S x the bytes/flops/capacity, which is
  /// exact whenever every cost scales linearly with rows/nnz (true for all
  /// paper workloads; see DESIGN.md). Affects copies, payload collectives
  /// and capacity accounting; kernel durations are scaled by the callers.
  void set_cost_scale(double s) { cost_scale_ = s; }
  [[nodiscard]] double cost_scale() const { return cost_scale_; }
  [[nodiscard]] double makespan() const { return makespan_; }
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Machine& machine() const { return machine_; }
  [[nodiscard]] const CostModel& cost_model() const { return cost_model_; }

  /// Always-on aggregate metrics (legate::metrics). One registry per engine,
  /// so concurrent Runtimes (e.g. a bench's sequential reference run) never
  /// pollute each other's counts. Engine paths record simulated traffic and
  /// stall metrics here; the runtime and solvers register their own on top.
  [[nodiscard]] metrics::Registry& metrics() { return metrics_; }
  [[nodiscard]] const metrics::Registry& metrics() const { return metrics_; }

  /// Timeline recorder (legate::prof). Disabled by default: every engine
  /// path checks `recorder().enabled()` before building labels or events,
  /// so simulated times and stats are bit-identical with recording off.
  [[nodiscard]] prof::Recorder& recorder() { return recorder_; }
  [[nodiscard]] const prof::Recorder& recorder() const { return recorder_; }
  [[nodiscard]] bool profiling() const { return recorder_.enabled(); }

  /// Always-on flight recorder + watchdog (legate::diag). Configured from
  /// LSR_DIAG at construction; rt::Runtime reconfigures from
  /// RuntimeOptions::diag. Recording charges no simulated time and bumps no
  /// engine stats, so simulated results are bit-identical with diag on/off.
  [[nodiscard]] diag::FlightRecorder& flight() { return diag_; }
  [[nodiscard]] const diag::FlightRecorder& flight() const { return diag_; }

  /// Rewind the engine for reuse across benchmark repetitions: clears every
  /// resource clock, the makespan, every metric (and so every Stats count),
  /// and the recorded timeline. Capacity accounting survives (allocations owned by a live
  /// Runtime stay reserved); peaks restart from current usage.
  void reset();

  [[nodiscard]] std::string report() const;

 private:
  double& pair_link(int src_mem, int dst_mem);
  void bump(double t) { makespan_ = std::max(makespan_, t); }
  // Track interning for the recorder (profiling-enabled paths only).
  int proc_track(int proc);
  int control_track();
  int io_track();
  int collective_track();

  const Machine& machine_;
  CostModel cost_model_;
  PerfParams pp_;

  double control_clock_{0};
  double io_clock_{0};  ///< shared checkpoint/restore PFS channel
  std::vector<double> proc_clock_;
  std::vector<double> mem_copy_clock_;  ///< per-memory intra-copy engine
  std::vector<double> nic_in_, nic_out_;
  std::map<std::pair<int, int>, double> pair_links_;

  std::vector<double> mem_used_, mem_peak_;
  double makespan_{0};
  double cost_scale_{1.0};
  prof::Recorder recorder_;

  metrics::Registry metrics_;
  diag::FlightRecorder diag_;
  /// Pre-registered handles for the engine's own metrics (registered once in
  /// the constructor; increments are lock-free).
  struct Met {
    metrics::Counter tasks, copies, allreduces;
    metrics::Counter bytes_intra, bytes_nvlink, bytes_ib, bytes_ckpt;
    metrics::Counter faults, retries, spills, checkpoints, restores;
    metrics::Counter flips_injected, flips_detected, flips_recovered;
    metrics::Counter copy_cause[static_cast<std::size_t>(Copy::Mpi) + 1];
    metrics::Histogram copy_intra, copy_nvlink, copy_ib;
    metrics::Histogram stall_seconds, ckpt_bytes, flip_latency;
  } met_;
};

}  // namespace legate::sim

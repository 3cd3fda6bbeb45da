#include "sim/engine.h"

#include <cmath>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <sstream>

namespace legate::sim {

Engine::Engine(const Machine& machine)
    : machine_(machine), cost_model_(machine.params()), pp_(machine.params()) {
  proc_clock_.assign(machine.num_procs(), 0.0);
  const auto n_mems = machine.memories().size();
  mem_copy_clock_.assign(n_mems, 0.0);
  mem_used_.assign(n_mems, 0.0);
  mem_peak_.assign(n_mems, 0.0);
  nic_in_.assign(machine.nodes(), 0.0);
  nic_out_.assign(machine.nodes(), 0.0);

  using metrics::Registry;
  auto bytes = Registry::byte_buckets();
  met_.tasks = metrics_.counter("lsr_sim_tasks_total", "leaf point tasks executed");
  met_.copies = metrics_.counter("lsr_sim_copies_total", "copies issued");
  met_.allreduces =
      metrics_.counter("lsr_sim_allreduces_total", "collectives issued");
  met_.bytes_intra = metrics_.counter("lsr_sim_traffic_intra_bytes_total",
                                      "intra-memory bytes moved (scaled)");
  met_.bytes_nvlink = metrics_.counter("lsr_sim_traffic_nvlink_bytes_total",
                                       "intra-node inter-memory bytes (scaled)");
  met_.bytes_ib = metrics_.counter("lsr_sim_traffic_ib_bytes_total",
                                   "inter-node bytes (scaled)");
  met_.bytes_ckpt = metrics_.counter("lsr_sim_traffic_ckpt_bytes_total",
                                     "checkpoint/restore PFS bytes (scaled)");
  met_.faults = metrics_.counter("lsr_sim_faults_total", "faults injected");
  met_.retries = metrics_.counter("lsr_sim_retries_total",
                                  "point-task re-executions after faults");
  met_.spills =
      metrics_.counter("lsr_sim_spills_total", "allocations spilled under OOM");
  met_.checkpoints =
      metrics_.counter("lsr_sim_checkpoints_total", "checkpoint snapshots");
  met_.restores =
      metrics_.counter("lsr_sim_restores_total", "restore rollbacks");
  met_.flips_injected = metrics_.counter("lsr_integrity_flips_injected_total",
                                         "silent bit flips injected");
  met_.flips_detected = metrics_.counter(
      "lsr_integrity_flips_detected_total",
      "injected flips caught by checksum verification");
  met_.flips_recovered = metrics_.counter(
      "lsr_integrity_flips_recovered_total",
      "injected flips repaired bit-exactly in place");
  // One byte counter per copy cause, in Copy declaration order.
  static constexpr const char* kCopyCauses[] = {"ghost", "resize", "spill", "shuffle",
                                                "mpi"};
  static_assert(std::size(kCopyCauses) == static_cast<std::size_t>(Copy::Mpi) + 1);
  for (std::size_t i = 0; i < std::size(kCopyCauses); ++i) {
    met_.copy_cause[i] = metrics_.counter(
        std::string("lsr_sim_copy_") + kCopyCauses[i] + "_bytes_total",
        std::string("bytes moved by ") + kCopyCauses[i] + " copies (scaled)");
  }
  met_.copy_intra = metrics_.histogram("lsr_sim_copy_bytes_intra",
                                       "per-copy intra-memory bytes", bytes);
  met_.copy_nvlink = metrics_.histogram("lsr_sim_copy_bytes_nvlink",
                                        "per-copy NVLink-class bytes", bytes);
  met_.copy_ib = metrics_.histogram("lsr_sim_copy_bytes_ib",
                                    "per-copy inter-node bytes", bytes);
  met_.stall_seconds =
      metrics_.histogram("lsr_sim_stall_seconds", "whole-machine stall time",
                         Registry::seconds_buckets());
  met_.ckpt_bytes = metrics_.histogram("lsr_sim_ckpt_bytes",
                                       "per-checkpoint-IO bytes", bytes);
  met_.flip_latency = metrics_.histogram(
      "lsr_integrity_detect_latency_seconds",
      "simulated injection-to-detection latency per caught flip",
      Registry::seconds_buckets());

  // Flight-recorder metrics. The replay-path event and drop counts are
  // Stable: the sequential control path records a thread-count-invariant
  // event sequence into a fixed-capacity ring, so both are deterministic.
  // Watchdog trips and dumps are Stable by the zero-in-healthy-runs
  // argument: any run where they differ from zero is already broken.
  using metrics::Stability;
  diag::MetricHooks dm;
  dm.events_recorded =
      metrics_.counter("lsr_diag_events_recorded_total",
                       "flight-recorder events on the deterministic replay path");
  dm.events_dropped =
      metrics_.counter("lsr_diag_events_dropped_total",
                       "replay-path events overwritten in the bounded sim ring");
  dm.thread_events =
      metrics_.counter("lsr_diag_thread_events_total",
                       "flight-recorder events from worker/watchdog threads",
                       Stability::Volatile);
  dm.thread_dropped =
      metrics_.counter("lsr_diag_thread_events_dropped_total",
                       "thread-ring events overwritten", Stability::Volatile);
  dm.watchdog_trips = metrics_.counter(
      "lsr_diag_watchdog_trips_total",
      "stall/deadlock/divergence watchdog trips (zero in a healthy run)");
  dm.dumps_written = metrics_.counter(
      "lsr_diag_dumps_written_total",
      "post-mortem diagnostic dumps written (zero in a healthy run)");
  dm.ring_high_water = metrics_.gauge(
      "lsr_diag_ring_high_water",
      "peak events resident in the flight recorder's sim ring",
      Stability::Volatile);
  diag_.set_metrics(dm);
  diag_.set_registry(&metrics_);
  diag_.set_sim_clock(&makespan_);
  diag_.configure(diag::parse_mode(std::getenv("LSR_DIAG")),
                  diag::Options::from_env());
}

// --- Recorder track interning (profiling-enabled paths only) ---------------

int Engine::proc_track(int proc) {
  const auto& p = machine_.proc(proc);
  return recorder_.track(
      (p.kind == ProcKind::GPU ? "GPU" : "CPU") + std::to_string(proc), p.node);
}

int Engine::control_track() { return recorder_.track("control", 0); }
int Engine::io_track() { return recorder_.track("pfs", 0); }
int Engine::collective_track() { return recorder_.track("collective", 0); }

void Engine::emit(Ev kind, std::string_view label, std::int64_t a,
                  std::int64_t b, double v) {
  // One row per Ev, in declaration order. `a` is added to the caller's
  // payload (the integrity verdict code: 0 injected / 1 detected / 2
  // recovered).
  struct Sink {
    metrics::Counter Met::*count;
    std::optional<prof::Category> marker;
    std::optional<diag::EventKind> diag;
    const char* label;
    std::int64_t a;
  };
  using prof::Category;
  using K = diag::EventKind;
  static constexpr Sink kSinks[] = {
      {&Met::tasks, {}, {}, "", 0},                                     // Task
      {&Met::faults, Category::Fault, K::Fault, "fault", 0},            // Fault
      {&Met::faults, Category::Fault, K::NodeLoss, "node-loss", 0},     // NodeLoss
      {&Met::retries, Category::Retry, K::Retry, "retry", 0},           // Retry
      {&Met::spills, Category::Spill, K::Spill, "spill", 0},            // Spill
      {nullptr, Category::Snapshot, {}, "", 0},                         // Snapshot
      {&Met::flips_injected, Category::Integrity, K::Integrity,
       "flip-injected", 0},                                             // FlipInjected
      {&Met::flips_detected, Category::Integrity, K::Integrity,
       "flip-detected", 1},                                             // FlipDetected
      {&Met::flips_recovered, Category::Integrity, K::Integrity,
       "flip-recovered", 2},                                            // FlipRecovered
      {nullptr, Category::Fused, K::FuseDecision, "fused", 0},          // Fused
      {nullptr, Category::Comm, K::Comm, "comm", 0},                    // Comm
  };
  static_assert(std::size(kSinks) == static_cast<std::size_t>(Ev::Comm) + 1);
  static_assert([] {
    for (const Sink& s : kSinks) {
      if (s.marker && !prof::is_marker(*s.marker)) return false;
    }
    return true;
  }(), "an event's timeline category must be a marker");

  const Sink& s = kSinks[static_cast<std::size_t>(kind)];
  if (s.count != nullptr) (met_.*s.count).inc();
  if (kind == Ev::FlipDetected) met_.flip_latency.observe(v);
  if (s.marker && recorder_.enabled()) {
    // An annotation at the current makespan on the control row.
    recorder_.record(*s.marker, control_track(), makespan_, makespan_, -1.0,
                     prof::category_name(*s.marker));
  }
  if (s.diag && diag_.enabled()) {
    diag_.record(*s.diag, label.empty() ? s.label : label, s.a + a, b, v);
  }
}

double Engine::control_advance(double overhead, std::string_view label) {
  double start = control_clock_;
  control_clock_ += overhead;
  bump(control_clock_);
  if (recorder_.enabled()) {
    int tr = control_track();
    recorder_.record(prof::Category::Launch, tr, start, control_clock_, -1.0,
                     label.empty() ? "launch" : std::string(label));
    recorder_.add_busy(tr, overhead);
  }
  return control_clock_;
}

double Engine::busy_proc(int proc, double ready, double duration,
                         std::string_view label) {
  double& clk = proc_clock_.at(proc);
  double start = std::max(clk, ready);
  clk = start + duration;
  bump(clk);
  if (recorder_.enabled()) {
    int tr = proc_track(proc);
    recorder_.record(prof::Category::Kernel, tr, start, clk, ready,
                     label.empty() ? "task" : std::string(label));
    recorder_.add_busy(tr, duration);
  }
  return clk;
}

void Engine::note_recovery(int proc, double from, double to, std::string_view label) {
  if (!recorder_.enabled()) return;
  // Gated by the failed attempt (it completed at `from`); the retry, gated
  // at `to`, then chains to this interval.
  recorder_.record(prof::Category::Recovery, proc_track(proc), from, to, from,
                   label.empty() ? "recovery" : std::string(label));
}

double& Engine::pair_link(int src_mem, int dst_mem) {
  auto key = std::minmax(src_mem, dst_mem);
  return pair_links_[{key.first, key.second}];
}

double Engine::copy(Copy cause, int src, int dst, double bytes, double ready) {
  // Validate before touching any clock or counter: a bad id must not leave
  // half-applied accounting behind (`.at()` below would only throw after the
  // copy was already counted, with an unhelpful "map::at" message).
  const int nmem = static_cast<int>(machine_.memories().size());
  if (src < 0 || src >= nmem)
    throw IndexError("Engine::copy: source memory id " + std::to_string(src) +
                         " out of range [0, " + std::to_string(nmem) + ")",
                     "src_mem", src, nmem);
  if (dst < 0 || dst >= nmem)
    throw IndexError("Engine::copy: destination memory id " +
                         std::to_string(dst) + " out of range [0, " +
                         std::to_string(nmem) + ")",
                     "dst_mem", dst, nmem);
  met_.copies.inc();
  bytes *= cost_scale_;
  met_.copy_cause[static_cast<std::size_t>(cause)].inc(bytes);
  const auto& sm = machine_.memory(src);
  const auto& dm = machine_.memory(dst);
  const bool rec = recorder_.enabled();
  double done;
  int track = -1;
  double start = ready, busy = 0;
  if (src == dst) {
    // Intra-memory movement: allocation resizing, local reshape.
    double bw = sm.kind == MemKind::Frame ? pp_.gpu_mem_bw : pp_.sysmem_bw;
    double& clk = mem_copy_clock_.at(src);
    start = std::max(clk, ready);
    done = start + pp_.sysmem_lat + bytes / bw;
    busy = done - start;
    clk = done;
    met_.bytes_intra.inc(bytes);
    met_.copy_intra.observe(bytes);
    if (rec) track = recorder_.track("mem" + std::to_string(src), sm.node);
  } else if (sm.node == dm.node) {
    // Intra-node: NVLink-class point-to-point link per memory pair.
    double& clk = pair_link(src, dst);
    start = std::max(clk, ready);
    done = start + pp_.nvlink_lat + bytes / pp_.nvlink_bw;
    busy = done - start;
    clk = done;
    met_.bytes_nvlink.inc(bytes);
    met_.copy_nvlink.observe(bytes);
    if (rec) {
      auto key = std::minmax(src, dst);
      track = recorder_.track(
          "link" + std::to_string(key.first) + "-" + std::to_string(key.second),
          sm.node);
    }
  } else {
    // Inter-node: the transfer occupies the source NIC-out and destination
    // NIC-in queues independently (LogGP-style). Each side serializes its
    // own traffic — the bottleneck that throttles the quantum simulation's
    // near-all-to-all pattern — without coupling unrelated transfers
    // through each other's completion times.
    double& out = nic_out_.at(sm.node);
    double& in = nic_in_.at(dm.node);
    double tx = bytes / pp_.ib_bw;
    start = std::max(out, ready);
    out = start + tx;
    in = std::max(in, ready) + tx;
    done = std::max(out, in) + pp_.ib_lat;
    met_.bytes_ib.inc(bytes);
    met_.copy_ib.observe(bytes);
    if (rec) {
      // The timeline shows the copy once, on the sender's NIC queue; both
      // queues get their transmission time counted toward utilization.
      track = recorder_.track("nic-out" + std::to_string(sm.node), sm.node);
      recorder_.add_busy(track, tx);
      recorder_.add_busy(
          recorder_.track("nic-in" + std::to_string(dm.node), dm.node), tx);
    }
  }
  bump(done);
  if (rec) {
    if (busy > 0) recorder_.add_busy(track, busy);
    recorder_.record(prof::Category::Copy, track, start, done, ready,
                     "copy mem" + std::to_string(src) + "->mem" +
                         std::to_string(dst));
    auto& ev = recorder_.last();
    ev.bytes = bytes;
    ev.src_mem = src;
    ev.dst_mem = dst;
    ev.src_node = sm.node;
    ev.dst_node = dm.node;
    recorder_.add_traffic(sm.node, dm.node, bytes);
  }
  diag_.record(diag::EventKind::Copy, "copy", src, dst, bytes);
  return done;
}

double Engine::allreduce(int nprocs, double ready, bool legate_style) {
  met_.allreduces.inc();
  double t = ready;
  if (nprocs > 1) {
    double hops = std::ceil(std::log2(static_cast<double>(nprocs)));
    if (legate_style) {
      t = ready + hops * pp_.legate_allreduce_alpha +
          nprocs * pp_.legate_allreduce_linear;
    } else {
      t = ready + hops * pp_.mpi_allreduce_alpha;
    }
    bump(t);
  }
  if (recorder_.enabled()) {
    int tr = collective_track();
    recorder_.record(prof::Category::Allreduce, tr, ready, t, ready,
                     legate_style ? "allreduce" : "mpi_allreduce");
    recorder_.add_busy(tr, t - ready);
  }
  return t;
}

double Engine::allreduce_bytes(int nprocs, double bytes, double ready,
                               bool legate_style) {
  bytes *= cost_scale_;
  double t = allreduce(nprocs, ready, legate_style);
  if (nprocs > 1 && bytes > 0) {
    // Bottleneck link of the ring: Infiniband once multiple nodes are
    // involved, NVLink (GPU) or system memory (CPU) within one node.
    double bw;
    if (machine_.nodes() > 1) {
      bw = pp_.ib_bw;
    } else if (machine_.target() == ProcKind::GPU) {
      bw = pp_.nvlink_bw;
    } else {
      bw = pp_.sysmem_bw;
    }
    double p = static_cast<double>(nprocs);
    double ring = 2.0 * bytes * ((p - 1.0) / p) / bw;
    t += ring;
    bump(t);
    // Traffic attribution: in a ring all-reduce every hop i -> i+1 carries
    // 2*b*(p-1)/p bytes. Book each hop by its locality — only hops crossing
    // a node boundary touch the NIC; hops between memories of one node ride
    // NVLink; ring neighbors sharing a memory (CPU sockets on one socket
    // pair's sysmem) stay intra-memory. Previously every multi-node run
    // booked a flat 2*b to bytes_ib and single-node rings booked nothing.
    double hop_bytes = 2.0 * bytes * ((p - 1.0) / p);
    int np = machine_.num_procs();
    for (int i = 0; i < nprocs; ++i) {
      const auto& a = machine_.proc(i % np);
      const auto& b = machine_.proc(((i + 1) % nprocs) % np);
      if (a.id == b.id) continue;  // degenerate ring position, no movement
      (a.mem == b.mem     ? met_.bytes_intra
       : a.node == b.node ? met_.bytes_nvlink
                          : met_.bytes_ib)
          .inc(hop_bytes);
      if (recorder_.enabled()) recorder_.add_traffic(a.node, b.node, hop_bytes);
    }
    if (recorder_.enabled()) {
      // Fold the ring term into the event allreduce() just recorded.
      recorder_.extend_last(t);
      recorder_.last().bytes = bytes;
      recorder_.add_busy(collective_track(), ring);
    }
  }
  return t;
}

void Engine::alloc_bytes(int mem, double bytes) {
  bytes *= cost_scale_;
  double& used = mem_used_.at(mem);
  const auto& m = machine_.memory(mem);
  if (used + bytes > m.capacity) {
    std::ostringstream os;
    os << "memory " << mem << " (node " << m.node << ", "
       << (m.kind == MemKind::Frame ? "framebuffer" : "sysmem")
       << ") over capacity: allocating " << bytes / 1e9 << " GB with "
       << used / 1e9 << " GB used of " << m.capacity / 1e9 << " GB";
    throw OutOfMemoryError(os.str());
  }
  used += bytes;
  mem_peak_.at(mem) = std::max(mem_peak_.at(mem), used);
}

void Engine::free_bytes(int mem, double bytes) {
  bytes *= cost_scale_;
  LSR_CHECK_MSG(bytes >= 0, "negative release");
  double& used = mem_used_.at(mem);
  const auto& m = machine_.memory(mem);
  std::ostringstream os;
  os << "memory " << mem << " (node " << m.node << ") released " << bytes
     << " B with only " << used << " B reserved of " << m.capacity
     << " B capacity";
  // Tolerate accumulated floating-point slack; anything larger means a
  // double-free in the allocation store.
  LSR_CHECK_MSG(bytes <= used + 1.0, os.str());
  used = std::max(0.0, used - bytes);
}

double Engine::stall_all(double at, double seconds) {
  met_.stall_seconds.observe(seconds);
  double stall_start = std::max(control_clock_, at);
  control_clock_ = stall_start + seconds;
  double latest = control_clock_;
  for (double& clk : proc_clock_) {
    clk = std::max(clk, at) + seconds;
    latest = std::max(latest, clk);
  }
  for (double& clk : mem_copy_clock_) clk = std::max(clk, at) + seconds;
  for (double& clk : nic_in_) clk = std::max(clk, at) + seconds;
  for (double& clk : nic_out_) clk = std::max(clk, at) + seconds;
  bump(latest);
  if (recorder_.enabled()) {
    recorder_.record(prof::Category::Stall, control_track(), stall_start,
                     stall_start + seconds, -1.0, "stall");
  }
  diag_.record(diag::EventKind::Stall, "machine-stall", 0, 0, seconds);
  return latest;
}

double Engine::checkpoint_io(double bytes, double ready, bool restore) {
  bytes *= cost_scale_;
  (restore ? met_.restores : met_.checkpoints).inc();
  met_.bytes_ckpt.inc(bytes);
  met_.ckpt_bytes.observe(bytes);
  double start = std::max(io_clock_, ready);
  io_clock_ = start + pp_.checkpoint_lat + bytes / pp_.checkpoint_bw;
  bump(io_clock_);
  if (recorder_.enabled()) {
    int tr = io_track();
    recorder_.record(prof::Category::Checkpoint, tr, start, io_clock_, ready,
                     restore ? "restore" : "checkpoint");
    recorder_.add_busy(tr, io_clock_ - start);
    recorder_.last().bytes = bytes;
  }
  diag_.record(restore ? diag::EventKind::Restore : diag::EventKind::Checkpoint,
               restore ? "restore" : "checkpoint", 0, 0, bytes);
  return io_clock_;
}

void Engine::reset() {
  control_clock_ = 0;
  io_clock_ = 0;
  proc_clock_.assign(proc_clock_.size(), 0.0);
  mem_copy_clock_.assign(mem_copy_clock_.size(), 0.0);
  nic_in_.assign(nic_in_.size(), 0.0);
  nic_out_.assign(nic_out_.size(), 0.0);
  pair_links_.clear();
  makespan_ = 0;
  mem_peak_ = mem_used_;
  recorder_.reset();
  // Drain the flight recorder before the metrics zero out so its flush sink
  // (if any) can snapshot the epoch it belongs to; this also joins and
  // restarts the watchdog thread, so resets never leak a stale thread.
  diag_.reset();
  metrics_.reset();
}

Stats Engine::stats() const {
  auto n = [](const metrics::Counter& c) { return static_cast<long>(c.value()); };
  return {.bytes_intra = met_.bytes_intra.value(),
          .bytes_nvlink = met_.bytes_nvlink.value(),
          .bytes_ib = met_.bytes_ib.value(),
          .bytes_ckpt = met_.bytes_ckpt.value(),
          .copies = n(met_.copies), .tasks = n(met_.tasks),
          .allreduces = n(met_.allreduces), .faults_injected = n(met_.faults),
          .retries = n(met_.retries), .spills = n(met_.spills),
          .checkpoints = n(met_.checkpoints), .restores = n(met_.restores),
          .flips_injected = n(met_.flips_injected),
          .flips_detected = n(met_.flips_detected),
          .flips_recovered = n(met_.flips_recovered)};
}

std::string Engine::report() const {
  const Stats st = stats();
  std::ostringstream os;
  os << "makespan=" << makespan_ << "s tasks=" << st.tasks
     << " copies=" << st.copies << " allreduces=" << st.allreduces
     << " bytes{intra=" << st.bytes_intra / 1e6 << "MB, nvlink="
     << st.bytes_nvlink / 1e6 << "MB, ib=" << st.bytes_ib / 1e6 << "MB}";
  if (st.faults_injected + st.retries + st.spills + st.checkpoints +
          st.restores >
      0) {
    os << " faults{injected=" << st.faults_injected
       << ", retries=" << st.retries << ", spills=" << st.spills
       << ", checkpoints=" << st.checkpoints << ", restores=" << st.restores
       << ", ckpt_bytes=" << st.bytes_ckpt / 1e6 << "MB}";
  }
  if (st.flips_injected + st.flips_detected + st.flips_recovered > 0) {
    os << " integrity{flips_injected=" << st.flips_injected
       << ", detected=" << st.flips_detected
       << ", recovered=" << st.flips_recovered << "}";
  }
  return os.str();
}

}  // namespace legate::sim

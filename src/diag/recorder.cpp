#include "diag/diag.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "diag/dump.h"
#include "diag/watchdog.h"

namespace legate::diag {

// ---------------------------------------------------------------------------
// Mode / log level
// ---------------------------------------------------------------------------

namespace {

std::string lower(const char* s) {
  std::string out;
  for (; s != nullptr && *s != '\0'; ++s)
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*s))));
  return out;
}

}  // namespace

Mode parse_mode(const char* s) {
  if (s == nullptr) return Mode::Unset;
  std::string v = lower(s);
  if (v == "off" || v == "0" || v == "none") return Mode::Off;
  if (v == "on" || v == "1") return Mode::On;
  if (v == "abort-on-hang" || v == "abort_on_hang" || v == "abort")
    return Mode::AbortOnHang;
  return Mode::Unset;
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Unset: return "unset";
    case Mode::Off: return "off";
    case Mode::On: return "on";
    case Mode::AbortOnHang: return "abort-on-hang";
  }
  return "?";
}

namespace {

std::atomic<int> g_log_level{-1};  // -1 = not yet initialized from env

int env_log_level() {
  int lvl = g_log_level.load(std::memory_order_relaxed);
  if (lvl >= 0) return lvl;
  lvl = static_cast<int>(parse_log_level(std::getenv("LSR_DIAG_LOG")));
  g_log_level.store(lvl, std::memory_order_relaxed);
  return lvl;
}

}  // namespace

LogLevel parse_log_level(const char* s) {
  if (s == nullptr) return LogLevel::Warn;
  std::string v = lower(s);
  if (v == "silent" || v == "off" || v == "0") return LogLevel::Silent;
  if (v == "warn" || v == "warning" || v == "1") return LogLevel::Warn;
  if (v == "info" || v == "2") return LogLevel::Info;
  if (v == "debug" || v == "3") return LogLevel::Debug;
  return LogLevel::Warn;
}

void set_log_level(LogLevel lvl) {
  g_log_level.store(static_cast<int>(lvl), std::memory_order_relaxed);
}

LogLevel log_level() { return static_cast<LogLevel>(env_log_level()); }

void logf(LogLevel lvl, const char* fmt, ...) {
  if (static_cast<int>(lvl) > env_log_level() || lvl == LogLevel::Silent) return;
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  std::fprintf(stderr, "[lsr_diag] %s\n", buf);
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

Options Options::from_env() {
  Options o;
  if (const char* e = std::getenv("LSR_DIAG_RING")) {
    long v = std::atol(e);
    if (v > 0) o.ring_capacity = static_cast<std::size_t>(v);
  }
  if (const char* e = std::getenv("LSR_DIAG_STALL_S")) {
    double v = std::atof(e);
    if (v > 0) o.stall_deadline_s = v;
  }
  if (const char* e = std::getenv("LSR_DIAG_POLL_S")) {
    double v = std::atof(e);
    if (v > 0) o.poll_interval_s = v;
  }
  if (const char* e = std::getenv("LSR_DIAG_DIVERGENCE_WINDOW")) {
    long v = std::atol(e);
    if (v > 0) o.divergence_window = static_cast<int>(v);
  }
  if (const char* e = std::getenv("LSR_DIAG_DIR")) o.dump_dir = e;
  return o;
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::Launch: return "launch";
    case EventKind::Retire: return "retire";
    case EventKind::LeafExec: return "leaf-exec";
    case EventKind::Fence: return "fence";
    case EventKind::WindowFlush: return "window-flush";
    case EventKind::FuseDecision: return "fuse-decision";
    case EventKind::Copy: return "copy";
    case EventKind::Fault: return "fault";
    case EventKind::Retry: return "retry";
    case EventKind::NodeLoss: return "node-loss";
    case EventKind::Checkpoint: return "checkpoint";
    case EventKind::Restore: return "restore";
    case EventKind::Integrity: return "integrity";
    case EventKind::Poison: return "poison";
    case EventKind::SolverIter: return "solver-iter";
    case EventKind::Spill: return "spill";
    case EventKind::Comm: return "comm";
    case EventKind::Stall: return "stall";
    case EventKind::WatchdogTrip: return "watchdog-trip";
    case EventKind::Dump: return "dump";
    case EventKind::Mark: return "mark";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

namespace {

std::size_t round_pow2(std::size_t v) {
  std::size_t p = 8;  // keep a usable minimum even for tiny test capacities
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

Ring::Ring(std::size_t capacity, std::string name)
    : name_(std::move(name)),
      capacity_(round_pow2(capacity)),
      mask_(capacity_ - 1),
      slots_(new Slot[capacity_]) {}

bool Ring::push(const Event& e) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  const bool drop =
      h - floor_head_.load(std::memory_order_relaxed) >= capacity_;
  if (drop) dropped_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[h & mask_];
  std::uint64_t w[kWords];
  std::memcpy(w, &e, sizeof(Event));
  // Seqlock write, Boehm's fence-free variant: odd marker, payload words
  // stored with release (each orders the odd marker before it), even marker
  // with release. Readers that observe the even marker twice around their
  // payload loads got a consistent copy.
  s.sq.store(2 * h + 1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kWords; ++i)
    s.w[i].store(w[i], std::memory_order_release);
  s.sq.store(2 * h + 2, std::memory_order_release);
  head_.store(h + 1, std::memory_order_release);
  return drop;
}

std::uint64_t Ring::resident() const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t f = floor_head_.load(std::memory_order_relaxed);
  const std::uint64_t n = h > f ? h - f : 0;
  return n < capacity_ ? n : capacity_;
}

void Ring::set_floor_head() {
  floor_head_.store(head_.load(std::memory_order_acquire),
                    std::memory_order_relaxed);
}

std::vector<Event> Ring::drain(std::uint64_t min_seq) const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t lo = h > capacity_ ? h - capacity_ : 0;
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(h - lo));
  for (std::uint64_t i = lo; i < h; ++i) {
    const Slot& s = slots_[i & mask_];
    Event e;
    bool ok = false;
    for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
      const std::uint64_t q1 = s.sq.load(std::memory_order_acquire);
      if (q1 != 2 * i + 2) break;  // slot overwritten or mid-write; skip
      std::uint64_t w[kWords];
      // Acquire payload loads: a word from a newer write makes that write's
      // odd marker visible to the q2 load below.
      for (std::size_t j = 0; j < kWords; ++j)
        w[j] = s.w[j].load(std::memory_order_acquire);
      const std::uint64_t q2 = s.sq.load(std::memory_order_relaxed);
      if (q1 == q2) {
        std::memcpy(&e, w, sizeof(Event));
        ok = true;
      }
    }
    if (ok && e.seq >= min_seq) out.push_back(e);
  }
  return out;
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

namespace {

// Process-unique recorder ids; never reused, so a stale thread-local cache
// entry from a destroyed recorder can never alias a new one.
std::atomic<std::uint64_t> g_next_uid{1};

struct ThreadRingCache {
  std::uint64_t uid{0};
  Ring* ring{nullptr};
};
thread_local ThreadRingCache t_ring_cache;

}  // namespace

FlightRecorder::FlightRecorder()
    : epoch_(std::chrono::steady_clock::now()),
      uid_(g_next_uid.fetch_add(1, std::memory_order_relaxed)) {}

FlightRecorder::~FlightRecorder() {
  unregister_crash_dump(this);
  stop_watchdog();
}

void FlightRecorder::configure(Mode mode, Options o) {
  stop_watchdog();
  if (mode == Mode::Unset) mode = Mode::Off;
  mode_ = mode;
  opts_ = std::move(o);
  epoch_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(rings_mu_);
    if (sim_ring_ == nullptr || sim_ring_->capacity() < opts_.ring_capacity)
      sim_ring_ = std::make_unique<Ring>(opts_.ring_capacity, "sim");
  }
  on_.store(mode != Mode::Off, std::memory_order_relaxed);
  if (enabled()) {
    install_crash_dump_handler(this);
    start_watchdog();
    logf(LogLevel::Info, "flight recorder %s (ring=%zu, stall=%.3gs)",
         mode_name(mode_), opts_.ring_capacity, opts_.stall_deadline_s);
  }
}

double FlightRecorder::wall_now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

namespace {

void fill_event(Event& e, EventKind k, std::string_view label, std::int64_t a,
                std::int64_t b, double v) {
  e.kind = k;
  e.a = a;
  e.b = b;
  e.v = v;
  const std::size_t n = label.size() < sizeof(e.label) - 1 ? label.size()
                                                           : sizeof(e.label) - 1;
  std::memcpy(e.label, label.data(), n);
  e.label[n] = '\0';
}

}  // namespace

void FlightRecorder::record(EventKind k, std::string_view label, std::int64_t a,
                            std::int64_t b, double v) {
  if (!enabled()) return;
  Event e;
  fill_event(e, k, label, a, b, v);
  e.t_sim = sim_clock_ != nullptr ? *sim_clock_ : -1;
  e.wall = wall_now();
  e.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  if (sim_ring_->push(e)) met_.events_dropped.inc();
  met_.events_recorded.inc();
  update_high_water();
}

void FlightRecorder::record_thread(EventKind k, std::string_view label,
                                   std::int64_t a, std::int64_t b, double v) {
  if (!enabled()) return;
  Event e;
  fill_event(e, k, label, a, b, v);
  e.t_sim = -1;  // off the control path: no safe read of the sim clock
  e.wall = wall_now();
  e.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  if (thread_ring()->push(e)) met_.thread_dropped.inc();
  met_.thread_events.inc();
}

Ring* FlightRecorder::thread_ring() {
  if (t_ring_cache.uid == uid_) return t_ring_cache.ring;
  std::lock_guard<std::mutex> lk(rings_mu_);
  thread_rings_.push_back(std::make_unique<Ring>(
      opts_.ring_capacity, "thr-" + std::to_string(thread_rings_.size())));
  t_ring_cache = {uid_, thread_rings_.back().get()};
  return t_ring_cache.ring;
}

void FlightRecorder::update_high_water() {
  // Resident events in the sim ring only — cheap, and the sim ring is where
  // the deterministic control path lands. Volatile by registration: wall
  // interleaving decides when it is sampled relative to drops.
  met_.ring_high_water.update_max(static_cast<double>(sim_ring_->resident()));
}

// -- board --------------------------------------------------------------------

void FlightRecorder::begin_launch(std::string_view name, long pending) {
  std::lock_guard<std::mutex> lk(board_mu_);
  board_.last_launch.assign(name.data(), name.size());
  board_.active = true;
  board_.pending = pending;
  ++board_.launches;
}

void FlightRecorder::end_launch() {
  std::lock_guard<std::mutex> lk(board_mu_);
  board_.active = false;
}

void FlightRecorder::note_window(std::size_t open_window) {
  std::lock_guard<std::mutex> lk(board_mu_);
  board_.window = open_window;
}

void FlightRecorder::note_poison(std::uint64_t store) {
  std::lock_guard<std::mutex> lk(board_mu_);
  ++board_.poisoned;
  board_.last_poisoned = store;
}

void FlightRecorder::note_node_loss(int node) {
  std::lock_guard<std::mutex> lk(board_mu_);
  board_.lost_node = node;
}

void FlightRecorder::note_partition_nnz(bool nnz) {
  std::lock_guard<std::mutex> lk(board_mu_);
  board_.partition_nnz = nnz;
}

FlightRecorder::Board FlightRecorder::board() const {
  std::lock_guard<std::mutex> lk(board_mu_);
  return board_;
}

// -- watchdog feed ------------------------------------------------------------

void FlightRecorder::set_pool_status(std::function<PoolStatus()> fn) {
  std::lock_guard<std::mutex> lk(pool_mu_);
  pool_status_ = std::move(fn);
}

PoolStatus FlightRecorder::pool_status() const {
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (!pool_status_) return {};
  return pool_status_();
}

void FlightRecorder::trip(const char* what, std::string_view detail) {
  trips_.fetch_add(1, std::memory_order_relaxed);
  met_.watchdog_trips.inc();
  record_thread(EventKind::WatchdogTrip, what);
  Board bd = board();
  logf(LogLevel::Warn, "watchdog trip: %s (%.*s; in-flight launch '%s')", what,
       static_cast<int>(detail.size()), detail.data(), bd.last_launch.c_str());
  std::string path;
  if (opts_.dump_on_trip) path = dump(std::string("watchdog-") + what);
  const bool hang = std::string_view(what) != "divergence";
  if (hang && abort_on_hang()) {
    logf(LogLevel::Warn, "LSR_DIAG=abort-on-hang: aborting after %s trip (dump: %s)",
         what, path.empty() ? "<none>" : path.c_str());
    std::fflush(nullptr);
    note_fatal_dump_done();  // the dump above already captured the state
    std::abort();
  }
}

// -- drain / reset ------------------------------------------------------------

FlightRecorder::Drained FlightRecorder::drain() const {
  const std::uint64_t floor = floor_.load(std::memory_order_acquire);
  Drained d;
  std::vector<const Ring*> rings;
  {
    std::lock_guard<std::mutex> lk(rings_mu_);
    if (sim_ring_ != nullptr) rings.push_back(sim_ring_.get());
    for (const auto& r : thread_rings_) rings.push_back(r.get());
  }
  for (const Ring* r : rings) {
    const int idx = static_cast<int>(d.rings.size());
    d.rings.push_back(r->name());
    for (Event& e : r->drain(floor)) d.events.emplace_back(idx, e);
  }
  // Rings drain one at a time while writers may still append, so the raw
  // concatenation is not chronological. Sort by (wall, seq) — seq breaks
  // same-stamp ties in true record order — so dump timelines are monotonic.
  std::stable_sort(d.events.begin(), d.events.end(),
                   [](const std::pair<int, Event>& x, const std::pair<int, Event>& y) {
                     if (x.second.wall != y.second.wall)
                       return x.second.wall < y.second.wall;
                     return x.second.seq < y.second.seq;
                   });
  return d;
}

std::uint64_t FlightRecorder::events_recorded() const {
  std::lock_guard<std::mutex> lk(rings_mu_);
  std::uint64_t n = sim_ring_ != nullptr ? sim_ring_->pushed() : 0;
  for (const auto& r : thread_rings_) n += r->pushed();
  return n;
}

void FlightRecorder::reset() {
  if (flush_sink_ && events_recorded() > floor_.load(std::memory_order_relaxed))
    flush_sink_(*this);
  // Raise the event floor instead of touching slots: per-thread rings may
  // still be cached by live worker threads, so their storage must survive.
  floor_.store(next_seq_.load(std::memory_order_relaxed),
               std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(rings_mu_);
    if (sim_ring_ != nullptr) sim_ring_->set_floor_head();
    for (auto& r : thread_rings_) r->set_floor_head();
  }
  {
    std::lock_guard<std::mutex> lk(board_mu_);
    board_ = Board{};
  }
  // Join and restart the watchdog so a reset engine never leaks the old
  // thread (mirrors the prof flush-sink contract from the profiler).
  stop_watchdog();
  if (enabled()) start_watchdog();
}

void FlightRecorder::start_watchdog() {
  if (!opts_.watchdog || watchdog_ != nullptr) return;
  watchdog_ = std::make_unique<Watchdog>(*this, opts_);
}

void FlightRecorder::stop_watchdog() { watchdog_.reset(); }

// ---------------------------------------------------------------------------
// DivergenceGuard
// ---------------------------------------------------------------------------

bool DivergenceGuard::observe(int iteration, double residual) {
  if (!rec_.enabled() || tripped_) return false;
  const Options& o = rec_.options();
  const bool finite = std::isfinite(residual);
  if (finite && (best_ < 0 || residual < best_ * (1.0 - o.divergence_rtol))) {
    best_ = residual;
    since_improve_ = 0;
    return false;
  }
  ++since_improve_;
  if (since_improve_ < o.divergence_window) return false;
  tripped_ = true;
  char detail[128];
  std::snprintf(detail, sizeof detail,
                "%s stagnated: no %.3g improvement in %d iters (iter=%d, res=%g)",
                solver_, o.divergence_rtol, o.divergence_window, iteration,
                residual);
  // Record the deterministic trip on the control path before the volatile
  // trip bookkeeping so the stable event stream names the solver.
  rec_.record(EventKind::WatchdogTrip, solver_, iteration, 0, residual);
  rec_.trip("divergence", detail);
  return true;
}

}  // namespace legate::diag

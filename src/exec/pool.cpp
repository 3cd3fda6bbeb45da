#include "exec/pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace legate::exec {

namespace {

/// Wall seconds the task running on this thread spent on work that is not
/// its own: nested tasks it ran while helping, and idle waits for other
/// workers. Null outside a task. run_task subtracts it from the task's wall.
thread_local double* t_not_own = nullptr;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

Pool::Pool(int threads, metrics::Registry* metrics) {
  if (metrics != nullptr) {
    using metrics::Stability;
    met_steals_ = metrics->counter("lsr_exec_steals_total",
                                   "tasks taken from another worker's deque",
                                   Stability::Volatile);
    met_queue_peak_ = metrics->gauge("lsr_exec_queue_depth_peak",
                                     "max tasks parked across all deques",
                                     Stability::Volatile);
    met_grain_ = metrics->histogram(
        "lsr_exec_parallel_for_grain",
        "iterations claimed per parallel_for participant",
        {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096}, Stability::Volatile);
    met_task_wall_ = metrics->histogram(
        "lsr_exec_task_wall_seconds",
        "measured wall time per pool task, nested tasks and idle waits excluded",
        metrics::Registry::seconds_buckets(), Stability::Volatile);
  }
  int n = std::max(1, threads);
  deques_.resize(static_cast<std::size_t>(n));
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

bool Pool::pop_task(int self, std::function<void()>& out) {
  auto& own = deques_[static_cast<std::size_t>(self)].q;
  if (!own.empty()) {
    out = std::move(own.back());
    own.pop_back();
    return true;
  }
  for (std::size_t k = 1; k < deques_.size(); ++k) {
    auto& victim = deques_[(static_cast<std::size_t>(self) + k) % deques_.size()].q;
    if (!victim.empty()) {
      out = std::move(victim.front());
      victim.pop_front();
      met_steals_.inc();
      return true;
    }
  }
  return false;
}

std::size_t Pool::queued_locked() const {
  std::size_t total = 0;
  for (const auto& d : deques_) total += d.q.size();
  return total;
}

Pool::Status Pool::status() {
  std::lock_guard<std::mutex> lk(mu_);
  return Status{static_cast<long>(queued_locked()), running_, inflight_nodes_,
                completed_};
}

void Pool::run_task(std::function<void()>& task) {
  double not_own = 0;
  double* outer = std::exchange(t_not_own, &not_own);
  auto t0 = std::chrono::steady_clock::now();
  task();
  const double wall = seconds_since(t0);
  t_not_own = outer;
  // A nested task is not its helper's own work: count its wall once, here.
  if (outer != nullptr) *outer += wall;
  met_task_wall_.observe(wall - not_own);
}

void Pool::wait_done(std::unique_lock<std::mutex>& lk) {
  if (t_not_own == nullptr) {
    cv_done_.wait(lk);
    return;
  }
  auto t0 = std::chrono::steady_clock::now();
  cv_done_.wait(lk);
  *t_not_own += seconds_since(t0);
}

void Pool::push_task_locked(std::function<void()> fn) {
  deques_[next_deque_ % deques_.size()].q.push_back(std::move(fn));
  ++next_deque_;
  met_queue_peak_.update_max(static_cast<double>(queued_locked()));
  cv_work_.notify_one();
}

void Pool::enqueue_node_locked(const NodeRef& n) {
  push_task_locked([this, n] {
    n->fn_();
    std::vector<NodeRef> ready;
    {
      std::lock_guard<std::mutex> lk(mu_);
      n->done_.store(true, std::memory_order_release);
      n->fn_ = nullptr;
      for (auto& s : n->succs_) {
        if (--s->pending_ == 0) ready.push_back(s);
      }
      n->succs_.clear();
      for (auto& r : ready) enqueue_node_locked(r);
      --inflight_nodes_;
    }
    cv_done_.notify_all();
  });
}

NodeRef Pool::submit(std::function<void()> fn, const std::vector<NodeRef>& deps) {
  auto n = std::make_shared<Node>();
  n->fn_ = std::move(fn);
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++inflight_nodes_;
    for (const auto& d : deps) {
      if (d == nullptr || d->done_.load(std::memory_order_acquire)) continue;
      d->succs_.push_back(n);
      ++n->pending_;
    }
    if (n->pending_ == 0) enqueue_node_locked(n);
  }
  return n;
}

bool Pool::help_one(std::unique_lock<std::mutex>& lk) {
  std::function<void()> task;
  if (!pop_task(0, task)) return false;
  ++running_;
  lk.unlock();
  run_task(task);
  lk.lock();
  --running_;
  ++completed_;
  cv_done_.notify_all();
  return true;
}

void Pool::wait(const NodeRef& n) {
  if (n == nullptr) return;
  std::unique_lock<std::mutex> lk(mu_);
  while (!n->done_.load(std::memory_order_acquire)) {
    if (!help_one(lk)) wait_done(lk);
  }
}

void Pool::wait_all() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (help_one(lk)) continue;
    if (inflight_nodes_ == 0 && running_ == 0) return;
    wait_done(lk);
  }
}

void Pool::worker_loop(int self) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    std::function<void()> task;
    if (pop_task(self, task)) {
      ++running_;
      lk.unlock();
      run_task(task);
      lk.lock();
      --running_;
      ++completed_;
      cv_done_.notify_all();
      continue;
    }
    if (stop_) return;
    cv_work_.wait(lk);
  }
}

void Pool::parallel_for(long n, const std::function<void(long)>& body) {
  if (n <= 0) return;
  if (n == 1) {
    body(0);
    return;
  }
  // Iterations are claimed from a shared counter; `completed` is the join.
  // Chunk-runner tasks that start after the loop drained exit without ever
  // touching `body` (the claim check dereferences only the counters), so the
  // initiator never waits on a runner that is still parked in a deque.
  struct LoopState {
    std::atomic<long> next{0};
    std::atomic<long> completed{0};
    long n{0};
    const std::function<void(long)>* body{nullptr};
  };
  auto st = std::make_shared<LoopState>();
  st->n = n;
  st->body = &body;

  auto run_chunks = [this, st] {
    long claimed = 0;
    for (long i; (i = st->next.fetch_add(1)) < st->n;) {
      ++claimed;
      (*st->body)(i);
      if (st->completed.fetch_add(1) + 1 == st->n) {
        std::lock_guard<std::mutex> lk(mu_);
        cv_done_.notify_all();
      }
    }
    if (claimed > 0) met_grain_.observe(static_cast<double>(claimed));
  };

  long helpers = std::min<long>(n - 1, threads());
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (long h = 0; h < helpers; ++h) push_task_locked(run_chunks);
  }
  cv_work_.notify_all();

  run_chunks();  // the initiator is a full participant

  std::unique_lock<std::mutex> lk(mu_);
  while (st->completed.load() < st->n) {
    // Help with whatever is queued (another node, a nested loop's chunks)
    // rather than idling while the last iterations finish elsewhere.
    if (!help_one(lk)) wait_done(lk);
  }
}

}  // namespace legate::exec

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "metrics/metrics.h"

namespace legate::exec {

class Pool;

/// One node of the real-execution task graph: a unit of deferred work
/// (typically every point task of one index launch) plus the dependence
/// edges the runtime derived from its store reader/writer state. Nodes are
/// created by Pool::submit and become runnable once all predecessors
/// finished.
class Node {
 public:
  [[nodiscard]] bool done() const { return done_.load(std::memory_order_acquire); }

 private:
  friend class Pool;
  std::function<void()> fn_;
  std::vector<std::shared_ptr<Node>> succs_;  ///< waiters on this node
  int pending_{0};                            ///< unfinished predecessors
  std::atomic<bool> done_{false};
};

using NodeRef = std::shared_ptr<Node>;

/// Work-stealing thread pool executing real leaf-task work.
///
/// Structure: one deque per worker; an owner pushes and pops at the back
/// (LIFO, cache-friendly for nested loop chunks) while idle workers steal
/// from the front of a victim's deque (FIFO, oldest work first). All deques
/// hang off a single mutex: the scheduling granularity here is whole index
/// launches and loop chunks of leaf kernels — milliseconds, not nanoseconds —
/// so the stealing *policy* matters for fairness and locality while lock
/// contention does not.
///
/// Threads blocked in wait()/wait_all()/parallel_for() help: they steal and
/// run queued work instead of idling, so the control thread contributes a
/// full execution context while it drains a fence.
///
/// Task functions must not throw — callers (the runtime) capture exceptions
/// into their own records and surface them at the next fence.
class Pool {
 public:
  /// Spawn `threads` workers (clamped to >= 1). When `metrics` is non-null
  /// the pool reports scheduling telemetry there (steals, queue depth,
  /// parallel_for grain sizes, measured task wall time) — all registered
  /// Volatile: they legitimately vary with thread count and scheduling.
  explicit Pool(int threads, metrics::Registry* metrics = nullptr);
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] int threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueue a task-graph node that runs `fn` once every node in `deps`
  /// (nulls and already-finished nodes are skipped) has completed.
  NodeRef submit(std::function<void()> fn, const std::vector<NodeRef>& deps);

  /// Block until `n` has finished, running other queued work meanwhile.
  void wait(const NodeRef& n);

  /// Block until every submitted node has finished and no task is running.
  void wait_all();

  /// Run body(0..n-1), each index exactly once, distributing chunks over the
  /// workers while the caller participates. Iterations are claimed from a
  /// shared atomic counter — idle workers steal loop iterations the same way
  /// they steal queued tasks. Returns after every iteration completed
  /// (completion publishes the bodies' writes to the caller).
  void parallel_for(long n, const std::function<void(long)>& body);

  /// Point-in-time scheduling state, sampled under the pool mutex. The diag
  /// watchdog uses this to classify a hang: `queued > 0 && running == 0`
  /// held across a deadline means ready work with every worker parked.
  struct Status {
    long queued{0};     ///< tasks parked across all deques
    long running{0};    ///< tasks currently executing
    long inflight{0};   ///< submitted nodes not yet done
    long completed{0};  ///< tasks finished since the pool started
  };
  [[nodiscard]] Status status();

 private:
  struct WorkerDeque {
    std::deque<std::function<void()>> q;
  };

  void worker_loop(int self);
  /// Pop own back / steal a victim's front. Lock must be held.
  bool pop_task(int self, std::function<void()>& out);
  /// Push a task (round-robin across deques) and wake a worker. Lock held.
  void push_task_locked(std::function<void()> fn);
  /// Make a ready node's task runnable. Lock must be held.
  void enqueue_node_locked(const NodeRef& n);
  /// Run one queued task if any, temporarily releasing `lk`.
  bool help_one(std::unique_lock<std::mutex>& lk);
  /// Execute a popped task outside the lock and observe its own wall time:
  /// nested tasks it runs while helping, and its idle waits, are excluded
  /// (a nested task observes its own wall).
  void run_task(std::function<void()>& task);
  /// cv_done_.wait, charging the idle time to the running task's
  /// not-own-work when called from inside a task.
  void wait_done(std::unique_lock<std::mutex>& lk);
  /// Total tasks parked across all deques. Lock must be held.
  [[nodiscard]] std::size_t queued_locked() const;

  std::mutex mu_;  ///< guards deques, node graph edges, counters
  std::condition_variable cv_work_;  ///< new task available
  std::condition_variable cv_done_;  ///< a task or node finished
  std::vector<WorkerDeque> deques_;
  std::size_t next_deque_{0};
  long inflight_nodes_{0};  ///< submitted, not yet done
  long running_{0};         ///< tasks currently executing
  long completed_{0};       ///< tasks finished since pool start
  bool stop_{false};
  std::vector<std::thread> workers_;

  // Scheduling telemetry (inert no-op handles when constructed without a
  // registry, e.g. in unit tests).
  metrics::Counter met_steals_;
  metrics::Gauge met_queue_peak_;
  metrics::Histogram met_grain_;
  metrics::Histogram met_task_wall_;
};

}  // namespace legate::exec

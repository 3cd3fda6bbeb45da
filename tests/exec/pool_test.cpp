#include "exec/pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "metrics/metrics.h"

namespace legate::exec {
namespace {

TEST(Pool, SingleThreadRunsInline) {
  Pool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  int ran = 0;
  auto n = pool.submit([&] { ++ran; }, {});
  pool.wait(n);
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(n->done());
}

TEST(Pool, DependenciesOrderExecution) {
  Pool pool(4);
  std::vector<int> order;
  std::mutex mu;
  auto note = [&](int v) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(v);
  };
  auto a = pool.submit([&] { note(1); }, {});
  auto b = pool.submit([&] { note(2); }, {a});
  auto c = pool.submit([&] { note(3); }, {b});
  pool.wait(c);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Pool, NullAndFinishedDepsAreSkipped) {
  Pool pool(2);
  auto a = pool.submit([] {}, {});
  pool.wait(a);
  int ran = 0;
  auto b = pool.submit([&] { ++ran; }, {a, nullptr, a});
  pool.wait(b);
  EXPECT_EQ(ran, 1);
}

TEST(Pool, DiamondDependence) {
  Pool pool(4);
  std::atomic<int> stage{0};
  auto top = pool.submit([&] { stage.fetch_add(1); }, {});
  auto left = pool.submit([&] { EXPECT_GE(stage.load(), 1); stage.fetch_add(10); },
                          {top});
  auto right = pool.submit([&] { EXPECT_GE(stage.load(), 1); stage.fetch_add(10); },
                           {top});
  auto bottom = pool.submit([&] { EXPECT_EQ(stage.load(), 21); }, {left, right});
  pool.wait(bottom);
  EXPECT_TRUE(bottom->done());
}

TEST(Pool, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 8}) {
    Pool pool(threads);
    constexpr long kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](long i) { hits[static_cast<std::size_t>(i)]++; });
    for (long i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);
  }
}

TEST(Pool, ParallelForPublishesWrites) {
  Pool pool(4);
  constexpr long kN = 4096;
  std::vector<double> out(kN, 0.0);
  // Plain (non-atomic) disjoint writes: parallel_for's completion must
  // publish them to the caller.
  pool.parallel_for(kN, [&](long i) { out[static_cast<std::size_t>(i)] = i * 2.0; });
  for (long i = 0; i < kN; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 2.0);
}

TEST(Pool, NestedParallelForFromTask) {
  // A submitted node may itself run a parallel_for (a pipelined launch's
  // point loop) without deadlocking the worker it runs on.
  Pool pool(2);
  std::atomic<long> sum{0};
  auto n = pool.submit(
      [&] { pool.parallel_for(100, [&](long i) { sum.fetch_add(i); }); }, {});
  pool.wait(n);
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(Pool, WaitAllDrainsEverything) {
  Pool pool(4);
  std::atomic<int> done{0};
  std::vector<NodeRef> nodes;
  NodeRef prev;
  for (int i = 0; i < 64; ++i) {
    prev = pool.submit([&] { done.fetch_add(1); },
                       prev ? std::vector<NodeRef>{prev} : std::vector<NodeRef>{});
    nodes.push_back(prev);
  }
  pool.wait_all();
  EXPECT_EQ(done.load(), 64);
  for (auto& n : nodes) EXPECT_TRUE(n->done());
}

TEST(Pool, ManyIndependentNodesAllComplete) {
  Pool pool(8);
  std::atomic<int> done{0};
  std::vector<NodeRef> nodes;
  nodes.reserve(500);
  for (int i = 0; i < 500; ++i) nodes.push_back(pool.submit([&] { done.fetch_add(1); }, {}));
  for (auto& n : nodes) pool.wait(n);
  EXPECT_EQ(done.load(), 500);
}

/// Pool tasks whose observed (own) wall exceeded 10 ms.
double tasks_over_10ms(const metrics::Registry& reg) {
  const auto snap = reg.snapshot();
  const auto* h = snap.find("lsr_exec_task_wall_seconds");
  EXPECT_NE(h, nullptr);
  if (h == nullptr) return -1;
  double n = 0;
  for (std::size_t k = 1; k < h->buckets.size(); ++k) {
    if (h->bounds[k - 1] > 5e-3) n += h->buckets[k];  // lower bound 1e-2 up
  }
  return n;
}

TEST(Pool, TaskWallExcludesNestedTasksAndIdleWaits) {
  using namespace std::chrono_literals;
  {
    // Nested: `outer` waits on `inner`, so it runs inner itself (one
    // worker), or idles while the waiting caller runs it. Only inner's own
    // 50 ms is its work; the outer task's wall must not count it again.
    metrics::Registry reg;
    Pool pool(1, &reg);
    auto outer = pool.submit(
        [&] {
          auto inner = pool.submit([] { std::this_thread::sleep_for(50ms); }, {});
          pool.wait(inner);
        },
        {});
    pool.wait(outer);
    pool.wait_all();
    EXPECT_EQ(tasks_over_10ms(reg), 1);
  }
  {
    // Idle: a task's parallel_for initiator finishes its own iteration at
    // once, then waits ~50 ms for the other worker's iteration.
    metrics::Registry reg;
    Pool pool(2, &reg);
    std::atomic<bool> helper_started{false};
    std::thread::id initiator;
    auto n = pool.submit(
        [&] {
          initiator = std::this_thread::get_id();
          pool.parallel_for(2, [&](long) {
            if (std::this_thread::get_id() == initiator) {
              while (!helper_started.load()) std::this_thread::yield();
              return;
            }
            helper_started.store(true);
            std::this_thread::sleep_for(50ms);
          });
        },
        {});
    pool.wait(n);
    pool.wait_all();
    EXPECT_EQ(tasks_over_10ms(reg), 1);
  }
}

}  // namespace
}  // namespace legate::exec

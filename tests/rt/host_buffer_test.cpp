// Host buffer recycling (rt/host_buffer.h): buffers come back only when the
// last view drops, survive their Runtime safely, stay within the high-water
// bound, and change no computed bit; undeclared full writes show up through
// the poison pattern.
#include "rt/host_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "dense/array.h"
#include "metrics/metrics.h"
#include "rt/runtime.h"
#include "solve/krylov.h"
#include "sparse/formats.h"

namespace legate::rt {
namespace {

sim::Machine gpus(int n) {
  sim::PerfParams pp;
  return sim::Machine::gpus(n, pp);
}

RuntimeOptions threaded(int threads) {
  RuntimeOptions opts;
  opts.exec_threads = threads;
  opts.exec_pipeline = 1;
  return opts;
}

const std::byte* bytes_of(const Store& s) { return s.view().data->data(); }

/// One partitioned launch writing i*scale into the first `upto` elements of
/// `s` (all of them by default).
void launch_fill(Runtime& rt, Store& s, double scale, coord_t upto = -1) {
  if (upto < 0) upto = s.volume();
  TaskLauncher launch(rt, "fill");
  int out = launch.add_output(s);
  launch.set_leaf([out, scale, upto](TaskContext& ctx) {
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < std::min(iv.hi, upto); ++i) {
      y[i] = static_cast<double>(i) * scale;
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const Interval iv = ctx.elem_interval(out);
    return TaskCost{static_cast<double>(iv.size()) * 8, 0};
  });
  launch.execute();
}

std::uint64_t word_at(std::span<const double> sp, std::size_t i) {
  std::uint64_t w = 0;
  std::memcpy(&w, &sp[i], sizeof(w));
  return w;
}

double metric(Runtime& rt, const char* name) {
  metrics::Snapshot snap = rt.metrics_snapshot();
  const auto* m = snap.find(name);
  return m == nullptr ? -1.0 : m->value;
}

double reused(Runtime& rt) { return metric(rt, "lsr_rt_host_buffers_reused_total"); }

void expect_invariant(const detail::HostBufferPool::Stats& st) {
  EXPECT_LE(st.pooled_bytes + st.live_bytes, st.high_water_bytes);
}

TEST(HostBufferPool, PendingReaderKeepsDroppedStoreBuffer) {
  Runtime rt(gpus(4), threaded(4));
  ASSERT_TRUE(rt.pipelining());
  constexpr coord_t n = 4096;
  std::vector<double> init(static_cast<std::size_t>(n));
  std::iota(init.begin(), init.end(), 1.0);
  Store src = rt.attach(init);
  Store dst = rt.create_store(DType::F64, {n});
  const std::byte* src_bytes = bytes_of(src);

  // The leaf holds off until the control thread has dropped `src` and asked
  // for a same-size buffer.
  std::atomic<bool> gate{false};
  std::atomic<bool> timed_out{false};
  {
    TaskLauncher launch(rt, "gated_copy");  // its args hold Store handles too
    int in = launch.add_input(src);
    int out = launch.add_output(dst);
    launch.align(in, out);
    launch.set_leaf([in, out, &gate, &timed_out](TaskContext& ctx) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!gate.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out = true;
          break;
        }
        std::this_thread::yield();
      }
      auto a = ctx.full<double>(in);
      auto b = ctx.full<double>(out);
      Interval iv = ctx.elem_interval(out);
      for (coord_t i = iv.lo; i < iv.hi; ++i) b[i] = a[i];
    });
    launch.set_cost([=](const TaskContext& ctx) {
      const Interval iv = ctx.elem_interval(out);
      return TaskCost{static_cast<double>(iv.size()) * 16, 0};
    });
    launch.execute();
  }
  ASSERT_GT(rt.pending_launches(), 0u);

  src = Store();  // the last handle; the pending launch still reads the bytes
  Store again = rt.create_store(DType::F64, {n}, FirstWrite::Full);
  EXPECT_NE(bytes_of(again), src_bytes) << "buffer reused while a leaf reads it";
  gate.store(true, std::memory_order_release);
  rt.fence();
  EXPECT_FALSE(timed_out.load());

  auto got = dst.span<double>();
  EXPECT_EQ(std::vector<double>(got.begin(), got.end()), init);

  // Once the launch retired, the buffer is back and the next same-size store
  // gets it.
  const double before = reused(rt);
  Store later = rt.create_store(DType::F64, {n}, FirstWrite::Full);
  EXPECT_EQ(bytes_of(later), src_bytes);
  EXPECT_EQ(reused(rt), before + 1);
  expect_invariant(rt.host_buffers().stats());
}

TEST(HostBufferPool, ViewOutlivesRuntime) {
  detail::StoreView view;
  Store handle;
  {
    Runtime rt(gpus(2), threaded(4));
    Store scratch = rt.create_store(DType::F64, {512});
    launch_fill(rt, scratch, 1.0);
    scratch = Store();  // leaves a pooled buffer for ~Runtime to free
    handle = rt.attach(std::vector<double>(512, 2.5));
    view = handle.view();
  }
  // Both the handle and the view outlive the Runtime; dropping them frees
  // the buffer without a pool to return to.
  auto sp = view.span<double>();
  for (double v : sp) ASSERT_EQ(v, 2.5);
  sp[0] = 3.0;
  handle = Store();
  EXPECT_EQ(view.span<double>()[0], 3.0);
  view = {};
}

TEST(HostBufferPool, SameShapeCyclesReuseWithinHighWater) {
  Runtime rt(gpus(4), threaded(1));
  auto& pool = rt.host_buffers();
  const double fresh0 = metric(rt, "lsr_rt_host_buffers_fresh_total");
  const double reused0 = reused(rt);
  constexpr int kCycles = 20;
  constexpr coord_t n = 10000;
  for (int k = 0; k < kCycles; ++k) {
    Store s = rt.create_store(DType::F64, {n}, FirstWrite::Full);
    launch_fill(rt, s, static_cast<double>(k));
    EXPECT_EQ(s.span<double>()[n - 1], static_cast<double>((n - 1) * k));
    expect_invariant(pool.stats());
  }
  auto st = pool.stats();
  EXPECT_EQ(metric(rt, "lsr_rt_host_buffers_fresh_total") - fresh0, 1.0);
  EXPECT_EQ(reused(rt) - reused0, kCycles - 1.0);
  EXPECT_EQ(st.pooled_bytes, static_cast<std::size_t>(n) * sizeof(double));
  expect_invariant(st);

  // A larger store raises the high-water mark; keeping the idle buffer as
  // well would exceed it, so the pool frees it.
  Store big = rt.create_store(DType::F64, {2 * n});
  st = pool.stats();
  EXPECT_EQ(st.pooled_bytes, 0u);
  EXPECT_EQ(st.high_water_bytes, st.live_bytes);
  expect_invariant(st);

  // The pool metrics are Volatile; the gauge follows the pooled bytes.
  metrics::Snapshot snap = rt.metrics_snapshot();
  for (const char* name :
       {"lsr_rt_host_buffers_fresh_total", "lsr_rt_host_buffers_reused_total",
        "lsr_rt_host_buffer_pool_bytes"}) {
    const auto* m = snap.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->stability, metrics::Stability::Volatile) << name;
  }
  EXPECT_EQ(snap.find("lsr_rt_host_buffer_pool_bytes")->value, 0.0);
}

TEST(HostBufferPool, PartialFirstWriteIsZeroedEvenWhenRecycled) {
  Runtime rt(gpus(2), threaded(1));
  Store s = rt.create_store(DType::F64, {256});
  launch_fill(rt, s, 1.0);
  rt.fence();  // retire the launch (and its view) before the drop
  const std::byte* bytes = bytes_of(s);
  s = Store();
  Store t = rt.create_store(DType::F64, {256});
  ASSERT_EQ(bytes_of(t), bytes);
  for (double v : t.span<double>()) ASSERT_EQ(v, 0.0);
}

TEST(HostBufferPool, PoisonReachesDeliberatelyPartialWriter) {
  Runtime rt(gpus(4), threaded(1));
#ifdef LSR_SANITIZE
  EXPECT_TRUE(rt.host_buffers().poison());
#endif
  rt.host_buffers().set_poison(true);
  constexpr coord_t n = 1000;
  // Declared a full first write, but the launch only writes the first half.
  Store s = rt.create_store(DType::F64, {n}, FirstWrite::Full);
  launch_fill(rt, s, 2.0, n / 2);
  auto sp = s.span<double>();
  for (coord_t i = 0; i < n / 2; ++i) ASSERT_EQ(sp[i], 2.0 * static_cast<double>(i));
  for (coord_t i = n / 2; i < n; ++i) {
    ASSERT_TRUE(std::isnan(sp[i])) << i;
    ASSERT_EQ(word_at(sp, static_cast<std::size_t>(i)),
              detail::HostBufferPool::kPoisonWord);
  }

  // A recycled buffer is poisoned again, not left with the old bytes.
  const std::byte* bytes = bytes_of(s);
  s = Store();
  Store t = rt.create_store(DType::F64, {n}, FirstWrite::Full);
  ASSERT_EQ(bytes_of(t), bytes);
  auto tp = t.span<double>();
  for (std::size_t i = 0; i < tp.size(); ++i) {
    ASSERT_EQ(word_at(tp, i), detail::HostBufferPool::kPoisonWord) << i;
  }
}

TEST(HostBufferPool, IntegrityKeepsTheZeroFill) {
  RuntimeOptions opts = threaded(1);
  opts.integrity = Integrity::Detect;
  Runtime rt(gpus(2), opts);
  rt.host_buffers().set_poison(true);
  Store s = rt.create_store(DType::F64, {300}, FirstWrite::Full);
  for (double v : s.span<double>()) ASSERT_EQ(v, 0.0);
}

std::vector<double> solve_at(int threads, bool gmres, double* recycled) {
  Runtime rt(gpus(4), threaded(threads));
  sparse::CsrMatrix t = sparse::diags(rt, 24, {{-1, -1.0}, {0, 2.0}, {1, -1.0}});
  sparse::CsrMatrix i = sparse::eye(rt, 24);
  sparse::CsrMatrix A = sparse::kron(i, t).add(sparse::kron(t, i));
  auto b = dense::DArray::full(rt, A.rows(), 1.0);
  auto res = gmres ? solve::gmres(A, b, 10, 1e-10, 400) : solve::cg(A, b, 1e-10, 400);
  std::vector<double> x = res.x.to_vector();
  *recycled = reused(rt);
  return x;
}

TEST(HostBufferPool, KrylovBitIdenticalAcrossThreads) {
  for (bool gmres : {false, true}) {
    double recycled1 = 0;
    const std::vector<double> ref = solve_at(1, gmres, &recycled1);
    EXPECT_GT(recycled1, 0) << "the solve never recycled a buffer";
    for (int threads : {4, 8}) {
      double recycled = 0;
      const std::vector<double> x = solve_at(threads, gmres, &recycled);
      ASSERT_EQ(x.size(), ref.size());
      EXPECT_EQ(std::memcmp(x.data(), ref.data(), x.size() * sizeof(double)), 0)
          << (gmres ? "gmres" : "cg") << " at " << threads << " threads";
      EXPECT_GT(recycled, 0);
    }
  }
}

}  // namespace
}  // namespace legate::rt

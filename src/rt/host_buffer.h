#pragma once

// Canonical host buffers and the per-Runtime pool that recycles them
// (DESIGN.md §5, "Host buffer lifecycle").

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "metrics/metrics.h"

namespace legate::rt::detail {

/// The canonical bytes of one store: a fixed-size heap array. What it holds
/// when handed out is the pool's decision (zeros, the poison pattern, or a
/// previous store's bytes).
class HostBuffer {
 public:
  /// `zeroed` allocates with calloc, so fresh pages stay untouched until
  /// first written; otherwise the bytes are uninitialized.
  HostBuffer(std::size_t size, bool zeroed);
  ~HostBuffer();
  HostBuffer(const HostBuffer&) = delete;
  HostBuffer& operator=(const HostBuffer&) = delete;

  [[nodiscard]] std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::byte* data_;
  std::size_t size_;
};

/// Size-keyed pool of canonical host buffers, owned by one Runtime: the host
/// counterpart of the simulator's per-memory allocation pool (the paper's
/// mapper reuses out-of-scope instances, §4.2 / Fig. 5).
///
/// A buffer comes back from its shared_ptr deleter, i.e. when the last
/// StoreView drops, so a buffer a deferred launch still reads is never
/// handed out again early. Deleters run on whichever thread drops that view
/// (often an exec worker), hence the mutex. They hold the pool weakly: once
/// the owning Runtime is gone, a returned buffer is simply freed.
///
/// Bound, with no constant: let `live` be the bytes handed out and not yet
/// returned, and `high_water` the largest `live` seen. The pool keeps
/// `pooled + live <= high_water` at all times: a returned buffer is freed
/// when keeping it would break that, and a fresh allocation that raises
/// `live` evicts the oldest pooled buffers until it holds again. So pooling
/// never makes the canonical footprint larger than it has already been.
class HostBufferPool : public std::enable_shared_from_this<HostBufferPool> {
 public:
  struct Stats {
    std::size_t live_bytes{0};        ///< handed out, not yet returned
    std::size_t pooled_bytes{0};      ///< idle in the pool
    std::size_t high_water_bytes{0};  ///< largest live_bytes so far
  };

  /// `fresh`/`reused` count acquires; `pooled_bytes` tracks idle bytes.
  /// All three are Volatile: returns happen when the last view drops, which
  /// depends on leaf timing and thread count.
  HostBufferPool(metrics::Counter fresh, metrics::Counter reused,
                 metrics::Gauge pooled_bytes);
  HostBufferPool(const HostBufferPool&) = delete;
  HostBufferPool& operator=(const HostBufferPool&) = delete;

  /// A buffer of exactly `size` bytes. With `zero` its bytes are all zero;
  /// otherwise the caller promises to overwrite every byte before reading
  /// any, and the bytes are left as found (or poisoned, see set_poison).
  [[nodiscard]] std::shared_ptr<HostBuffer> acquire(std::size_t size, bool zero);

  /// Free every pooled buffer and stop pooling; buffers returned later are
  /// freed. Detaches the metric handles, whose registry dies with the
  /// Runtime. Called from ~Runtime.
  void close();

  [[nodiscard]] Stats stats() const;

  /// Fill every buffer handed out without a zero fill, fresh or recycled,
  /// with a signalling-NaN word pattern (kPoisonWord), so a declared full
  /// overwrite that misses elements shows up in results. On by default in
  /// LSR_SANITIZE builds.
  void set_poison(bool on) { poison_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool poison() const { return poison_.load(std::memory_order_relaxed); }

  /// Signalling NaN as F64 (quiet bit clear); as I64 or Rect1 bounds, an
  /// index far outside any store.
  static constexpr std::uint64_t kPoisonWord = 0x7FF4'0000'0000'0001ULL;

 private:
  struct Return {
    std::weak_ptr<HostBufferPool> pool;
    void operator()(HostBuffer* buf) const;
  };
  void give_back(std::unique_ptr<HostBuffer> buf);

  mutable std::mutex mu_;
  std::deque<std::unique_ptr<HostBuffer>> free_;  ///< oldest return first
  Stats stats_;
  bool closed_{false};
  metrics::Counter fresh_, reused_;
  metrics::Gauge pooled_gauge_;
#ifdef LSR_SANITIZE
  std::atomic<bool> poison_{true};
#else
  std::atomic<bool> poison_{false};
#endif
};

}  // namespace legate::rt::detail

#include "rt/host_buffer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

namespace legate::rt::detail {

HostBuffer::HostBuffer(std::size_t size, bool zeroed)
    : data_(static_cast<std::byte*>(zeroed ? std::calloc(size, 1) : std::malloc(size))),
      size_(size) {
  if (data_ == nullptr && size > 0) throw std::bad_alloc();
}

HostBuffer::~HostBuffer() { std::free(data_); }

HostBufferPool::HostBufferPool(metrics::Counter fresh, metrics::Counter reused,
                               metrics::Gauge pooled_bytes)
    : fresh_(fresh), reused_(reused), pooled_gauge_(pooled_bytes) {}

std::shared_ptr<HostBuffer> HostBufferPool::acquire(std::size_t size, bool zero) {
  std::unique_ptr<HostBuffer> buf;
  std::vector<std::unique_ptr<HostBuffer>> evicted;  // freed after unlocking
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.live_bytes += size;
    // Newest first: the most recently returned buffer is the warmest.
    for (auto it = free_.rbegin(); it != free_.rend(); ++it) {
      if ((*it)->size() != size) continue;
      buf = std::move(*it);
      free_.erase(std::next(it).base());
      stats_.pooled_bytes -= size;
      break;
    }
    if (buf != nullptr) {
      reused_.inc();
    } else {
      fresh_.inc();
      stats_.high_water_bytes = std::max(stats_.high_water_bytes, stats_.live_bytes);
      while (stats_.pooled_bytes + stats_.live_bytes > stats_.high_water_bytes) {
        stats_.pooled_bytes -= free_.front()->size();
        evicted.push_back(std::move(free_.front()));
        free_.pop_front();
      }
    }
    pooled_gauge_.set(static_cast<double>(stats_.pooled_bytes));
  }
  if (buf == nullptr) {
    buf = std::make_unique<HostBuffer>(size, zero);
  } else if (zero) {
    std::memset(buf->data(), 0, size);
  }
  if (!zero && poison()) {
    for (std::size_t off = 0; off + sizeof(kPoisonWord) <= size; off += sizeof(kPoisonWord)) {
      std::memcpy(buf->data() + off, &kPoisonWord, sizeof(kPoisonWord));
    }
  }
  return {buf.release(), Return{weak_from_this()}};
}

void HostBufferPool::Return::operator()(HostBuffer* buf) const {
  std::unique_ptr<HostBuffer> owned(buf);
  if (auto p = pool.lock()) p->give_back(std::move(owned));
}

void HostBufferPool::give_back(std::unique_ptr<HostBuffer> buf) {
  const std::size_t size = buf->size();
  std::lock_guard<std::mutex> lk(mu_);  // released before `buf` is freed
  if (closed_) return;
  stats_.live_bytes -= size;
  if (size == 0 ||
      stats_.pooled_bytes + size + stats_.live_bytes > stats_.high_water_bytes) {
    return;
  }
  stats_.pooled_bytes += size;
  free_.push_back(std::move(buf));
  pooled_gauge_.set(static_cast<double>(stats_.pooled_bytes));
}

void HostBufferPool::close() {
  std::deque<std::unique_ptr<HostBuffer>> doomed;
  std::lock_guard<std::mutex> lk(mu_);
  closed_ = true;
  doomed.swap(free_);
  stats_.pooled_bytes = 0;
  fresh_ = {};
  reused_ = {};
  pooled_gauge_ = {};
}

HostBufferPool::Stats HostBufferPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace legate::rt::detail

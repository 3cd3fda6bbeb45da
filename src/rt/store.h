#pragma once

#include <memory>
#include <span>
#include <vector>

#include "rt/dtype.h"
#include "rt/host_buffer.h"
#include "util/interval.h"

namespace legate::rt {

class Runtime;
using StoreId = std::uint64_t;

namespace detail {
/// Backing state of a store. The canonical data always lives in this host
/// buffer (leaf tasks compute on it directly and bit-exactly); the runtime's
/// allocation/validity machinery models where copies of it live on the
/// simulated machine. On destruction the runtime is notified so simulated
/// allocations are released (this is what lets the mapper reuse the
/// out-of-scope x0 allocations in the paper's Fig. 5 walk-through).
///
/// The buffer comes from the Runtime's HostBufferPool (rt/host_buffer.h)
/// and is held through a shared_ptr: deferred launches (legate::exec) keep
/// the *bytes* alive via StoreView without extending the store's
/// runtime-visible lifetime, so release accounting still fires at the
/// caller's drop position in the task stream, while the buffer itself goes
/// back to the pool only when the last view drops. It starts zeroed unless
/// the creator declared a full first write (FirstWrite::Full); then it
/// holds stale bytes, or the poison pattern in LSR_SANITIZE builds.
struct StoreImpl {
  StoreImpl(Runtime* rt_, StoreId id_, DType dtype_, std::vector<coord_t> shape_,
            HostBufferPool& buffers, bool zero);
  ~StoreImpl();
  StoreImpl(const StoreImpl&) = delete;
  StoreImpl& operator=(const StoreImpl&) = delete;

  Runtime* rt;
  StoreId id;
  DType dtype;
  std::vector<coord_t> shape;  ///< 1 or 2 dims; 2-D is row-major
  std::shared_ptr<HostBuffer> data;

  [[nodiscard]] coord_t volume() const {
    coord_t v = 1;
    for (auto s : shape) v *= s;
    return v;
  }
};

/// Out-of-line fence hook (Runtime is incomplete here): drains the deferred
/// execution pipeline before the caller touches canonical bytes, and marks
/// the store externally accessed (spans are mutable, so cached
/// eagerly-computed image partitions of it must be invalidated).
void sync_for_access(const StoreImpl* impl);

/// Identity + canonical-buffer view of a store, used by the deferred
/// execution path (leaf tasks on pool threads, replayed simulation
/// accounting). Copyable into closures; does NOT fence on access.
struct StoreView {
  StoreId id{0};
  DType dtype{DType::F64};
  coord_t basis{0};   ///< partitionable units (rows for 2-D)
  coord_t stride{1};  ///< elements per basis unit
  coord_t volume{0};
  std::shared_ptr<HostBuffer> data;

  [[nodiscard]] Interval extent() const { return {0, volume}; }
  [[nodiscard]] std::span<std::byte> raw() const { return {data->data(), data->size()}; }
  template <typename T>
  [[nodiscard]] std::span<T> span() const {
    LSR_CHECK(dtype_of<T>::value == dtype);
    return {reinterpret_cast<T*>(data->data()), static_cast<std::size_t>(volume)};
  }
};
}  // namespace detail

/// Lightweight handle to a region-backed array (a Legate "store").
/// Copies share the same underlying data, like Legion region handles.
class Store {
 public:
  Store() = default;
  explicit Store(std::shared_ptr<detail::StoreImpl> impl) : impl_(std::move(impl)) {}

  [[nodiscard]] bool valid() const { return impl_ != nullptr; }
  [[nodiscard]] StoreId id() const { return impl_->id; }
  [[nodiscard]] DType dtype() const { return impl_->dtype; }
  [[nodiscard]] const std::vector<coord_t>& shape() const { return impl_->shape; }
  [[nodiscard]] int dim() const { return static_cast<int>(impl_->shape.size()); }
  [[nodiscard]] coord_t volume() const { return impl_->volume(); }
  /// Number of partitionable basis units: rows for 2-D, elements for 1-D.
  [[nodiscard]] coord_t basis() const { return impl_->shape[0]; }
  /// Elements per basis unit (row length for 2-D, 1 for 1-D).
  [[nodiscard]] coord_t stride() const {
    return dim() == 2 ? impl_->shape[1] : 1;
  }
  [[nodiscard]] Interval extent() const { return {0, volume()}; }
  [[nodiscard]] Runtime& runtime() const { return *impl_->rt; }

  /// Raw view of the canonical byte buffer (checkpoint snapshots). Observes
  /// real data: drains any deferred execution first (a fence point).
  [[nodiscard]] std::span<std::byte> raw() const {
    detail::sync_for_access(impl_.get());
    return {impl_->data->data(), impl_->data->size()};
  }

  /// Typed view of the whole canonical buffer. Observes real data: drains
  /// any deferred execution first (a fence point).
  template <typename T>
  [[nodiscard]] std::span<T> span() const {
    LSR_CHECK(dtype_of<T>::value == impl_->dtype);
    detail::sync_for_access(impl_.get());
    return {reinterpret_cast<T*>(impl_->data->data()),
            static_cast<std::size_t>(volume())};
  }

  /// Deferred-execution view (no fence). Internal to the runtime/exec stack.
  [[nodiscard]] detail::StoreView view() const {
    return {impl_->id, impl_->dtype, basis(), stride(), volume(), impl_->data};
  }

  [[nodiscard]] bool same_as(const Store& o) const { return impl_ == o.impl_; }

 private:
  std::shared_ptr<detail::StoreImpl> impl_;
};

}  // namespace legate::rt

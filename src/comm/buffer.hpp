// Zero-copy payload buffers for the in-process transport tier.
//
// Ranks are threads in one address space, so a payload never needs to be
// serialized onto a wire — an envelope only needs shared ownership of the
// sender's bytes. Buffer is that ownership handle: a ref-counted,
// type-erased holder with two acquisition paths (DESIGN.md §2.2):
//
//  - copy_of(span):   the eager path — bytes are copied into transport
//                     storage (a pooled arena block when they fit, heap
//                     otherwise). The only path that costs a memcpy; the
//                     copied volume is what CommStats::bytes_copied counts.
//  - adopt(vector):   the zero-copy move path — the sender's vector is
//                     moved into shared ownership. A receiver that asks for
//                     the same element type can take_vector() it back out,
//                     making the whole transfer copy-free end to end.
//
// Buffers are immutable after construction; fault injection that wants to
// tamper with bytes must clone first (mutable_data() refuses shared
// storage), so injected corruption can never damage live sender data that
// a zero-copy envelope shares.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <typeinfo>
#include <vector>

#include "util/error.hpp"

namespace pyhpc::comm {

/// Thread-safe freelist of fixed-size blocks backing small eager copies.
/// Blocks outlive the arena if an envelope escapes it: the block deleter
/// holds the shared core, so returning (or discarding past the cap) is
/// always safe.
class BufferArena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 8192;
  static constexpr std::size_t kDefaultMaxBlocks = 64;

  explicit BufferArena(std::size_t block_bytes = kDefaultBlockBytes,
                       std::size_t max_free_blocks = kDefaultMaxBlocks)
      : core_(std::make_shared<Core>()) {
    core_->block_bytes = block_bytes == 0 ? kDefaultBlockBytes : block_bytes;
    core_->max_free = max_free_blocks;
  }

  std::size_t block_bytes() const { return core_->block_bytes; }

  /// Pooled storage for `n` bytes, or null when `n` exceeds the block
  /// size (callers fall back to heap storage). `reused_out` reports
  /// whether a freelisted block was recycled (arena hit) or a fresh block
  /// was allocated (miss).
  std::shared_ptr<std::byte[]> acquire(std::size_t n, bool* reused_out);

  /// Blocks currently parked on the freelist (tests/instrumentation).
  std::size_t free_blocks() const {
    std::lock_guard<std::mutex> lock(core_->mu);
    return core_->free.size();
  }

 private:
  struct Core {
    std::mutex mu;
    std::vector<std::unique_ptr<std::byte[]>> free;
    std::size_t block_bytes = kDefaultBlockBytes;
    std::size_t max_free = kDefaultMaxBlocks;
  };
  std::shared_ptr<Core> core_;
};

/// Ref-counted payload storage carried by an Envelope. Copying a Buffer
/// shares the bytes (fault-injected duplicates cost nothing); the bytes
/// themselves are only ever copied on the eager path or on a typed decode
/// whose element type doesn't match the adopted storage.
class Buffer {
 public:
  Buffer() = default;

  /// Eager path: copies `data` into transport storage. Small payloads use
  /// a pooled arena block when `arena` is non-null; `pooled_out` (optional)
  /// reports whether a recycled block served the copy.
  static Buffer copy_of(std::span<const std::byte> data,
                        BufferArena* arena = nullptr,
                        bool* pooled_out = nullptr);

  /// Zero-copy move path: adopts the vector's storage. A matching
  /// take_vector<T>() on the receive side moves it back out.
  template <class T>
  static Buffer adopt(std::vector<T>&& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Buffer b;
    auto held = std::make_shared<std::vector<T>>(std::move(v));
    b.data_ = reinterpret_cast<const std::byte*>(held->data());
    b.size_ = held->size() * sizeof(T);
    b.held_type_ = &typeid(std::vector<T>);
    b.zero_copy_ = true;
    b.holder_ = std::move(held);
    return b;
  }

  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True when constructing this buffer cost no payload copy (adopted
  /// storage).
  bool zero_copy() const { return zero_copy_; }

  /// Moves an adopted vector back out when the element type matches and
  /// this Buffer is the storage's sole owner; nullopt means the caller
  /// must fall back to a copying decode (type mismatch, or shared with a
  /// fault-injected duplicate).
  template <class T>
  std::optional<std::vector<T>> take_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (held_type_ == nullptr || *held_type_ != typeid(std::vector<T>)) {
      return std::nullopt;
    }
    if (holder_.use_count() != 1) return std::nullopt;
    auto held = std::static_pointer_cast<std::vector<T>>(
        std::const_pointer_cast<void>(holder_));
    std::vector<T> out = std::move(*held);
    held.reset();
    reset();
    return out;
  }

  /// Byte-vector extraction for recv_bytes: moves when this is the sole
  /// owner of adopted byte storage, copies otherwise (e.g. arena blocks,
  /// which must return to the pool intact).
  std::vector<std::byte> take_bytes() {
    if (auto v = take_vector<std::byte>()) return std::move(*v);
    std::vector<std::byte> out(size_);
    if (size_ != 0) std::memcpy(out.data(), data_, size_);
    return out;
  }

  /// Writable access for fault injection only: requires uniquely owned
  /// storage, so tampering cannot reach bytes a sender or duplicate still
  /// shares.
  std::byte* mutable_data() {
    require<CommError>(holder_.use_count() == 1,
                       "Buffer::mutable_data: storage is shared; clone "
                       "before mutating");
    return const_cast<std::byte*>(data_);
  }

 private:
  void reset() {
    holder_.reset();
    data_ = nullptr;
    size_ = 0;
    zero_copy_ = false;
    held_type_ = nullptr;
  }

  std::shared_ptr<void> holder_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool zero_copy_ = false;
  const std::type_info* held_type_ = nullptr;  // set by adopt() for take_vector
};

}  // namespace pyhpc::comm

#include "comm/buffer.hpp"

namespace pyhpc::comm {

std::shared_ptr<std::byte[]> BufferArena::acquire(std::size_t n,
                                                  bool* reused_out) {
  if (n > core_->block_bytes || n == 0) return nullptr;
  std::unique_ptr<std::byte[]> block;
  bool reused = false;
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    if (!core_->free.empty()) {
      block = std::move(core_->free.back());
      core_->free.pop_back();
      reused = true;
    }
  }
  if (!block) {
    block = std::make_unique<std::byte[]>(core_->block_bytes);
  }
  if (reused_out != nullptr) *reused_out = reused;
  // The deleter captures the shared core, so a block escaping the arena's
  // lifetime is still returned (or discarded) safely.
  std::shared_ptr<Core> core = core_;
  return std::shared_ptr<std::byte[]>(
      block.release(), [core](std::byte* p) {
        std::unique_ptr<std::byte[]> owned(p);
        std::lock_guard<std::mutex> lock(core->mu);
        if (core->free.size() < core->max_free) {
          core->free.push_back(std::move(owned));
        }
      });
}

Buffer Buffer::copy_of(std::span<const std::byte> data, BufferArena* arena,
                       bool* pooled_out) {
  if (pooled_out != nullptr) *pooled_out = false;
  Buffer b;
  if (data.empty()) return b;
  if (arena != nullptr) {
    bool reused = false;
    if (auto block = arena->acquire(data.size(), &reused)) {
      std::memcpy(block.get(), data.data(), data.size());
      b.data_ = block.get();
      b.size_ = data.size();
      b.holder_ = std::move(block);
      if (pooled_out != nullptr) *pooled_out = reused;
      return b;
    }
  }
  // Heap fallback (no arena, or payload exceeds the block size). Adopted
  // as a byte vector so a receive-side take_bytes() can still move it out.
  std::vector<std::byte> copy(data.begin(), data.end());
  b = Buffer::adopt(std::move(copy));
  b.zero_copy_ = false;  // the copy above is a real transport copy
  return b;
}

}  // namespace pyhpc::comm

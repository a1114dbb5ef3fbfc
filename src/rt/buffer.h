// Reference-counted buffer handles over a recycling pool.
//
// hic-rt produce commands carry word payloads whose lifetime is decoupled
// from the submitting client: a buffer may be referenced by the caller
// and the queued or in-flight command simultaneously, across threads. The XRT
// execution model (SNIPPETS.md) solves this with reference-counted buffer
// objects handed out by the runtime; this is the same shape sized for the
// simulator pool. Blocks are owned by the pool and recycled through a
// free list, so steady-state traffic allocates nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace hicsync::rt {

class BufferPool;

/// A shared reference to one pool-owned block of 64-bit words. Copying
/// bumps the reference count; the last handle to go returns the block to
/// its pool's free list. A default-constructed handle is empty (false).
/// Handles must not outlive the pool.
class BufferHandle {
 public:
  BufferHandle() = default;
  BufferHandle(const BufferHandle& other);
  BufferHandle(BufferHandle&& other) noexcept;
  BufferHandle& operator=(const BufferHandle& other);
  BufferHandle& operator=(BufferHandle&& other) noexcept;
  ~BufferHandle();

  explicit operator bool() const { return block_ != nullptr; }

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::uint64_t* data() const;
  [[nodiscard]] std::uint64_t* data();
  std::uint64_t& operator[](std::size_t i) { return data()[i]; }
  std::uint64_t operator[](std::size_t i) const { return data()[i]; }

  /// Current reference count (for tests and stats; racy by nature).
  [[nodiscard]] int use_count() const;

  void reset();

 private:
  friend class BufferPool;
  struct Block;
  explicit BufferHandle(Block* block) : block_(block) {}

  Block* block_ = nullptr;
};

/// Owns every block it ever allocated; freed blocks are recycled by
/// capacity. Thread-safe: allocate/release may race from any thread.
class BufferPool {
 public:
  BufferPool();   // out of line: Block is incomplete here
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A handle to a zero-filled buffer of `words` words (refcount 1).
  [[nodiscard]] BufferHandle allocate(std::size_t words);

  struct Stats {
    std::uint64_t allocated = 0;  // blocks ever created
    std::uint64_t reused = 0;     // allocations served from the free list
    std::uint64_t live = 0;       // handles outstanding (blocks in use)
  };
  [[nodiscard]] Stats stats() const;

 private:
  friend class BufferHandle;
  void release(BufferHandle::Block* block);

  mutable std::mutex mu_;
  std::deque<std::unique_ptr<BufferHandle::Block>> blocks_;
  std::vector<BufferHandle::Block*> free_;
  std::uint64_t allocated_ = 0;
  std::uint64_t reused_ = 0;
};

}  // namespace hicsync::rt

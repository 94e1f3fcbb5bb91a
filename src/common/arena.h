#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace bufferdb {

/// Bump allocator backing tuple storage and per-query working memory.
///
/// Allocations are never freed individually; the whole arena is released at
/// once. Tuples produced by operators live in an arena owned by the execution
/// context, which is what makes pointer-based buffering safe (the paper's §5
/// note: buffered tuples must not be deallocated until consumed).
class Arena {
 public:
  static constexpr size_t kDefaultChunkBytes = 256 * 1024;

  explicit Arena(size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates `bytes` with 8-byte alignment. Never returns nullptr. The
  /// bytes are not initialized: chunks are not zeroed, and the caller
  /// writes every byte it later reads.
  uint8_t* Allocate(size_t bytes);

  /// Total bytes handed out (excluding per-chunk slack).
  size_t bytes_allocated() const { return bytes_allocated_; }

  /// Releases all memory; existing pointers become dangling.
  void Reset();

 private:
  size_t chunk_bytes_;
  size_t bytes_allocated_ = 0;
  size_t offset_ = 0;
  size_t current_capacity_ = 0;
  uint8_t* current_ = nullptr;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
};

}  // namespace bufferdb


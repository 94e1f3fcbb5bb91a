#include "common/arena.h"

#include <algorithm>

namespace bufferdb {

uint8_t* Arena::Allocate(size_t bytes) {
  // Keep 8-byte alignment for all allocations.
  size_t aligned = (bytes + 7) & ~size_t{7};
  if (offset_ + aligned > current_capacity_) {
    size_t cap = std::max(chunk_bytes_, aligned);
    chunks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(cap));
    current_ = chunks_.back().get();
    current_capacity_ = cap;
    offset_ = 0;
  }
  uint8_t* out = current_ + offset_;
  offset_ += aligned;
  bytes_allocated_ += aligned;
  return out;
}

void Arena::Reset() {
  chunks_.clear();
  current_ = nullptr;
  current_capacity_ = 0;
  offset_ = 0;
  bytes_allocated_ = 0;
}

}  // namespace bufferdb

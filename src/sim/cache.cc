#include "sim/cache.h"

#include <cassert>

namespace bufferdb::sim {

namespace {

uint64_t Log2Floor(uint64_t v) {
  uint64_t r = 0;
  while (v > 1) {
    v >>= 1;
    ++r;
  }
  return r;
}

}  // namespace

SetAssocCache::SetAssocCache(const CacheGeometry& geometry)
    : geometry_(geometry) {
  assert(geometry_.line_bytes > 0 && geometry_.ways > 0);
  sets_ = geometry_.capacity_bytes / (geometry_.line_bytes * geometry_.ways);
  if (sets_ == 0) sets_ = 1;
  line_shift_ = Log2Floor(geometry_.line_bytes);
  lines_.resize(sets_ * geometry_.ways);
}

bool SetAssocCache::Access(uint64_t addr) {
  ++stats_.accesses;
  uint64_t line_addr = addr >> line_shift_;
  uint64_t set = line_addr % sets_;
  uint64_t tag = line_addr / sets_;
  Line* base = SetBase(set);
  ++tick_;

  Line* victim = base;
  for (uint64_t w = 0; w < geometry_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru = tick_;
      if (line.prefetched) {
        ++stats_.prefetch_hits;
        line.prefetched = false;
      }
      return true;
    }
    if (!line.valid) {
      victim = &line;
    } else if (victim->valid && line.lru < victim->lru) {
      victim = &line;
    }
  }
  ++stats_.misses;
  victim->valid = true;
  victim->tag = tag;
  victim->lru = tick_;
  victim->prefetched = false;
  return false;
}

void SetAssocCache::Prefetch(uint64_t addr) {
  uint64_t line_addr = addr >> line_shift_;
  uint64_t set = line_addr % sets_;
  uint64_t tag = line_addr / sets_;
  Line* base = SetBase(set);
  ++tick_;

  Line* victim = base;
  for (uint64_t w = 0; w < geometry_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      // Already resident; do not disturb LRU for a prefetch.
      return;
    }
    if (!line.valid) {
      victim = &line;
    } else if (victim->valid && line.lru < victim->lru) {
      victim = &line;
    }
  }
  ++stats_.prefetches_issued;
  victim->valid = true;
  victim->tag = tag;
  victim->lru = tick_;
  victim->prefetched = true;
}

bool SetAssocCache::Contains(uint64_t addr) const {
  uint64_t line_addr = addr >> line_shift_;
  uint64_t set = line_addr % sets_;
  uint64_t tag = line_addr / sets_;
  const Line* base = SetBase(set);
  for (uint64_t w = 0; w < geometry_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void SetAssocCache::Flush() {
  for (Line& line : lines_) line = Line();
}

FullyAssocLruCache::FullyAssocLruCache(uint64_t capacity_bytes,
                                       uint64_t line_bytes)
    : line_bytes_(line_bytes), line_shift_(Log2Floor(line_bytes)) {
  uint64_t capacity_lines = capacity_bytes / line_bytes;
  if (capacity_lines == 0) capacity_lines = 1;
  nodes_.resize(capacity_lines);
  map_.reserve(2 * capacity_lines);
  Flush();
}

void FullyAssocLruCache::Unlink(int32_t i) {
  Node& n = nodes_[i];
  if (n.prev >= 0) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next >= 0) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void FullyAssocLruCache::PushFront(int32_t i) {
  Node& n = nodes_[i];
  n.prev = -1;
  n.next = head_;
  if (head_ >= 0) nodes_[head_].prev = i;
  head_ = i;
  if (tail_ < 0) tail_ = i;
}

int32_t FullyAssocLruCache::InsertLine(uint64_t line, bool prefetched) {
  int32_t i;
  if (free_ >= 0) {
    i = free_;
    free_ = nodes_[i].next;
  } else {
    i = tail_;  // Evict LRU.
    Unlink(i);
    map_.erase(nodes_[i].line);
  }
  nodes_[i].line = line;
  nodes_[i].prefetched = prefetched;
  PushFront(i);
  map_[line] = i;
  return i;
}

bool FullyAssocLruCache::Access(uint64_t addr) {
  ++stats_.accesses;
  uint64_t line = addr >> line_shift_;
  auto it = map_.find(line);
  if (it != map_.end()) {
    int32_t i = it->second;
    if (nodes_[i].prefetched) {
      ++stats_.prefetch_hits;
      nodes_[i].prefetched = false;
    }
    if (head_ != i) {
      Unlink(i);
      PushFront(i);
    }
    return true;
  }
  ++stats_.misses;
  InsertLine(line, /*prefetched=*/false);
  return false;
}

void FullyAssocLruCache::Prefetch(uint64_t addr) {
  uint64_t line = addr >> line_shift_;
  if (map_.count(line) > 0) return;
  ++stats_.prefetches_issued;
  InsertLine(line, /*prefetched=*/true);
}

bool FullyAssocLruCache::Contains(uint64_t addr) const {
  return map_.count(addr >> line_shift_) > 0;
}

void FullyAssocLruCache::Flush() {
  map_.clear();
  head_ = tail_ = -1;
  free_ = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].next = i + 1 < nodes_.size() ? static_cast<int32_t>(i + 1) : -1;
    nodes_[i].prev = -1;
  }
}

Itlb::Itlb(uint32_t entries, uint32_t page_bytes)
    : page_shift_(static_cast<uint32_t>(Log2Floor(page_bytes))),
      sets_(entries / kWays == 0 ? 1 : entries / kWays),
      entries_(static_cast<size_t>(sets_) * kWays) {}

bool Itlb::Access(uint64_t addr) {
  uint64_t page = addr >> page_shift_;
  if (page == last_page_) return true;  // Fast path: no stats churn.
  last_page_ = page;
  ++accesses_;
  ++tick_;
  Entry* set = &entries_[(page % sets_) * kWays];
  Entry* victim = set;
  for (uint32_t w = 0; w < kWays; ++w) {
    Entry& e = set[w];
    if (e.page == page) {
      e.lru = tick_;
      return true;
    }
    if (e.lru < victim->lru) victim = &e;
  }
  ++misses_;
  victim->page = page;
  victim->lru = tick_;
  return false;
}

void Itlb::Flush() {
  for (Entry& e : entries_) e = Entry();
  last_page_ = ~0ULL;
}

}  // namespace bufferdb::sim

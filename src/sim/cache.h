#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace bufferdb::sim {

/// Geometry of one cache level.
struct CacheGeometry {
  uint64_t capacity_bytes = 16 * 1024;
  uint64_t line_bytes = 64;
  uint64_t ways = 8;
};

struct CacheStats {
  uint64_t accesses = 0;
  uint64_t misses = 0;
  /// Demand accesses that hit a line brought in by the prefetcher.
  uint64_t prefetch_hits = 0;
  uint64_t prefetches_issued = 0;
};

/// Set-associative cache with true-LRU replacement.
///
/// Models capacity/conflict behaviour only; data contents are not stored.
/// Used for the L1 instruction cache (trace-cache equivalent), the L1 data
/// cache and the unified L2 of the simulated machine.
class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheGeometry& geometry);

  /// Demand access. Returns true on hit. On miss the line is filled,
  /// evicting the LRU way.
  bool Access(uint64_t addr);

  /// Inserts a line on behalf of the hardware prefetcher (no miss counted).
  void Prefetch(uint64_t addr);

  /// True if the line containing `addr` is resident.
  bool Contains(uint64_t addr) const;

  void Flush();

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats(); }

  uint64_t num_sets() const { return sets_; }
  uint64_t line_bytes() const { return geometry_.line_bytes; }
  const CacheGeometry& geometry() const { return geometry_; }

 private:
  struct Line {
    uint64_t tag = 0;
    uint64_t lru = 0;
    bool valid = false;
    bool prefetched = false;
  };

  Line* SetBase(uint64_t set) { return &lines_[set * geometry_.ways]; }
  const Line* SetBase(uint64_t set) const {
    return &lines_[set * geometry_.ways];
  }

  CacheGeometry geometry_;
  uint64_t sets_;
  uint64_t line_shift_;
  uint64_t tick_ = 0;
  CacheStats stats_;
  std::vector<Line> lines_;
};

/// Fully-associative LRU cache with O(1) access (hash map + intrusive LRU
/// list over preallocated nodes). Models the L1 instruction side: the
/// Pentium 4 trace cache replaces traces quasi-fully-associatively, so
/// residency is governed by capacity alone — a working set of at most
/// `capacity / line_bytes` lines never misses after warmup, and a cyclic
/// sweep over a larger set always misses.
class FullyAssocLruCache {
 public:
  FullyAssocLruCache(uint64_t capacity_bytes, uint64_t line_bytes);

  /// Demand access; returns true on hit.
  bool Access(uint64_t addr);
  /// Prefetch insert (no miss counted, MRU position).
  void Prefetch(uint64_t addr);
  bool Contains(uint64_t addr) const;
  void Flush();

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats(); }
  uint64_t line_bytes() const { return line_bytes_; }

 private:
  struct Node {
    uint64_t line = 0;
    int32_t prev = -1;
    int32_t next = -1;
    bool prefetched = false;
  };

  void Unlink(int32_t i);
  void PushFront(int32_t i);
  int32_t InsertLine(uint64_t line, bool prefetched);

  uint64_t line_bytes_;
  uint64_t line_shift_;
  CacheStats stats_;
  std::vector<Node> nodes_;
  std::unordered_map<uint64_t, int32_t> map_;
  int32_t head_ = -1;  // MRU.
  int32_t tail_ = -1;  // LRU.
  int32_t free_ = -1;  // Free list via `next`.
};

/// Instruction TLB over virtual page numbers: 4-way set-associative LRU
/// (matching real ITLB organizations and keeping lookups cheap), with a
/// one-entry fast path for consecutive fetches from the same page.
class Itlb {
 public:
  static constexpr uint32_t kWays = 4;

  Itlb(uint32_t entries, uint32_t page_bytes);

  /// Returns true on hit for the page containing `addr`.
  bool Access(uint64_t addr);

  uint64_t accesses() const { return accesses_; }
  uint64_t misses() const { return misses_; }
  void ResetStats() {
    accesses_ = 0;
    misses_ = 0;
  }
  void Flush();

 private:
  struct Entry {
    uint64_t page = ~0ULL;
    uint64_t lru = 0;
  };

  uint32_t page_shift_;
  uint32_t sets_;
  uint64_t last_page_ = ~0ULL;
  uint64_t tick_ = 0;
  uint64_t accesses_ = 0;
  uint64_t misses_ = 0;
  std::vector<Entry> entries_;  // sets_ x kWays.
};

}  // namespace bufferdb::sim


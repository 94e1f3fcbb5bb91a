#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bufferdb {

/// In-memory B+-tree mapping int64 keys to row pointers. Duplicate keys are
/// allowed (stored in insertion order among equal keys is not guaranteed).
/// Leaves are linked for range scans; Seek() can report the node path it
/// touched so the executor can charge the accesses to the CPU simulator.
class BTree {
 public:
  static constexpr int kFanout = 64;  // Max children / leaf entries.

  BTree();
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  void Insert(int64_t key, const uint8_t* row);

  class Iterator {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    int64_t key() const;
    const uint8_t* row() const;
    /// Address of the current leaf node (for data-cache simulation).
    const void* node_address() const { return leaf_; }
    void Next();
    /// Batch form of the key()/row()/Next() walk over the current leaf:
    /// copies the rows of its entries from here on whose key is <= `hi`, at
    /// most `max` of them, into `out` and advances past them, to the next
    /// leaf when this one is used up. Returns the count; 0 means the entry
    /// here is above `hi` (or `max` is 0).
    size_t NextRun(int64_t hi, const uint8_t** out, size_t max);
    /// Moves forward to Seek(`key`)'s answer, the first entry >= `key`,
    /// when it lies in the current leaf or the next one (or is the end),
    /// and returns true. Returns false, without moving, when it lies
    /// further on. Requires every entry before the iterator to be < `key`.
    bool SeekForward(int64_t key);

   private:
    friend class BTree;
    const void* leaf_ = nullptr;
    int pos_ = 0;
  };

  /// Iterator at the smallest key.
  Iterator Begin() const;

  /// Iterator at the first entry with key >= `key`. If `touched_nodes` is
  /// non-null, the addresses of all nodes visited during the descent are
  /// appended (root to leaf).
  Iterator Seek(int64_t key,
                std::vector<const void*>* touched_nodes = nullptr) const;

  size_t size() const { return size_; }
  int height() const { return height_; }

 private:
  struct Node;
  struct Leaf;
  struct Internal;

  void SplitChild(Internal* parent, int index);
  void FreeNode(Node* node);

  Node* root_;
  size_t size_ = 0;
  int height_ = 1;
};

}  // namespace bufferdb


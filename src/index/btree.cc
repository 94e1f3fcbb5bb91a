#include "index/btree.h"

#include <cassert>
#include <cstring>

namespace bufferdb {

struct BTree::Node {
  bool is_leaf;
  int count = 0;  // Leaf: entries. Internal: children.
};

struct BTree::Leaf : BTree::Node {
  Leaf() { is_leaf = true; }
  int64_t keys[kFanout];
  const uint8_t* rows[kFanout];
  Leaf* next = nullptr;
};

struct BTree::Internal : BTree::Node {
  Internal() { is_leaf = false; }
  // keys[i] separates children[i] (keys < keys[i]... approximately; equal
  // keys may straddle, which Seek compensates for by scanning forward) from
  // children[i+1]. count = number of children; count-1 separators.
  int64_t keys[kFanout];
  Node* children[kFanout + 1];
};

BTree::BTree() { root_ = new Leaf(); }

BTree::~BTree() { FreeNode(root_); }

void BTree::FreeNode(Node* node) {
  if (!node->is_leaf) {
    Internal* in = static_cast<Internal*>(node);
    for (int i = 0; i < in->count; ++i) FreeNode(in->children[i]);
    delete in;
  } else {
    delete static_cast<Leaf*>(node);
  }
}

void BTree::SplitChild(Internal* parent, int index) {
  Node* child = parent->children[index];
  int64_t separator;
  Node* right;
  if (child->is_leaf) {
    Leaf* left = static_cast<Leaf*>(child);
    Leaf* new_leaf = new Leaf();
    int half = left->count / 2;
    new_leaf->count = left->count - half;
    std::memcpy(new_leaf->keys, left->keys + half,
                sizeof(int64_t) * new_leaf->count);
    std::memcpy(new_leaf->rows, left->rows + half,
                sizeof(const uint8_t*) * new_leaf->count);
    new_leaf->next = left->next;
    left->next = new_leaf;
    left->count = half;
    separator = new_leaf->keys[0];
    right = new_leaf;
  } else {
    Internal* left = static_cast<Internal*>(child);
    Internal* new_internal = new Internal();
    int half = left->count / 2;  // children going to the left node
    separator = left->keys[half - 1];
    new_internal->count = left->count - half;
    std::memcpy(new_internal->children, left->children + half,
                sizeof(Node*) * new_internal->count);
    std::memcpy(new_internal->keys, left->keys + half,
                sizeof(int64_t) * (new_internal->count - 1));
    left->count = half;
    right = new_internal;
  }
  // Shift parent entries to make room at `index`.
  for (int i = parent->count; i > index + 1; --i) {
    parent->children[i] = parent->children[i - 1];
  }
  for (int i = parent->count - 1; i > index; --i) {
    parent->keys[i] = parent->keys[i - 1];
  }
  parent->children[index + 1] = right;
  parent->keys[index] = separator;
  ++parent->count;
}

void BTree::Insert(int64_t key, const uint8_t* row) {
  if (root_->count == kFanout) {
    Internal* new_root = new Internal();
    new_root->count = 1;
    new_root->children[0] = root_;
    SplitChild(new_root, 0);
    root_ = new_root;
    ++height_;
  }
  Node* node = root_;
  while (!node->is_leaf) {
    Internal* in = static_cast<Internal*>(node);
    // Rightmost child whose range may contain `key` (duplicates go right).
    int idx = 0;
    while (idx < in->count - 1 && key >= in->keys[idx]) ++idx;
    if (in->children[idx]->count == kFanout) {
      SplitChild(in, idx);
      if (key >= in->keys[idx]) ++idx;
    }
    node = in->children[idx];
  }
  Leaf* leaf = static_cast<Leaf*>(node);
  int pos = leaf->count;
  while (pos > 0 && leaf->keys[pos - 1] > key) {
    leaf->keys[pos] = leaf->keys[pos - 1];
    leaf->rows[pos] = leaf->rows[pos - 1];
    --pos;
  }
  leaf->keys[pos] = key;
  leaf->rows[pos] = row;
  ++leaf->count;
  ++size_;
}

int64_t BTree::Iterator::key() const {
  const Leaf* leaf = static_cast<const Leaf*>(leaf_);
  return leaf->keys[pos_];
}

const uint8_t* BTree::Iterator::row() const {
  const Leaf* leaf = static_cast<const Leaf*>(leaf_);
  return leaf->rows[pos_];
}

void BTree::Iterator::Next() {
  const Leaf* leaf = static_cast<const Leaf*>(leaf_);
  ++pos_;
  if (pos_ >= leaf->count) {
    leaf_ = leaf->next;
    pos_ = 0;
    // Skip empty leaves (possible only for a never-inserted root).
    while (leaf_ != nullptr && static_cast<const Leaf*>(leaf_)->count == 0) {
      leaf_ = static_cast<const Leaf*>(leaf_)->next;
    }
  }
}

size_t BTree::Iterator::NextRun(int64_t hi, const uint8_t** out,
                                size_t max) {
  const Leaf* leaf = static_cast<const Leaf*>(leaf_);
  size_t n = 0;
  int pos = pos_;
  while (n < max && pos < leaf->count && leaf->keys[pos] <= hi) {
    out[n++] = leaf->rows[pos++];
  }
  if (n == 0) return 0;
  // Resume through Next(), which moves on to the next non-empty leaf.
  pos_ = pos - 1;
  Next();
  return n;
}

bool BTree::Iterator::SeekForward(int64_t key) {
  const Leaf* leaf = static_cast<const Leaf*>(leaf_);
  int pos = pos_;
  for (int hop = 0; hop < 2; ++hop) {
    if (leaf == nullptr) break;  // Every entry is < key: the end.
    if (leaf->count > 0 && leaf->keys[leaf->count - 1] >= key) {
      while (leaf->keys[pos] < key) ++pos;
      leaf_ = leaf;
      pos_ = pos;
      return true;
    }
    leaf = leaf->next;
    pos = 0;
  }
  if (leaf != nullptr) return false;  // Beyond the next leaf: descend.
  leaf_ = nullptr;
  pos_ = 0;
  return true;
}

BTree::Iterator BTree::Begin() const {
  const Node* node = root_;
  while (!node->is_leaf) {
    node = static_cast<const Internal*>(node)->children[0];
  }
  Iterator it;
  const Leaf* leaf = static_cast<const Leaf*>(node);
  it.leaf_ = leaf->count > 0 ? leaf : nullptr;
  it.pos_ = 0;
  return it;
}

BTree::Iterator BTree::Seek(int64_t key,
                            std::vector<const void*>* touched_nodes) const {
  const Node* node = root_;
  if (touched_nodes != nullptr) touched_nodes->push_back(node);
  while (!node->is_leaf) {
    const Internal* in = static_cast<const Internal*>(node);
    // Leftmost child that could contain the first occurrence of `key`.
    int idx = 0;
    while (idx < in->count - 1 && key > in->keys[idx]) ++idx;
    node = in->children[idx];
    if (touched_nodes != nullptr) touched_nodes->push_back(node);
  }
  Iterator it;
  const Leaf* leaf = static_cast<const Leaf*>(node);
  it.leaf_ = leaf->count > 0 ? leaf : nullptr;
  it.pos_ = 0;
  // Position at the first entry >= key (may cross leaf boundaries because
  // equal keys can straddle a separator).
  while (it.Valid() && it.key() < key) it.Next();
  return it;
}

}  // namespace bufferdb

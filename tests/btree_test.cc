#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/btree.h"

namespace bufferdb {
namespace {

// Rows are faked with small integer-tagged pointers.
const uint8_t* FakeRow(uintptr_t id) {
  return reinterpret_cast<const uint8_t*>(id + 1);
}

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_FALSE(tree.Seek(5).Valid());
}

TEST(BTreeTest, SingleEntry) {
  BTree tree;
  tree.Insert(10, FakeRow(1));
  auto it = tree.Begin();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 10);
  EXPECT_EQ(it.row(), FakeRow(1));
  it.Next();
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, SeekExactAndMissing) {
  BTree tree;
  for (int64_t k : {10, 20, 30, 40}) tree.Insert(k, FakeRow(k));
  EXPECT_EQ(tree.Seek(20).key(), 20);
  EXPECT_EQ(tree.Seek(25).key(), 30);  // First >= 25.
  EXPECT_EQ(tree.Seek(5).key(), 10);
  EXPECT_FALSE(tree.Seek(41).Valid());
}

TEST(BTreeTest, SeekRecordsDescentPath) {
  BTree tree;
  for (int64_t k = 0; k < 10000; ++k) tree.Insert(k, FakeRow(k));
  std::vector<const void*> path;
  tree.Seek(5000, &path);
  EXPECT_EQ(static_cast<int>(path.size()), tree.height());
  EXPECT_GE(tree.height(), 2);
}

class BTreeModelTest : public ::testing::TestWithParam<int> {};

// Property: after random insertions (with duplicates), iteration from
// Begin() yields exactly the sorted multiset, and every Seek(k) lands on the
// first entry >= k.
TEST_P(BTreeModelTest, MatchesMultimapModel) {
  const int n = GetParam();
  BTree tree;
  std::multimap<int64_t, const uint8_t*> model;
  Rng rng(static_cast<uint64_t>(n) * 7919);
  for (int i = 0; i < n; ++i) {
    int64_t key = rng.Uniform(0, n / 2);  // Force duplicates.
    const uint8_t* row = FakeRow(static_cast<uintptr_t>(i));
    tree.Insert(key, row);
    model.emplace(key, row);
  }
  ASSERT_EQ(tree.size(), model.size());

  // Full scan: keys in nondecreasing order, same multiset of keys.
  std::multimap<int64_t, int> scanned;
  int64_t prev = INT64_MIN;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_GE(it.key(), prev);
    prev = it.key();
    scanned.emplace(it.key(), 0);
  }
  ASSERT_EQ(scanned.size(), model.size());
  auto mit = model.begin();
  for (auto sit = scanned.begin(); sit != scanned.end(); ++sit, ++mit) {
    EXPECT_EQ(sit->first, mit->first);
  }

  // Seeks at, between, below and above existing keys.
  for (int64_t probe = -1; probe <= n / 2 + 1; probe += 3) {
    auto it = tree.Seek(probe);
    auto model_it = model.lower_bound(probe);
    if (model_it == model.end()) {
      EXPECT_FALSE(it.Valid()) << "probe " << probe;
    } else {
      ASSERT_TRUE(it.Valid()) << "probe " << probe;
      EXPECT_EQ(it.key(), model_it->first) << "probe " << probe;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreeModelTest,
                         ::testing::Values(1, 2, 63, 64, 65, 500, 5000,
                                           20000));

TEST(BTreeTest, DuplicateKeysAllReturned) {
  BTree tree;
  for (int i = 0; i < 100; ++i) tree.Insert(7, FakeRow(i));
  tree.Insert(3, FakeRow(1000));
  tree.Insert(11, FakeRow(2000));
  int count = 0;
  for (auto it = tree.Seek(7); it.Valid() && it.key() == 7; it.Next()) {
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST(BTreeTest, SequentialInsertKeepsHeightLogarithmic) {
  BTree tree;
  for (int64_t k = 0; k < 100000; ++k) tree.Insert(k, FakeRow(k));
  EXPECT_EQ(tree.size(), 100000u);
  EXPECT_LE(tree.height(), 4);  // 64-fanout: 64^3 >> 1e5.
}

TEST(BTreeTest, ReverseInsertOrder) {
  BTree tree;
  for (int64_t k = 1000; k >= 0; --k) tree.Insert(k, FakeRow(k));
  int64_t expected = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.key(), expected++);
  }
  EXPECT_EQ(expected, 1001);
}

// From the entries of every key `prev`, SeekForward to every key at or
// above it lands where Seek does, or declines when that entry lies beyond
// the next leaf. Even keys 0..398, key 100 another 200 times (its entries
// span leaves), so odd keys are absent and keys near 398 sit in the last
// leaf.
TEST(BTreeTest, SeekForwardMatchesSeek) {
  BTree tree;
  uintptr_t id = 0;
  for (int64_t k = 0; k < 400; k += 2) tree.Insert(k, FakeRow(id++));
  for (int i = 0; i < 200; ++i) tree.Insert(100, FakeRow(id++));
  size_t moved = 0;
  size_t declined = 0;
  for (int64_t prev = -1; prev <= 401; ++prev) {
    const BTree::Iterator start = tree.Seek(prev);
    for (int64_t key = prev; key <= 402; ++key) {
      SCOPED_TRACE("prev " + std::to_string(prev) + ", key " +
                   std::to_string(key));
      BTree::Iterator it = start;
      const BTree::Iterator expected = tree.Seek(key);
      if (!it.SeekForward(key)) {
        ++declined;
        // Declined: the answer (maybe the end) lies beyond the leaf after
        // the start's.
        ASSERT_TRUE(start.Valid());
        EXPECT_EQ(it.node_address(), start.node_address());
        EXPECT_EQ(it.row(), start.row());
        BTree::Iterator next = start;
        while (next.Valid() && next.node_address() == start.node_address()) {
          next.Next();
        }
        ASSERT_TRUE(next.Valid());
        EXPECT_NE(expected.node_address(), next.node_address());
        EXPECT_NE(expected.node_address(), start.node_address());
        continue;
      }
      ++moved;
      ASSERT_EQ(it.Valid(), expected.Valid());
      if (!expected.Valid()) continue;
      EXPECT_EQ(it.node_address(), expected.node_address());
      EXPECT_EQ(it.row(), expected.row());
      EXPECT_EQ(it.key(), expected.key());
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(declined, 0u);
}

}  // namespace
}  // namespace bufferdb

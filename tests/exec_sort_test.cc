#include <gtest/gtest.h>

#include "exec/seq_scan.h"
#include "exec/sort.h"
#include "test_util.h"

namespace bufferdb {
namespace {

using testutil::MakeKvTable;
using testutil::RunPlan;

std::unique_ptr<SortOperator> SortBy(Table* table, const std::string& column,
                                     bool descending) {
  std::vector<SortKey> keys;
  keys.push_back(SortKey{table->schema().FindColumn(column), descending});
  return std::make_unique<SortOperator>(
      std::make_unique<SeqScanOperator>(table, nullptr), std::move(keys));
}

TEST(SortTest, AscendingByInt) {
  auto table = MakeKvTable("t", {{3, 1}, {1, 2}, {2, 3}});
  auto sort = SortBy(table.get(), "k", false);
  auto rows = RunPlan(sort.get());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[1][0], Value::Int64(2));
  EXPECT_EQ(rows[2][0], Value::Int64(3));
}

TEST(SortTest, DescendingByDouble) {
  auto table = MakeKvTable("t", {{1, 1.5}, {2, 9.5}, {3, 4.5}});
  auto sort = SortBy(table.get(), "v", true);
  auto rows = RunPlan(sort.get());
  EXPECT_EQ(rows[0][1], Value::Double(9.5));
  EXPECT_EQ(rows[2][1], Value::Double(1.5));
}

TEST(SortTest, StableForEqualKeys) {
  auto table = MakeKvTable("t", {{1, 10}, {1, 20}, {1, 30}, {0, 5}});
  auto sort = SortBy(table.get(), "k", false);
  auto rows = RunPlan(sort.get());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][1], Value::Double(5));
  // Input order preserved among the equal keys.
  EXPECT_EQ(rows[1][1], Value::Double(10));
  EXPECT_EQ(rows[2][1], Value::Double(20));
  EXPECT_EQ(rows[3][1], Value::Double(30));
}

TEST(SortTest, NullsSortLast) {
  Schema schema({{"k", DataType::kInt64}});
  Table table("t", schema);
  table.AppendRow({Value::Null(DataType::kInt64)});
  table.AppendRow({Value::Int64(2)});
  table.AppendRow({Value::Null(DataType::kInt64)});
  table.AppendRow({Value::Int64(1)});

  std::vector<SortKey> keys;
  keys.push_back(SortKey{schema.FindColumn("k"), false});
  SortOperator sort(std::make_unique<SeqScanOperator>(&table, nullptr),
                    std::move(keys));
  auto rows = RunPlan(&sort);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[1][0], Value::Int64(2));
  EXPECT_TRUE(rows[2][0].is_null());
  EXPECT_TRUE(rows[3][0].is_null());
}

TEST(SortTest, MultiKeySort) {
  auto table = MakeKvTable("t", {{2, 1}, {1, 9}, {2, 0}, {1, 3}});
  std::vector<SortKey> keys;
  keys.push_back(SortKey{table->schema().FindColumn("k"), false});
  keys.push_back(SortKey{table->schema().FindColumn("v"), true});
  SortOperator sort(
      std::make_unique<SeqScanOperator>(table.get(), nullptr),
      std::move(keys));
  auto rows = RunPlan(&sort);
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[0][1], Value::Double(9));
  EXPECT_EQ(rows[1][1], Value::Double(3));
  EXPECT_EQ(rows[2][1], Value::Double(1));
  EXPECT_EQ(rows[3][1], Value::Double(0));
}

TEST(SortTest, EmptyInput) {
  auto table = MakeKvTable("t", {});
  auto sort = SortBy(table.get(), "k", false);
  EXPECT_TRUE(RunPlan(sort.get()).empty());
}

TEST(SortTest, IsPipelineBreaker) {
  auto table = MakeKvTable("t", {{1, 1}});
  auto sort = SortBy(table.get(), "k", false);
  EXPECT_TRUE(sort->BlocksInput(0));
}

TEST(SortTest, RescanReplaysWithoutResort) {
  auto table = MakeKvTable("t", {{2, 0}, {1, 0}});
  auto sort = SortBy(table.get(), "k", false);
  ExecContext ctx;
  ASSERT_TRUE(sort->Open(&ctx).ok());
  EXPECT_NE(sort->Next(), nullptr);
  ASSERT_TRUE(sort->Rescan().ok());
  const uint8_t* first = sort->Next();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(TupleView(first, &sort->output_schema()).GetInt64(0), 1);
  sort->Close();
}

TEST(SortTest, LargeRandomInputIsSorted) {
  std::vector<std::pair<int64_t, double>> rows;
  uint64_t state = 12345;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    rows.push_back({static_cast<int64_t>(state % 1000), i * 1.0});
  }
  auto table = MakeKvTable("t", rows);
  auto sort = SortBy(table.get(), "k", false);
  auto out = RunPlan(sort.get());
  ASSERT_EQ(out.size(), 5000u);
  for (size_t i = 1; i < out.size(); ++i) {
    ASSERT_LE(out[i - 1][0].int64_value(), out[i][0].int64_value());
  }
}

}  // namespace
}  // namespace bufferdb

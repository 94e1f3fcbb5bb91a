#include <gtest/gtest.h>

#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/seq_scan.h"
#include "exec/sort.h"
#include "exec/stream_aggregation.h"
#include "exec/topn.h"
#include "test_util.h"

namespace bufferdb {
namespace {

using testutil::Bin;
using testutil::Canonical;
using testutil::Col;
using testutil::Lit;
using testutil::MakeKvTable;
using testutil::RunPlan;

TEST(FilterTest, PassesOnlyMatchingRows) {
  auto table = MakeKvTable("t", {{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  FilterOperator filter(
      std::make_unique<SeqScanOperator>(table.get(), nullptr),
      Bin(BinaryOp::kGt, Col(table->schema(), "k"), Lit(Value::Int64(2))));
  auto rows = RunPlan(&filter);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int64(3));
}

TEST(FilterTest, NullPredicateRowsDropped) {
  Schema schema({{"k", DataType::kInt64}});
  Table table("t", schema);
  table.AppendRow({Value::Null(DataType::kInt64)});
  table.AppendRow({Value::Int64(5)});
  FilterOperator filter(
      std::make_unique<SeqScanOperator>(&table, nullptr),
      Bin(BinaryOp::kGt, Col(schema, "k"), Lit(Value::Int64(0))));
  EXPECT_EQ(RunPlan(&filter).size(), 1u);
}

TEST(FilterTest, LabelShowsPredicate) {
  auto table = MakeKvTable("t", {{1, 1}});
  FilterOperator filter(
      std::make_unique<SeqScanOperator>(table.get(), nullptr),
      Bin(BinaryOp::kEq, Col(table->schema(), "k"), Lit(Value::Int64(1))));
  EXPECT_EQ(filter.label(), "Filter((k = 1))");
  EXPECT_EQ(filter.module_id(), sim::ModuleId::kFilter);
}

std::unique_ptr<SortOperator> SortByK(Table* table) {
  std::vector<SortKey> keys;
  keys.push_back(SortKey{table->schema().FindColumn("k"), false});
  return std::make_unique<SortOperator>(
      std::make_unique<SeqScanOperator>(table, nullptr), std::move(keys));
}

TEST(StreamAggregationTest, GroupsSortedInput) {
  auto table = MakeKvTable("t", {{2, 20}, {1, 10}, {2, 5}, {1, 1}, {3, 7}});
  const Schema& s = table->schema();
  std::vector<GroupKeyExpr> groups;
  groups.push_back(GroupKeyExpr{Col(s, "k"), "k"});
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kSum, Col(s, "v"), "sum_v"});
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "cnt"});
  StreamAggregationOperator agg(SortByK(table.get()), std::move(groups),
                                std::move(specs));
  auto rows = RunPlan(&agg);
  ASSERT_EQ(rows.size(), 3u);
  // Sorted input -> groups come out in key order.
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[0][1], Value::Double(11));
  EXPECT_EQ(rows[0][2], Value::Int64(2));
  EXPECT_EQ(rows[1][0], Value::Int64(2));
  EXPECT_EQ(rows[1][1], Value::Double(25));
  EXPECT_EQ(rows[2][0], Value::Int64(3));
}

TEST(StreamAggregationTest, MatchesHashAggregation) {
  std::vector<std::pair<int64_t, double>> data;
  for (int i = 0; i < 500; ++i) data.push_back({i % 17, i * 0.25});
  auto table = MakeKvTable("t", data);
  const Schema& s = table->schema();
  auto make_groups = [&s]() {
    std::vector<GroupKeyExpr> g;
    g.push_back(GroupKeyExpr{Col(s, "k"), "k"});
    return g;
  };
  auto make_specs = [&s]() {
    std::vector<AggSpec> specs;
    specs.push_back(AggSpec{AggFunc::kSum, Col(s, "v"), "sum_v"});
    specs.push_back(AggSpec{AggFunc::kMin, Col(s, "v"), "min_v"});
    specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "cnt"});
    return specs;
  };
  StreamAggregationOperator stream(SortByK(table.get()), make_groups(),
                                   make_specs());
  HashAggregationOperator hash(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), make_groups(),
      make_specs());
  EXPECT_EQ(Canonical(RunPlan(&stream)), Canonical(RunPlan(&hash)));
}

TEST(StreamAggregationTest, EmptyInput) {
  auto table = MakeKvTable("t", {});
  std::vector<GroupKeyExpr> groups;
  groups.push_back(GroupKeyExpr{Col(table->schema(), "k"), "k"});
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
  StreamAggregationOperator agg(SortByK(table.get()), std::move(groups),
                                std::move(specs));
  EXPECT_TRUE(RunPlan(&agg).empty());
}

TEST(StreamAggregationTest, SingleGroup) {
  auto table = MakeKvTable("t", {{7, 1}, {7, 2}, {7, 3}});
  const Schema& s = table->schema();
  std::vector<GroupKeyExpr> groups;
  groups.push_back(GroupKeyExpr{Col(s, "k"), "k"});
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kAvg, Col(s, "v"), "a"});
  StreamAggregationOperator agg(SortByK(table.get()), std::move(groups),
                                std::move(specs));
  auto rows = RunPlan(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Double(2.0));
}

TEST(StreamAggregationTest, IsPipelinedNotBlocking) {
  auto table = MakeKvTable("t", {{1, 1}});
  std::vector<GroupKeyExpr> groups;
  groups.push_back(GroupKeyExpr{Col(table->schema(), "k"), "k"});
  StreamAggregationOperator agg(SortByK(table.get()), std::move(groups), {});
  EXPECT_FALSE(agg.BlocksInput(0));
}

TEST(DistinctTest, RemovesDuplicateRows) {
  auto table = MakeKvTable("t", {{1, 1}, {2, 2}, {1, 1}, {1, 2}, {2, 2}});
  DistinctOperator distinct(
      std::make_unique<SeqScanOperator>(table.get(), nullptr));
  auto rows = RunPlan(&distinct);
  EXPECT_EQ(rows.size(), 3u);  // (1,1), (2,2), (1,2).
  EXPECT_EQ(distinct.num_distinct(), 0u);  // Cleared on Close.
}

TEST(DistinctTest, NullsCompareEqualForDistinct) {
  Schema schema({{"k", DataType::kInt64}});
  Table table("t", schema);
  table.AppendRow({Value::Null(DataType::kInt64)});
  table.AppendRow({Value::Null(DataType::kInt64)});
  table.AppendRow({Value::Int64(1)});
  DistinctOperator distinct(std::make_unique<SeqScanOperator>(&table, nullptr));
  EXPECT_EQ(RunPlan(&distinct).size(), 2u);
}

TEST(DistinctTest, StringsDistinguishedByContent) {
  Schema schema({{"s", DataType::kString}});
  Table table("t", schema);
  table.AppendRow({Value::String("ab")});
  table.AppendRow({Value::String("ab")});
  table.AppendRow({Value::String("ba")});
  DistinctOperator distinct(std::make_unique<SeqScanOperator>(&table, nullptr));
  EXPECT_EQ(RunPlan(&distinct).size(), 2u);
}

TEST(TopNTest, KeepsSmallestN) {
  auto table = MakeKvTable("t", {{5, 0}, {1, 0}, {4, 0}, {2, 0}, {3, 0}});
  std::vector<SortKey> keys;
  keys.push_back(SortKey{table->schema().FindColumn("k"), false});
  TopNOperator topn(std::make_unique<SeqScanOperator>(table.get(), nullptr),
                    std::move(keys), 3);
  auto rows = RunPlan(&topn);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[1][0], Value::Int64(2));
  EXPECT_EQ(rows[2][0], Value::Int64(3));
}

TEST(TopNTest, DescendingKeepsLargest) {
  auto table = MakeKvTable("t", {{5, 0}, {1, 0}, {4, 0}, {2, 0}, {3, 0}});
  std::vector<SortKey> keys;
  keys.push_back(SortKey{table->schema().FindColumn("k"), true});
  TopNOperator topn(std::make_unique<SeqScanOperator>(table.get(), nullptr),
                    std::move(keys), 2);
  auto rows = RunPlan(&topn);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int64(5));
  EXPECT_EQ(rows[1][0], Value::Int64(4));
}

TEST(TopNTest, LimitLargerThanInput) {
  auto table = MakeKvTable("t", {{2, 0}, {1, 0}});
  std::vector<SortKey> keys;
  keys.push_back(SortKey{table->schema().FindColumn("k"), false});
  TopNOperator topn(std::make_unique<SeqScanOperator>(table.get(), nullptr),
                    std::move(keys), 100);
  EXPECT_EQ(RunPlan(&topn).size(), 2u);
}

TEST(TopNTest, LimitZero) {
  auto table = MakeKvTable("t", {{1, 0}});
  std::vector<SortKey> keys;
  keys.push_back(SortKey{table->schema().FindColumn("k"), false});
  TopNOperator topn(std::make_unique<SeqScanOperator>(table.get(), nullptr),
                    std::move(keys), 0);
  EXPECT_TRUE(RunPlan(&topn).empty());
}

TEST(TopNTest, MatchesSortPlusLimitOnRandomInput) {
  std::vector<std::pair<int64_t, double>> data;
  uint64_t state = 7;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    data.push_back({static_cast<int64_t>(state % 500), i * 1.0});
  }
  auto table = MakeKvTable("t", data);
  auto make_keys = [&table]() {
    std::vector<SortKey> keys;
    keys.push_back(SortKey{table->schema().FindColumn("k"), false});
    keys.push_back(SortKey{table->schema().FindColumn("v"), true});
    return keys;
  };
  TopNOperator topn(std::make_unique<SeqScanOperator>(table.get(), nullptr),
                    make_keys(), 25);
  SortOperator sort(std::make_unique<SeqScanOperator>(table.get(), nullptr),
                    make_keys());
  auto expected = RunPlan(&sort);
  expected.resize(25);
  auto got = RunPlan(&topn);
  ASSERT_EQ(got.size(), 25u);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(got[i][0], expected[i][0]) << i;
    EXPECT_EQ(got[i][1], expected[i][1]) << i;
  }
  EXPECT_TRUE(topn.BlocksInput(0));
}

}  // namespace
}  // namespace bufferdb

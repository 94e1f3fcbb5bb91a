#include <gtest/gtest.h>

#include "exec/aggregation.h"
#include "exec/hash_aggregation.h"
#include "exec/seq_scan.h"
#include "test_util.h"

namespace bufferdb {
namespace {

using testutil::Bin;
using testutil::Col;
using testutil::Lit;
using testutil::MakeKvTable;
using testutil::RunPlan;

std::vector<AggSpec> Specs(Table* table) {
  const Schema& s = table->schema();
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "cnt"});
  specs.push_back(AggSpec{AggFunc::kSum, Col(s, "v"), "sum_v"});
  specs.push_back(AggSpec{AggFunc::kAvg, Col(s, "v"), "avg_v"});
  specs.push_back(AggSpec{AggFunc::kMin, Col(s, "k"), "min_k"});
  specs.push_back(AggSpec{AggFunc::kMax, Col(s, "k"), "max_k"});
  return specs;
}

TEST(AggregationTest, AllFunctions) {
  auto table = MakeKvTable("t", {{1, 10.0}, {5, 20.0}, {3, 30.0}});
  AggregationOperator agg(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), Specs(table.get()));
  auto rows = RunPlan(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(3));
  EXPECT_EQ(rows[0][1], Value::Double(60.0));
  EXPECT_EQ(rows[0][2], Value::Double(20.0));
  EXPECT_EQ(rows[0][3], Value::Int64(1));
  EXPECT_EQ(rows[0][4], Value::Int64(5));
}

TEST(AggregationTest, EmptyInputSemantics) {
  auto table = MakeKvTable("t", {});
  AggregationOperator agg(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), Specs(table.get()));
  auto rows = RunPlan(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(0));  // COUNT(*) = 0.
  EXPECT_TRUE(rows[0][1].is_null());       // SUM = NULL.
  EXPECT_TRUE(rows[0][2].is_null());       // AVG = NULL.
  EXPECT_TRUE(rows[0][3].is_null());       // MIN = NULL.
}

TEST(AggregationTest, NullArgumentsIgnored) {
  Schema schema({{"v", DataType::kDouble}});
  Table table("t", schema);
  table.AppendRow({Value::Double(10)});
  table.AppendRow({Value::Null(DataType::kDouble)});
  table.AppendRow({Value::Double(20)});

  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "cnt_star"});
  specs.push_back(AggSpec{AggFunc::kCount, Col(schema, "v"), "cnt_v"});
  specs.push_back(AggSpec{AggFunc::kAvg, Col(schema, "v"), "avg_v"});
  AggregationOperator agg(std::make_unique<SeqScanOperator>(&table, nullptr),
                          std::move(specs));
  auto rows = RunPlan(&agg);
  EXPECT_EQ(rows[0][0], Value::Int64(3));      // COUNT(*) counts all rows.
  EXPECT_EQ(rows[0][1], Value::Int64(2));      // COUNT(v) skips NULL.
  EXPECT_EQ(rows[0][2], Value::Double(15.0));  // AVG over non-NULL.
}

TEST(AggregationTest, IntegerSumStaysInt) {
  auto table = MakeKvTable("t", {{1, 0}, {2, 0}});
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kSum, Col(table->schema(), "k"), "s"});
  AggregationOperator agg(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), std::move(specs));
  EXPECT_EQ(agg.output_schema().column(0).type, DataType::kInt64);
  auto rows = RunPlan(&agg);
  EXPECT_EQ(rows[0][0], Value::Int64(3));
}

TEST(AggregationTest, SumOverExpression) {
  auto table = MakeKvTable("t", {{2, 3.0}, {4, 5.0}});
  const Schema& s = table->schema();
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{
      AggFunc::kSum, Bin(BinaryOp::kMul, Col(s, "k"), Col(s, "v")), "s"});
  AggregationOperator agg(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), std::move(specs));
  auto rows = RunPlan(&agg);
  EXPECT_EQ(rows[0][0], Value::Double(26.0));
}

TEST(AggregationTest, HotFuncsIncludeAggregateCode) {
  auto table = MakeKvTable("t", {{1, 1}});
  AggregationOperator agg(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), Specs(table.get()));
  const auto& funcs = agg.hot_funcs();
  auto has = [&funcs](sim::FuncId f) {
    return std::find(funcs.begin(), funcs.end(), f) != funcs.end();
  };
  EXPECT_TRUE(has(sim::FuncId::kAggCount));
  EXPECT_TRUE(has(sim::FuncId::kAggSum));
  EXPECT_TRUE(has(sim::FuncId::kAggAvgExtra));
  EXPECT_TRUE(has(sim::FuncId::kAggMin));
  EXPECT_TRUE(has(sim::FuncId::kAggMax));
}

TEST(HashAggregationTest, GroupsCorrectly) {
  auto table = MakeKvTable(
      "t", {{1, 10}, {2, 20}, {1, 30}, {2, 40}, {3, 50}});
  const Schema& s = table->schema();
  std::vector<GroupKeyExpr> groups;
  groups.push_back(GroupKeyExpr{Col(s, "k"), "k"});
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kSum, Col(s, "v"), "sum_v"});
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "cnt"});
  HashAggregationOperator agg(
      std::make_unique<SeqScanOperator>(table.get(), nullptr),
      std::move(groups), std::move(specs));
  auto rows = RunPlan(&agg);
  auto canonical = testutil::Canonical(rows);
  ASSERT_EQ(canonical.size(), 3u);
  EXPECT_EQ(canonical[0], "1|40.0000|2|");
  EXPECT_EQ(canonical[1], "2|60.0000|2|");
  EXPECT_EQ(canonical[2], "3|50.0000|1|");
}

TEST(HashAggregationTest, GroupByStringKey) {
  Schema schema({{"flag", DataType::kString}, {"v", DataType::kDouble}});
  Table table("t", schema);
  table.AppendRow({Value::String("A"), Value::Double(1)});
  table.AppendRow({Value::String("B"), Value::Double(2)});
  table.AppendRow({Value::String("A"), Value::Double(3)});

  std::vector<GroupKeyExpr> groups;
  groups.push_back(GroupKeyExpr{Col(schema, "flag"), "flag"});
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kSum, Col(schema, "v"), "s"});
  HashAggregationOperator agg(
      std::make_unique<SeqScanOperator>(&table, nullptr), std::move(groups),
      std::move(specs));
  auto canonical = testutil::Canonical(RunPlan(&agg));
  ASSERT_EQ(canonical.size(), 2u);
  EXPECT_EQ(canonical[0], "A|4.0000|");
  EXPECT_EQ(canonical[1], "B|2.0000|");
}

TEST(HashAggregationTest, NullGroupKeyFormsItsOwnGroup) {
  Schema schema({{"k", DataType::kInt64}});
  Table table("t", schema);
  table.AppendRow({Value::Null(DataType::kInt64)});
  table.AppendRow({Value::Int64(1)});
  table.AppendRow({Value::Null(DataType::kInt64)});

  std::vector<GroupKeyExpr> groups;
  groups.push_back(GroupKeyExpr{Col(schema, "k"), "k"});
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
  HashAggregationOperator agg(
      std::make_unique<SeqScanOperator>(&table, nullptr), std::move(groups),
      std::move(specs));
  auto canonical = testutil::Canonical(RunPlan(&agg));
  ASSERT_EQ(canonical.size(), 2u);
  EXPECT_EQ(canonical[0], "1|1|");
  EXPECT_EQ(canonical[1], "NULL|2|");
}

TEST(HashAggregationTest, EmptyInputYieldsNoGroups) {
  auto table = MakeKvTable("t", {});
  std::vector<GroupKeyExpr> groups;
  groups.push_back(GroupKeyExpr{Col(table->schema(), "k"), "k"});
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
  HashAggregationOperator agg(
      std::make_unique<SeqScanOperator>(table.get(), nullptr),
      std::move(groups), std::move(specs));
  EXPECT_TRUE(RunPlan(&agg).empty());
}

TEST(AggAccumulatorTest, MinMaxTrackExtrema) {
  AggAccumulator acc;
  for (int64_t v : {5, 2, 9, 2}) acc.Update(AggFunc::kMin, Value::Int64(v));
  EXPECT_EQ(acc.Final(AggFunc::kMin, DataType::kInt64), Value::Int64(2));
  AggAccumulator acc2;
  for (int64_t v : {5, 2, 9, 2}) acc2.Update(AggFunc::kMax, Value::Int64(v));
  EXPECT_EQ(acc2.Final(AggFunc::kMax, DataType::kInt64), Value::Int64(9));
}

TEST(AggAccumulatorTest, MergeOfSplitInputEqualsWholeInput) {
  // Folding the two halves of an input separately and merging them must
  // give what one pass over the whole input gives, for every function and
  // input type, including halves with no non-NULL value.
  const std::vector<std::vector<Value>> inputs = {
      {Value::Int64(4), Value::Null(DataType::kInt64), Value::Int64(-7),
       Value::Int64(9)},
      {Value::Double(2.5), Value::Double(-1.0), Value::Null(DataType::kDouble),
       Value::Double(8.25)},
      {Value::String("pear"), Value::Null(DataType::kString),
       Value::String("apple"), Value::String("plum")},
      {Value::Null(DataType::kInt64), Value::Null(DataType::kInt64),
       Value::Int64(3), Value::Int64(1)},
  };
  for (const std::vector<Value>& input : inputs) {
    const DataType type = input.front().type();
    for (AggFunc func : {AggFunc::kCountStar, AggFunc::kCount, AggFunc::kSum,
                         AggFunc::kAvg, AggFunc::kMin, AggFunc::kMax}) {
      const bool numeric_only = func == AggFunc::kSum || func == AggFunc::kAvg;
      if (numeric_only && type == DataType::kString) continue;
      for (size_t split = 0; split <= input.size(); ++split) {
        AggAccumulator whole, left, right;
        for (size_t i = 0; i < input.size(); ++i) {
          whole.Update(func, input[i]);
          (i < split ? left : right).Update(func, input[i]);
        }
        left.Merge(func, right);
        const DataType out = AggOutputType(func, type);
        EXPECT_EQ(left.Final(func, out), whole.Final(func, out))
            << AggFuncName(func) << " over " << DataTypeName(type)
            << ", split at " << split;
      }
    }
  }
}

TEST(AggOutputTypeTest, Rules) {
  EXPECT_EQ(AggOutputType(AggFunc::kCountStar, DataType::kString),
            DataType::kInt64);
  EXPECT_EQ(AggOutputType(AggFunc::kSum, DataType::kInt64), DataType::kInt64);
  EXPECT_EQ(AggOutputType(AggFunc::kSum, DataType::kDouble),
            DataType::kDouble);
  EXPECT_EQ(AggOutputType(AggFunc::kAvg, DataType::kInt64), DataType::kDouble);
  EXPECT_EQ(AggOutputType(AggFunc::kMin, DataType::kDate), DataType::kDate);
}

}  // namespace
}  // namespace bufferdb

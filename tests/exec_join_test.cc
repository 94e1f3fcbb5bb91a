#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "exec/hash_join.h"
#include "exec/materialize.h"
#include "exec/merge_join.h"
#include "exec/nested_loop_join.h"
#include "exec/seq_scan.h"
#include "exec/sort.h"
#include "test_util.h"

namespace bufferdb {
namespace {

using testutil::Bin;
using testutil::Canonical;
using testutil::Col;
using testutil::MakeKvTable;
using testutil::RunPlan;

// Builds the join key expression for a (k, v) table schema.
ExprPtr Key(const Table& table) { return Col(table.schema(), "k"); }

OperatorPtr Scan(Table* table) {
  return std::make_unique<SeqScanOperator>(table, nullptr);
}

// Reference result via the naive nested-loop join.
std::vector<std::string> Oracle(Table* left, Table* right) {
  Schema combined = Schema::Concat(left->schema(), right->schema());
  // Join predicate over the combined row: columns 0 (left k) and 2 (right k).
  ExprPtr pred = Bin(
      BinaryOp::kEq,
      MakeColumnRefUnchecked(0, DataType::kInt64, "lk"),
      MakeColumnRefUnchecked(2, DataType::kInt64, "rk"));
  NestLoopJoinOperator nlj(
      Scan(left), std::make_unique<MaterializeOperator>(Scan(right)),
      std::move(pred));
  return Canonical(RunPlan(&nlj));
}

std::vector<std::string> ViaHash(Table* left, Table* right) {
  HashJoinOperator join(Scan(left), Scan(right), Key(*left), Key(*right));
  return Canonical(RunPlan(&join));
}

std::vector<std::string> ViaMerge(Table* left, Table* right) {
  auto sort = [](Table* t) {
    std::vector<SortKey> keys;
    keys.push_back(SortKey{t->schema().FindColumn("k"), false});
    return std::make_unique<SortOperator>(
        std::make_unique<SeqScanOperator>(t, nullptr), std::move(keys));
  };
  MergeJoinOperator join(sort(left), sort(right), Key(*left), Key(*right));
  return Canonical(RunPlan(&join));
}

std::vector<std::string> ViaIndexNlj(Table* left, Catalog* catalog,
                                     const std::string& index_name) {
  const IndexInfo* index = catalog->GetIndex(index_name);
  auto inner = std::make_unique<IndexScanOperator>(index, std::nullopt,
                                                   std::nullopt, nullptr);
  IndexNestLoopJoinOperator join(Scan(left), std::move(inner), Key(*left));
  return Canonical(RunPlan(&join));
}

TEST(JoinTest, SimpleEquiJoinAllStrategiesAgree) {
  auto left = MakeKvTable("l", {{1, 10}, {2, 20}, {3, 30}});
  auto right = MakeKvTable("r", {{2, 200}, {3, 300}, {4, 400}});
  auto expected = Oracle(left.get(), right.get());
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_EQ(ViaHash(left.get(), right.get()), expected);
  EXPECT_EQ(ViaMerge(left.get(), right.get()), expected);
}

TEST(JoinTest, DuplicateKeysProduceCrossProduct) {
  auto left = MakeKvTable("l", {{1, 1}, {1, 2}, {2, 3}});
  auto right = MakeKvTable("r", {{1, 9}, {1, 8}, {1, 7}, {2, 6}});
  auto expected = Oracle(left.get(), right.get());
  ASSERT_EQ(expected.size(), 7u);  // 2*3 + 1*1.
  EXPECT_EQ(ViaHash(left.get(), right.get()), expected);
  EXPECT_EQ(ViaMerge(left.get(), right.get()), expected);
}

TEST(JoinTest, NoMatches) {
  auto left = MakeKvTable("l", {{1, 1}, {2, 2}});
  auto right = MakeKvTable("r", {{3, 3}, {4, 4}});
  EXPECT_TRUE(ViaHash(left.get(), right.get()).empty());
  EXPECT_TRUE(ViaMerge(left.get(), right.get()).empty());
}

TEST(JoinTest, EmptyInputs) {
  auto empty = MakeKvTable("l", {});
  auto right = MakeKvTable("r", {{1, 1}});
  EXPECT_TRUE(ViaHash(empty.get(), right.get()).empty());
  EXPECT_TRUE(ViaHash(right.get(), empty.get()).empty());
  EXPECT_TRUE(ViaMerge(empty.get(), right.get()).empty());
  EXPECT_TRUE(ViaMerge(right.get(), empty.get()).empty());
}

TEST(JoinTest, NullKeysNeverMatch) {
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}});
  auto left = std::make_unique<Table>("l", schema);
  left->AppendRow({Value::Null(DataType::kInt64), Value::Double(1)});
  left->AppendRow({Value::Int64(1), Value::Double(2)});
  auto right = std::make_unique<Table>("r", schema);
  right->AppendRow({Value::Null(DataType::kInt64), Value::Double(3)});
  // 0 is a NULL's payload: a join that looked up a NULL key would match it.
  right->AppendRow({Value::Int64(0), Value::Double(5)});
  right->AppendRow({Value::Int64(1), Value::Double(4)});
  Catalog catalog;
  Table* right_table = right.get();
  ASSERT_TRUE(catalog.AddTable(std::move(right)).ok());
  ASSERT_TRUE(catalog.CreateIndex("r_k", "r", "k").ok());

  EXPECT_EQ(ViaHash(left.get(), right_table).size(), 1u);
  EXPECT_EQ(ViaMerge(left.get(), right_table).size(), 1u);
  EXPECT_EQ(ViaIndexNlj(left.get(), &catalog, "r_k").size(), 1u);
}

TEST(JoinTest, IndexNestLoopMatchesOracle) {
  Catalog catalog;
  auto left = MakeKvTable("l", {{1, 1}, {2, 2}, {5, 5}, {2, 7}});
  ASSERT_TRUE(
      catalog.AddTable(MakeKvTable("r", {{1, 10}, {2, 20}, {3, 30}})).ok());
  ASSERT_TRUE(catalog.CreateIndex("r_k", "r", "k").ok());
  Table* right = catalog.GetTable("r");
  auto expected = Oracle(left.get(), right);
  EXPECT_EQ(ViaIndexNlj(left.get(), &catalog, "r_k"), expected);
}

TEST(JoinTest, IndexNestLoopWithDuplicateInnerKeys) {
  Catalog catalog;
  auto left = MakeKvTable("l", {{7, 1}});
  ASSERT_TRUE(catalog.AddTable(
                  MakeKvTable("r", {{7, 1}, {7, 2}, {7, 3}, {8, 4}}))
                  .ok());
  ASSERT_TRUE(catalog.CreateIndex("r_k", "r", "k").ok());
  EXPECT_EQ(ViaIndexNlj(left.get(), &catalog, "r_k").size(), 3u);
}

TEST(JoinTest, HashJoinResidualPredicate) {
  auto left = MakeKvTable("l", {{1, 5}, {1, 15}});
  auto right = MakeKvTable("r", {{1, 10}});
  // Residual: left.v > right.v (columns 1 and 3 of the combined schema).
  ExprPtr residual = Bin(
      BinaryOp::kGt, MakeColumnRefUnchecked(1, DataType::kDouble, "lv"),
      MakeColumnRefUnchecked(3, DataType::kDouble, "rv"));
  HashJoinOperator join(Scan(left.get()), Scan(right.get()), Key(*left),
                        Key(*right), std::move(residual));
  auto rows = RunPlan(&join);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Double(15));
}

TEST(JoinTest, HashJoinRehashGrowth) {
  // More build rows than the initial table size forces rehashing.
  std::vector<std::pair<int64_t, double>> many;
  for (int64_t i = 0; i < 5000; ++i) many.push_back({i, i * 1.0});
  auto left = MakeKvTable("l", many);
  auto right = MakeKvTable("r", many);
  HashJoinOperator join(Scan(left.get()), Scan(right.get()), Key(*left),
                        Key(*right));
  EXPECT_EQ(RunPlan(&join).size(), 5000u);
  EXPECT_EQ(join.build_size(), 0u);  // Cleared on Close.
}

// Inner input whose Rescan fails.
class FailingRescanOperator final : public Operator {
 public:
  explicit FailingRescanOperator(OperatorPtr input) {
    AddChild(std::move(input));
  }
  Status Open(ExecContext* ctx) override { return child(0)->Open(ctx); }
  const uint8_t* Next() override { return child(0)->Next(); }
  void Close() override { child(0)->Close(); }
  Status Rescan() override {
    return Status::Internal("injected inner rescan failure");
  }
  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return child(0)->module_id(); }
};

// A join that cannot rescan its inner ends its stream early; the caller must
// get the Rescan error through both drivers, not OK with truncated rows.
TEST(JoinTest, InnerRescanFailureReachesCaller) {
  auto left = MakeKvTable("l", {{1, 1}, {2, 2}});
  auto right = MakeKvTable("r", {{1, 10}, {2, 20}});
  auto make_join = [&] {
    return std::make_unique<NestLoopJoinOperator>(
        Scan(left.get()),
        std::make_unique<FailingRescanOperator>(Scan(right.get())), nullptr);
  };
  {
    auto join = make_join();
    ExecContext ctx;
    auto rows = ExecutePlanRows(join.get(), &ctx);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kInternal);
  }
  {
    auto join = make_join();
    ExecContext ctx;
    auto rows = ExecutePlanBatched(join.get(), &ctx);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kInternal);
  }
}

class JoinEquivalenceTest : public ::testing::TestWithParam<int> {};

// Property: on random multiset-keyed inputs, hash join and merge join agree
// exactly with the naive nested-loop oracle.
TEST_P(JoinEquivalenceTest, RandomInputsAllStrategiesAgree) {
  int n = GetParam();
  Rng rng(static_cast<uint64_t>(n));
  std::vector<std::pair<int64_t, double>> lrows, rrows;
  for (int i = 0; i < n; ++i) {
    lrows.push_back({rng.Uniform(0, n / 4 + 1), i * 1.0});
  }
  for (int i = 0; i < n / 2 + 1; ++i) {
    rrows.push_back({rng.Uniform(0, n / 4 + 1), i * 10.0});
  }
  auto left = MakeKvTable("l", lrows);
  auto right = MakeKvTable("r", rrows);
  auto expected = Oracle(left.get(), right.get());
  EXPECT_EQ(ViaHash(left.get(), right.get()), expected);
  EXPECT_EQ(ViaMerge(left.get(), right.get()), expected);

  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeKvTable("r", rrows)).ok());
  ASSERT_TRUE(catalog.CreateIndex("r_k", "r", "k").ok());
  EXPECT_EQ(ViaIndexNlj(left.get(), &catalog, "r_k"), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JoinEquivalenceTest,
                         ::testing::Values(1, 5, 20, 100, 400));

}  // namespace
}  // namespace bufferdb

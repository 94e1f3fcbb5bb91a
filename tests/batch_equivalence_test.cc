// Batch/tuple equivalence suite (ISSUE acceptance criteria): for every
// operator type, draining a plan through NextBatch must produce exactly the
// rows Next() produces — same values, same order (order-insensitive only for
// parallel Exchange plans, whose interleaving is nondeterministic by design).
// Parameterized over batch sizes 1, 7, 256 and 1024 so the suite covers the
// degenerate single-slot batch, a size that never divides the inputs evenly,
// the default, and a batch larger than most inputs. Runs under ASan/UBSan in
// CI, so it also pins down the pointer-validity part of the contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/buffer_operator.h"
#include "exec/aggregation.h"
#include "exec/contract_check.h"
#include "exec/filter.h"
#include "exec/hash_aggregation.h"
#include "exec/hash_join.h"
#include "exec/index_scan.h"
#include "exec/nested_loop_join.h"
#include "exec/project.h"
#include "exec/seq_scan.h"
#include "exec/sort.h"
#include "exec/stream_aggregation.h"
#include "exec/topn.h"
#include "plan/physical_planner.h"
#include "sql/binder.h"
#include "test_util.h"
#include "tpch/tpch_gen.h"

namespace bufferdb {
namespace {

using testutil::Bin;
using testutil::Canonical;
using testutil::Col;
using testutil::Lit;
using testutil::MakeKvTable;
using testutil::RunPlan;

// Deterministic (k, v) rows with repeated keys; 997 rows so no batch size
// under test divides the input evenly.
std::vector<std::pair<int64_t, double>> TestRows(size_t n = 997) {
  std::vector<std::pair<int64_t, double>> rows;
  uint64_t state = 12345;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    rows.emplace_back(static_cast<int64_t>(state % 37),
                      static_cast<double>(state % 1000) / 10.0);
  }
  return rows;
}

// 997 rows of (k INT64, v DOUBLE, ni INT64, nd DOUBLE, s STRING, an INT64):
// ni, nd and s are NULL on every 5th, 7th and 11th row, `an` on every row.
std::unique_ptr<Table> MakeNullableTable() {
  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"ni", DataType::kInt64},
                 {"nd", DataType::kDouble},
                 {"s", DataType::kString},
                 {"an", DataType::kInt64}});
  auto table = std::make_unique<Table>("n", schema);
  const char* const kNames[] = {"ash", "birch", "cedar", "alder", "beech"};
  size_t i = 0;
  for (const auto& [k, v] : TestRows()) {
    table->AppendRow(
        {Value::Int64(k), Value::Double(v),
         i % 5 == 0 ? Value::Null(DataType::kInt64) : Value::Int64(k * 3 - 50),
         i % 7 == 0 ? Value::Null(DataType::kDouble) : Value::Double(v - 42.5),
         i % 11 == 0 ? Value::Null(DataType::kString)
                     : Value::String(kNames[static_cast<size_t>(k) % 5]),
         Value::Null(DataType::kInt64)});
    ++i;
  }
  return table;
}

// Every aggregate function over the int and double columns of
// MakeNullableTable, plus an all-NULL column and a computed argument.
std::vector<AggSpec> AllAggregates(const Schema& s) {
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
  for (const char* col : {"ni", "nd", "an"}) {
    std::string name = col;
    specs.push_back(AggSpec{AggFunc::kCount, Col(s, name), "count_" + name});
    specs.push_back(AggSpec{AggFunc::kSum, Col(s, name), "sum_" + name});
    specs.push_back(AggSpec{AggFunc::kAvg, Col(s, name), "avg_" + name});
    specs.push_back(AggSpec{AggFunc::kMin, Col(s, name), "min_" + name});
    specs.push_back(AggSpec{AggFunc::kMax, Col(s, name), "max_" + name});
  }
  specs.push_back(AggSpec{
      AggFunc::kSum,
      Bin(BinaryOp::kMul, Col(s, "nd"),
          Bin(BinaryOp::kSub, Lit(Value::Int64(1)), Col(s, "ni"))),
      "sum_expr"});
  return specs;
}

// Pass-through that records how its parent pulls rows.
class CountingOperator final : public Operator {
 public:
  explicit CountingOperator(OperatorPtr child) { AddChild(std::move(child)); }

  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    return child(0)->Open(ctx);
  }
  const uint8_t* Next() override {
    ++next_calls;
    return child(0)->Next();
  }
  size_t NextBatch(const uint8_t** out, size_t max) override {
    ++batch_calls;
    return child(0)->NextBatch(out, max);
  }
  void Close() override { child(0)->Close(); }
  const VectorBatch* BatchColumns() const override {
    return child(0)->BatchColumns();
  }
  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return child(0)->module_id(); }

  size_t next_calls = 0;
  size_t batch_calls = 0;
};

std::vector<std::vector<Value>> Decode(const std::vector<const uint8_t*>& rows,
                                       const Schema& schema) {
  std::vector<std::vector<Value>> out;
  out.reserve(rows.size());
  for (const uint8_t* row : rows) {
    TupleView view(row, &schema);
    std::vector<Value> values;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      values.push_back(view.GetValue(c));
    }
    out.push_back(std::move(values));
  }
  return out;
}

// Drains `root` through NextBatch and boxes the rows. Decoding happens
// before Close so the suite relies only on the documented pointer validity
// (query arena / storage lifetime), which ASan would flag if violated.
std::vector<std::vector<Value>> RunPlanBatched(Operator* root, size_t batch) {
  ExecContext ctx;
  auto rows = ExecutePlanBatched(root, &ctx, batch);
  EXPECT_TRUE(rows.ok()) << rows.status();
  if (!rows.ok()) return {};
  return Decode(*rows, root->output_schema());
}

// Drains `root` alternating one Next() and one NextBatch() call, as a
// caller mixing the two interfaces on one stream does.
std::vector<std::vector<Value>> RunPlanMixed(Operator* root, size_t batch) {
  ExecContext ctx;
  EXPECT_TRUE(root->Open(&ctx).ok());
  std::vector<const uint8_t*> rows;
  std::vector<const uint8_t*> slice(batch);
  for (;;) {
    const uint8_t* row = root->Next();
    if (row == nullptr) break;
    rows.push_back(row);
    const size_t n = root->NextBatch(slice.data(), batch);
    rows.insert(rows.end(), slice.begin(), slice.begin() + n);
    if (n == 0) break;
  }
  auto out = Decode(rows, root->output_schema());
  root->Close();
  return out;
}

// An index over (k INT64, v DOUBLE): keys 0..199 three times each (v = k,
// k + 200, k + 400), and key 77 another 300 times (v = 1000..1299), so its
// 303 entries span several 64-entry leaves and outnumber a 256-row batch.
struct DuplicateKeyIndex {
  DuplicateKeyIndex() {
    std::vector<std::pair<int64_t, double>> rows;
    for (int64_t i = 0; i < 600; ++i) {
      rows.emplace_back(i % 200, static_cast<double>(i));
    }
    for (int64_t i = 0; i < 300; ++i) {
      rows.emplace_back(77, 1000.0 + static_cast<double>(i));
    }
    EXPECT_TRUE(catalog.AddTable(MakeKvTable("inner", rows)).ok());
    EXPECT_TRUE(catalog.CreateIndex("inner_k", "inner", "k").ok());
    index = catalog.GetIndex("inner_k");
  }

  // `v >= 1000 OR k < 10`: keeps key 77's extra entries and keys 0..9, and
  // rejects every entry of keys 10..199 otherwise, whole batches of them.
  ExprPtr Residual() const {
    const Schema& s = index->table->schema();
    return Bin(BinaryOp::kOr,
               Bin(BinaryOp::kGe, Col(s, "v"), Lit(Value::Double(1000.0))),
               Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(10))));
  }

  Catalog catalog;
  const IndexInfo* index = nullptr;
};

void ExpectSameRows(const std::vector<std::vector<Value>>& expected,
                    const std::vector<std::vector<Value>>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].size(), actual[i].size()) << "row " << i;
    for (size_t c = 0; c < expected[i].size(); ++c) {
      EXPECT_TRUE(expected[i][c] == actual[i][c])
          << "row " << i << " col " << c << ": " << expected[i][c].ToString()
          << " vs " << actual[i][c].ToString();
    }
  }
}

// Columns `cols` of `rows`.
std::vector<std::vector<Value>> Columns(
    const std::vector<std::vector<Value>>& rows, const std::vector<int>& cols) {
  std::vector<std::vector<Value>> out;
  for (const std::vector<Value>& row : rows) {
    std::vector<Value> picked;
    for (int c : cols) picked.push_back(row[static_cast<size_t>(c)]);
    out.push_back(std::move(picked));
  }
  return out;
}

// Drains `op` through a ContractCheckedOperator after requesting `cols`
// without rows, and returns the published columns `cols` of every row it
// counts, in order. Each returned row pointer stays poisoned, so a
// consumer that read a row would fail, and Next() throws.
std::vector<std::vector<Value>> DrainRowFree(OperatorPtr op,
                                             const std::vector<int>& cols,
                                             size_t batch) {
  ContractCheckedOperator checked(std::move(op));
  ExecContext ctx;
  EXPECT_TRUE(checked.Open(&ctx).ok());
  EXPECT_TRUE(checked.RequestColumns(cols, /*rows=*/false));
  std::vector<const uint8_t*> out(batch);
  std::vector<std::vector<Value>> rows;
  while (size_t n = checked.NextBatch(out.data(), batch)) {
    const VectorBatch* published = checked.BatchColumns();
    EXPECT_NE(published, nullptr);
    if (published == nullptr) break;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], ContractCheckedOperator::PoisonPointer());
      std::vector<Value> row;
      for (int c : cols) row.push_back(LaneValue(published->Get(c), i));
      rows.push_back(std::move(row));
    }
  }
  EXPECT_THROW(checked.Next(), ContractViolation);
  checked.Close();
  EXPECT_EQ(ctx.arena.bytes_allocated(), 0u);
  return rows;
}

class BatchEquivalenceTest : public ::testing::TestWithParam<size_t> {
 protected:
  size_t batch() const { return GetParam(); }

  // Builds the plan twice via `factory` and checks NextBatch output at the
  // parameterized width against the tuple-at-a-time output.
  template <typename Factory>
  void CheckEquivalent(Factory factory) {
    CheckBatchedLoad([&](size_t) { return factory(); });
  }

  // The index join `factory` builds, asked for `cols` without rows, and a
  // scalar aggregate over it: the published columns `cols` equal, lane for
  // lane, the rows the join builds when rows are asked for, and the
  // aggregate (which requests its arguments' columns without rows when it
  // loads batches) answers as the width-1 plan does.
  template <typename Factory>
  void CheckRowFree(Factory factory, const std::vector<int>& cols) {
    ExpectSameRows(Columns(RunPlanBatched(factory().get(), batch()), cols),
                   DrainRowFree(factory(), cols, batch()));
    const IndexNestLoopJoinOperator* join = nullptr;
    auto make_agg = [&](size_t load_batch) {
      auto input = factory();
      join = input.get();
      const Schema& s = input->output_schema();
      std::vector<AggSpec> specs;
      specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
      for (int c : cols) {
        ExprPtr col = MakeColumnRefUnchecked(c, s.column(c).type,
                                             s.column(c).name);
        specs.push_back(AggSpec{AggFunc::kSum, col->Clone(), "sum"});
        specs.push_back(AggSpec{AggFunc::kMin, std::move(col), "min"});
      }
      auto agg = std::make_unique<AggregationOperator>(std::move(input),
                                                       std::move(specs));
      agg->set_batch_size(load_batch);
      return agg;
    };
    OperatorPtr tuple_plan = testutil::ContractChecked(make_agg(1));
    OperatorPtr batch_plan = testutil::ContractChecked(make_agg(batch()));
    ExpectSameRows(RunPlan(tuple_plan.get()),
                   RunPlanBatched(batch_plan.get(), batch()));
    EXPECT_EQ(join->builds_rows(), batch() == 1);
  }

  // For plans whose operators take a load width (aggregation): the
  // reference is built with width 1 and drained through Next(), the
  // candidate with the parameterized width and drained through NextBatch().
  template <typename Factory>
  void CheckBatchedLoad(Factory factory) {
    // Both plans go through the contract checker: in Debug builds every
    // operator pairing in this suite also asserts the Open/Next/Close state
    // machine and poisons stale batch slices; in Release the wrapper
    // compiles away.
    OperatorPtr tuple_plan = testutil::ContractChecked(factory(1));
    OperatorPtr batch_plan = testutil::ContractChecked(factory(batch()));
    ExpectSameRows(RunPlan(tuple_plan.get()),
                   RunPlanBatched(batch_plan.get(), batch()));
  }
};

TEST_P(BatchEquivalenceTest, SeqScan) {
  auto table = MakeKvTable("t", TestRows());
  CheckEquivalent(
      [&] { return std::make_unique<SeqScanOperator>(table.get(), nullptr); });
}

TEST_P(BatchEquivalenceTest, SeqScanWithPredicate) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    return std::make_unique<SeqScanOperator>(
        table.get(),
        Bin(BinaryOp::kLt, Col(s, "v"), Lit(Value::Double(40.0))));
  });
}

TEST_P(BatchEquivalenceTest, FilterAboveScan) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    return std::make_unique<FilterOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr),
        Bin(BinaryOp::kGe, Col(s, "k"), Lit(Value::Int64(9))));
  });
}

TEST_P(BatchEquivalenceTest, FilterRejectingEverything) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    return std::make_unique<FilterOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr),
        Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(-1))));
  });
}

TEST_P(BatchEquivalenceTest, ProjectAboveScan) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    std::vector<ProjectItem> items;
    items.push_back(ProjectItem{
        Bin(BinaryOp::kMul, Col(s, "v"), Lit(Value::Double(2.0))), "v2"});
    items.push_back(ProjectItem{Col(s, "k"), "k"});
    return std::make_unique<ProjectOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr),
        std::move(items));
  });

  // Bare columns only, one of them a string (which does not compile): both
  // drains copy slots, and the rows hold the scanned values, NULLs too.
  auto nullable = MakeNullableTable();
  const Schema& ns = nullable->schema();
  const std::vector<std::string> names = {"s", "ni", "k", "s", "nd"};
  auto make_project = [&] {
    std::vector<ProjectItem> items;
    for (const std::string& name : names) {
      items.push_back(ProjectItem{Col(ns, name), name});
    }
    return std::make_unique<ProjectOperator>(
        std::make_unique<SeqScanOperator>(nullable.get(), nullptr),
        std::move(items));
  };
  CheckEquivalent(make_project);
  SeqScanOperator scan(nullable.get(), nullptr);
  std::vector<std::vector<Value>> expected;
  for (const std::vector<Value>& row : RunPlan(&scan)) {
    std::vector<Value> picked;
    for (const std::string& name : names) {
      picked.push_back(row[ns.FindColumn(name)]);
    }
    expected.push_back(std::move(picked));
  }
  ExpectSameRows(expected, RunPlanBatched(make_project().get(), batch()));

  // Bare numeric columns only: every item compiles, yet NextBatch copies
  // slots as Next() does instead of decoding the batch, publishes nothing,
  // and each row is byte-identical to the one TupleBuilder::Finish builds.
  const std::vector<std::string> numeric = {"nd", "k", "ni", "k"};
  auto make_numeric = [&] {
    std::vector<ProjectItem> items;
    for (const std::string& name : numeric) {
      items.push_back(ProjectItem{Col(ns, name), name});
    }
    return std::make_unique<ProjectOperator>(
        std::make_unique<SeqScanOperator>(nullable.get(), nullptr),
        std::move(items));
  };
  CheckEquivalent(make_numeric);
  const auto scanned = RunPlan(&scan);
  OperatorPtr project = make_numeric();
  const Schema& out_schema = project->output_schema();
  ExecContext ctx;
  ASSERT_TRUE(project->Open(&ctx).ok());
  Arena arena;
  std::vector<const uint8_t*> slice(batch());
  size_t row = 0;
  while (const size_t n = project->NextBatch(slice.data(), slice.size())) {
    EXPECT_EQ(project->BatchColumns()->rows(), 0u);
    for (size_t i = 0; i < n; ++i, ++row) {
      ASSERT_LT(row, scanned.size());
      TupleBuilder builder(&out_schema);
      for (size_t c = 0; c < numeric.size(); ++c) {
        builder.Set(c, scanned[row][ns.FindColumn(numeric[c])]);
      }
      const uint8_t* want = builder.Finish(&arena);
      const uint32_t size = TupleView(want, &out_schema).size_bytes();
      ASSERT_EQ(TupleView(slice[i], &out_schema).size_bytes(), size);
      EXPECT_EQ(std::memcmp(slice[i], want, size), 0) << "row " << row;
    }
  }
  EXPECT_EQ(row, scanned.size());
  project->Close();
}

TEST_P(BatchEquivalenceTest, BufferAboveScan) {
  auto table = MakeKvTable("t", TestRows());
  for (size_t buffer_size : {3u, 100u, 2000u}) {
    CheckEquivalent([&] {
      return std::make_unique<BufferOperator>(
          std::make_unique<SeqScanOperator>(table.get(), nullptr),
          buffer_size);
    });
  }
}

TEST_P(BatchEquivalenceTest, StackedBuffersWithFilter) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    OperatorPtr plan = std::make_unique<SeqScanOperator>(table.get(), nullptr);
    plan = std::make_unique<BufferOperator>(std::move(plan), 64);
    plan = std::make_unique<FilterOperator>(
        std::move(plan), Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(20))));
    plan = std::make_unique<BufferOperator>(std::move(plan), 128);
    return plan;
  });
}

TEST_P(BatchEquivalenceTest, SortDefaultNextBatch) {
  // Sort has no NextBatch override: the base-class loop over Next() hands
  // out its output. (How Sort pulls its input is
  // SortAndTopNPullOnlyThroughNextBatch's subject.)
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    std::vector<SortKey> keys;
    keys.push_back(SortKey{s.FindColumn("k"), false});
    keys.push_back(SortKey{s.FindColumn("v"), true});
    return std::make_unique<SortOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr),
        std::move(keys));
  });
}

TEST_P(BatchEquivalenceTest, StreamAggregationDefaultNextBatch) {
  // StreamAggregation is tuple-at-a-time: its NextBatch is the base-class
  // loop over Next. Two-column key with NULLs in both columns (NULL keys
  // sort last and form their own groups).
  auto table = MakeNullableTable();
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    std::vector<SortKey> keys;
    keys.push_back(SortKey{s.FindColumn("s"), false});
    keys.push_back(SortKey{s.FindColumn("ni"), false});
    std::vector<GroupKeyExpr> groups;
    groups.push_back(GroupKeyExpr{Col(s, "s"), "s"});
    groups.push_back(GroupKeyExpr{Col(s, "ni"), "ni"});
    return std::make_unique<StreamAggregationOperator>(
        std::make_unique<SortOperator>(
            std::make_unique<SeqScanOperator>(table.get(), nullptr),
            std::move(keys)),
        std::move(groups), AllAggregates(s));
  });
}

TEST_P(BatchEquivalenceTest, ScalarAggregation) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckBatchedLoad([&](size_t load_batch) {
    std::vector<AggSpec> specs;
    specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
    specs.push_back(AggSpec{AggFunc::kSum, Col(s, "v"), "sum_v"});
    specs.push_back(AggSpec{AggFunc::kMax, Col(s, "k"), "max_k"});
    auto agg = std::make_unique<AggregationOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr),
        std::move(specs));
    agg->set_batch_size(load_batch);
    return agg;
  });
}

TEST_P(BatchEquivalenceTest, ScalarAggregationOverNullsWithAndWithoutBuffer) {
  // Every aggregate over NULL-bearing int and double columns (and an
  // all-NULL one), folded column-at-a-time, must match the tuple loop
  // bit-for-bit. With a Buffer below, the buffer's refills run through the
  // scan's NextBatch.
  auto table = MakeNullableTable();
  const Schema& s = table->schema();
  for (bool buffered : {false, true}) {
    CheckBatchedLoad([&](size_t load_batch) {
      OperatorPtr input =
          std::make_unique<SeqScanOperator>(table.get(), nullptr);
      if (buffered) {
        input = std::make_unique<BufferOperator>(std::move(input), 100);
      }
      auto agg = std::make_unique<AggregationOperator>(std::move(input),
                                                       AllAggregates(s));
      agg->set_batch_size(load_batch);
      return agg;
    });
  }
}

TEST_P(BatchEquivalenceTest, HashJoinBatchedProbe) {
  auto probe_table = MakeKvTable("probe", TestRows());
  std::vector<std::pair<int64_t, double>> build_rows;
  for (int64_t k = 0; k < 37; k += 2) {  // Some probe keys unmatched.
    build_rows.emplace_back(k, 1000.0 + static_cast<double>(k));
  }
  auto build_table = MakeKvTable("build", build_rows);
  const Schema& ps = probe_table->schema();
  const Schema& bs = build_table->schema();
  auto make_join = [&](size_t probe_batch) {
    auto join = std::make_unique<HashJoinOperator>(
        std::make_unique<SeqScanOperator>(probe_table.get(), nullptr),
        std::make_unique<SeqScanOperator>(build_table.get(), nullptr),
        Col(ps, "k"), Col(bs, "k"));
    join->set_probe_batch_size(probe_batch);
    return join;
  };
  // The batched probe must be invisible at both drain interfaces.
  auto expected = RunPlan(make_join(1).get());
  auto batched_tuple_drain = RunPlan(make_join(batch()).get());
  ExpectSameRows(expected, batched_tuple_drain);
  auto batched_batch_drain = RunPlanBatched(make_join(batch()).get(), batch());
  ExpectSameRows(expected, batched_batch_drain);
}

TEST_P(BatchEquivalenceTest, IndexNestLoopJoin) {
  // Outer key `ni` is NULL on every 5th row. The inner index is non-unique
  // (each key three times), its residual filter drops some duplicates, and
  // the output row keeps three columns of Concat(outer, inner): outer k and
  // s, inner v.
  auto outer = MakeNullableTable();
  std::vector<std::pair<int64_t, double>> inner_rows;
  for (int64_t i = 0; i < 120; ++i) {
    inner_rows.emplace_back(i % 40 - 10, static_cast<double>(i));
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeKvTable("inner", inner_rows)).ok());
  ASSERT_TRUE(catalog.CreateIndex("inner_k", "inner", "k").ok());
  const IndexInfo* index = catalog.GetIndex("inner_k");
  const Schema& is = index->table->schema();
  auto make_nullable_join = [&] {
    auto inner = std::make_unique<IndexScanOperator>(
        index, std::nullopt, std::nullopt,
        Bin(BinaryOp::kLt, Col(is, "v"), Lit(Value::Double(90.0))));
    return std::make_unique<IndexNestLoopJoinOperator>(
        std::make_unique<SeqScanOperator>(outer.get(), nullptr),
        std::move(inner), Col(outer->schema(), "ni"),
        std::vector<int>{0, 4, 7});
  };
  CheckEquivalent(make_nullable_join);
  // Outer k and inner v; the string s cannot be published, and a request
  // that reads rows keeps them.
  CheckRowFree(make_nullable_join, {0, 2});
  EXPECT_FALSE(make_nullable_join()->RequestColumns(std::vector<int>{1},
                                                    /*rows=*/false));
  EXPECT_FALSE(make_nullable_join()->RequestColumns(std::vector<int>{0, 2},
                                                    /*rows=*/true));

  // Outer keys 60..119 in runs of four equal keys, twice over, against
  // DuplicateKeyIndex: key 77 has more matches than a batch holds, and its
  // residual rejects every match of keys 78..119, whole batches of them.
  DuplicateKeyIndex fixture;
  std::vector<std::pair<int64_t, double>> runs;
  for (int64_t i = 0; i < 480; ++i) {
    runs.emplace_back((i / 4) % 60 + 60, static_cast<double>(i));
  }
  auto repeated = MakeKvTable("outer", runs);
  for (bool residual : {false, true}) {
    for (bool narrow : {false, true}) {
      SCOPED_TRACE(std::string(residual ? "residual" : "no residual") +
                   (narrow ? ", narrow row" : ", full row"));
      auto make_join = [&] {
        auto inner = std::make_unique<IndexScanOperator>(
            fixture.index, std::nullopt, std::nullopt,
            residual ? fixture.Residual() : nullptr);
        return std::make_unique<IndexNestLoopJoinOperator>(
            std::make_unique<SeqScanOperator>(repeated.get(), nullptr),
            std::move(inner), Col(repeated->schema(), "k"),
            narrow ? std::vector<int>{1, 3} : std::vector<int>{});
      };
      CheckEquivalent(make_join);
      ExpectSameRows(
          RunPlan(make_join().get()),
          RunPlanMixed(testutil::ContractChecked(make_join()).get(), batch()));
      // Outer and inner columns: outer v and inner v, or outer k and v and
      // inner v of the full row.
      CheckRowFree(make_join, narrow ? std::vector<int>{0, 1}
                                     : std::vector<int>{0, 1, 3});
    }
  }
}

// IndexScan::SeekEqual over keys equal to, above and below the previous
// one, absent ones, key 77's entries spanning leaves, keys in the next
// leaf and further on, and the last leaf: each key's run equals a fresh
// descent's (BindEqualKey + Rescan), and both positionings are taken.
TEST_P(BatchEquivalenceTest, IndexSeekEqualWalksForward) {
  DuplicateKeyIndex fixture;
  const int64_t kKeys[] = {0,   0,   1,   2,   5,   30,  76,  77,  77, 78,
                           79,  120, 3,   77,  199, 199, 250, -5, 10, 11,
                           12,  13,  14,  198, 500, 76,  78,  150, 151};
  IndexScanOperator seek(fixture.index, std::nullopt, std::nullopt, nullptr);
  IndexScanOperator fresh(fixture.index, std::nullopt, std::nullopt, nullptr);
  ExecContext ctx;
  ASSERT_TRUE(seek.Open(&ctx).ok());
  ASSERT_TRUE(fresh.Open(&ctx).ok());
  std::vector<const uint8_t*> run(batch());
  for (int64_t key : kKeys) {
    SCOPED_TRACE(key);
    seek.SeekEqual(key);
    std::vector<const uint8_t*> got;
    while (size_t n = seek.NextRun(run.data(), run.size())) {
      got.insert(got.end(), run.begin(), run.begin() + n);
    }
    fresh.BindEqualKey(key);
    ASSERT_TRUE(fresh.Rescan().ok());
    std::vector<const uint8_t*> expected;
    while (const uint8_t* row = fresh.Next()) expected.push_back(row);
    EXPECT_EQ(got, expected);
  }
  EXPECT_GT(seek.forward_seeks(), 0u);
  EXPECT_GT(seek.descents(), 0u);
}

TEST_P(BatchEquivalenceTest, IndexScan) {
  DuplicateKeyIndex fixture;
  struct Case {
    const char* name;
    std::optional<int64_t> lo, hi, equal;
    bool residual;
    bool interpreted;  // The residual on the interpreter fallback.
  };
  const Case kCases[] = {
      {"whole index", std::nullopt, std::nullopt, std::nullopt, false, false},
      {"whole index, residual", std::nullopt, std::nullopt, std::nullopt,
       true, false},
      {"whole index, interpreted residual", std::nullopt, std::nullopt,
       std::nullopt, true, true},
      {"range over a multi-leaf key", 70, 90, std::nullopt, false, false},
      {"range, residual", 70, 90, std::nullopt, true, false},
      {"empty range", 5, 4, std::nullopt, false, false},
      {"bound multi-leaf key", std::nullopt, std::nullopt, 77, false, false},
      {"bound key, residual", std::nullopt, std::nullopt, 77, true, false},
      {"bound key, rejected by residual", std::nullopt, std::nullopt, 150,
       true, false},
      {"bound absent key", std::nullopt, std::nullopt, 500, false, false},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    auto make_scan = [&] {
      auto scan = std::make_unique<IndexScanOperator>(
          fixture.index, c.lo, c.hi,
          c.residual ? fixture.Residual() : nullptr);
      if (c.equal.has_value()) scan->BindEqualKey(*c.equal);
      scan->set_vectorized_eval(!c.interpreted);
      return scan;
    };
    CheckEquivalent(make_scan);
    ExpectSameRows(
        RunPlan(make_scan().get()),
        RunPlanMixed(testutil::ContractChecked(make_scan()).get(), batch()));
  }
}

TEST_P(BatchEquivalenceTest, HashAggregationBatchedLoad) {
  // Group keys from every source: an int column, a string column with NULLs
  // (both read from the packed rows), a NULL-bearing int column, a compiled
  // computed key and a LIKE key that only the interpreter evaluates. The
  // string MIN/MAX arguments take the interpreter fallback as well.
  auto table = MakeNullableTable();
  const Schema& s = table->schema();
  std::vector<std::vector<std::string>> key_sets = {
      {"k"}, {"s"}, {"ni"}, {"k+ni"}, {"s", "ni"}, {"s like"}};
  for (const std::vector<std::string>& keys : key_sets) {
    auto make_agg = [&](size_t load_batch) {
      std::vector<GroupKeyExpr> groups;
      for (const std::string& key : keys) {
        ExprPtr expr;
        if (key == "k+ni") {
          expr = Bin(BinaryOp::kAdd, Col(s, "k"), Col(s, "ni"));
        } else if (key == "s like") {
          expr = Bin(BinaryOp::kLike, Col(s, "s"), Lit(Value::String("b%")));
        } else {
          expr = Col(s, key);
        }
        groups.push_back(GroupKeyExpr{std::move(expr), key});
      }
      std::vector<AggSpec> specs = AllAggregates(s);
      specs.push_back(AggSpec{AggFunc::kMin, Col(s, "s"), "min_s"});
      specs.push_back(AggSpec{AggFunc::kMax, Col(s, "s"), "max_s"});
      auto agg = std::make_unique<HashAggregationOperator>(
          std::make_unique<SeqScanOperator>(table.get(), nullptr),
          std::move(groups), std::move(specs));
      agg->set_batch_size(load_batch);
      return agg;
    };
    SCOPED_TRACE(keys.front());
    auto expected = RunPlan(make_agg(1).get());
    ExpectSameRows(expected, RunPlan(make_agg(batch()).get()));
    CheckBatchedLoad(make_agg);
  }
}

TEST_P(BatchEquivalenceTest, BatchedAggregationPullsOnlyThroughNextBatch) {
  // A batched load (and a Buffer refilled for a batch-draining parent) must
  // never fall back to per-tuple Next() on its input.
  if (batch() == 1) GTEST_SKIP() << "width 1 selects the tuple-at-a-time load";
  auto table = MakeNullableTable();
  const Schema& s = table->schema();
  for (bool buffered : {false, true}) {
    for (bool grouped : {false, true}) {
      auto counting = std::make_unique<CountingOperator>(
          std::make_unique<SeqScanOperator>(table.get(), nullptr));
      CountingOperator* probe = counting.get();
      OperatorPtr input = std::move(counting);
      if (buffered) {
        input = std::make_unique<BufferOperator>(std::move(input), 100);
      }
      OperatorPtr root;
      if (grouped) {
        std::vector<GroupKeyExpr> groups;
        groups.push_back(GroupKeyExpr{Col(s, "s"), "s"});
        auto agg = std::make_unique<HashAggregationOperator>(
            std::move(input), std::move(groups), AllAggregates(s));
        agg->set_batch_size(batch());
        root = std::move(agg);
      } else {
        auto agg = std::make_unique<AggregationOperator>(std::move(input),
                                                         AllAggregates(s));
        agg->set_batch_size(batch());
        root = std::move(agg);
      }
      RunPlanBatched(root.get(), batch());
      EXPECT_EQ(probe->next_calls, 0u)
          << "buffered=" << buffered << " grouped=" << grouped;
      EXPECT_GT(probe->batch_calls, 0u);
    }
  }
}

TEST_P(BatchEquivalenceTest, SortAndTopNPullOnlyThroughNextBatch) {
  // Given a batch width, Sort and TopN drain their input through NextBatch
  // alone, also through a Buffer refilled for them; at width 1 through
  // Next() alone. Either way the answer is the width-1 plan's, row for row.
  auto table = MakeNullableTable();
  const Schema& s = table->schema();
  const int k = s.FindColumn("k");
  const int nd = s.FindColumn("nd");
  const int str = s.FindColumn("s");
  struct Case {
    const char* name;
    std::vector<SortKey> keys;
    std::optional<size_t> limit;  // TopN when set, Sort otherwise.
  };
  // `s` holds five names and a NULL on every 11th row; `k` 37 keys of
  // about 27 rows each, so a limit of 50 cuts through a run of ties.
  const Case kCases[] = {
      {"int64 ascending", {{k, false}}, std::nullopt},
      {"double descending", {{nd, true}}, std::nullopt},
      {"string ascending", {{str, false}}, std::nullopt},
      {"topn limit 0", {{k, false}}, 0},
      {"topn limit above the input", {{str, false}, {nd, true}}, 5000},
      {"topn ties at the cut", {{k, false}}, 50},
  };
  for (const Case& c : kCases) {
    for (bool buffered : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (buffered ? ", buffered" : ""));
      CountingOperator* probe = nullptr;
      auto make = [&](size_t width) {
        auto counting = std::make_unique<CountingOperator>(
            std::make_unique<SeqScanOperator>(table.get(), nullptr));
        probe = counting.get();
        OperatorPtr input = std::move(counting);
        if (buffered) {
          input = std::make_unique<BufferOperator>(std::move(input), 100);
        }
        input = testutil::ContractChecked(std::move(input));
        OperatorPtr root;
        if (c.limit.has_value()) {
          auto topn = std::make_unique<TopNOperator>(std::move(input), c.keys,
                                                     *c.limit);
          topn->set_batch_size(width);
          root = std::move(topn);
        } else {
          auto sort = std::make_unique<SortOperator>(std::move(input), c.keys);
          sort->set_batch_size(width);
          root = std::move(sort);
        }
        return testutil::ContractChecked(std::move(root));
      };
      auto expected = RunPlan(make(1).get());
      OperatorPtr plan = make(batch());
      ExpectSameRows(expected, RunPlanBatched(plan.get(), batch()));
      if (batch() > 1) {
        EXPECT_EQ(probe->next_calls, 0u);
      } else {
        EXPECT_EQ(probe->batch_calls, 0u);
      }
      if (c.limit == 0u) {
        EXPECT_TRUE(expected.empty());
      } else {
        EXPECT_GT(probe->next_calls + probe->batch_calls, 0u);
      }
    }
  }

  // Sort is stable: rows with equal names, and the NULLs after them, keep
  // their scan order.
  SeqScanOperator scan(table.get(), nullptr);
  auto expected = RunPlan(&scan);
  std::stable_sort(expected.begin(), expected.end(),
                   [str](const std::vector<Value>& a,
                         const std::vector<Value>& b) {
                     const Value& x = a[str];
                     const Value& y = b[str];
                     if (x.is_null() != y.is_null()) return y.is_null();
                     return !x.is_null() && Value::Compare(x, y) < 0;
                   });
  auto sort = std::make_unique<SortOperator>(
      std::make_unique<SeqScanOperator>(table.get(), nullptr),
      std::vector<SortKey>{{str, false}});
  sort->set_batch_size(batch());
  ExpectSameRows(expected, RunPlanBatched(sort.get(), batch()));
}

TEST_P(BatchEquivalenceTest, MixingNextAndNextBatchIsAllowed) {
  // The contract allows interleaving Next() and NextBatch() on one stream.
  auto table = MakeKvTable("t", TestRows());
  auto make_buffer = [&] {
    return std::make_unique<BufferOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr), 100);
  };
  ExpectSameRows(RunPlan(make_buffer().get()),
                 RunPlanMixed(make_buffer().get(), batch()));
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchEquivalenceTest,
                         ::testing::Values(1, 7, 256, 1024));

// Exchange plans: the planner's batch_size knob at parallel degrees 1/2/8
// must leave the result set unchanged (order-insensitive — worker
// interleaving is nondeterministic).
class ExchangeBatchEquivalenceTest : public ::testing::TestWithParam<size_t> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(config, catalog_).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  OperatorPtr MustPlan(const std::string& sql, PlannerOptions options) {
    sql::Binder binder(catalog_);
    auto q = binder.BindSql(sql);
    EXPECT_TRUE(q.ok()) << q.status();
    PhysicalPlanner planner(catalog_, options);
    auto plan = planner.CreatePlan(*q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return std::move(*plan);
  }

  // A parallel plan at the parameterized batch width. With `refine`, each
  // worker fragment of a width-1 plan gets its own static Buffers (the
  // Exchange is a group boundary) and a batched one gets none; the result
  // must still match the unrefined serial plan.
  PlannerOptions Options(size_t degree, bool refine) const {
    PlannerOptions options;
    options.parallel_degree = degree;
    options.batch_size = GetParam();
    options.refine = refine;
    return options;
  }

  static Catalog* catalog_;
};

Catalog* ExchangeBatchEquivalenceTest::catalog_ = nullptr;

TEST_P(ExchangeBatchEquivalenceTest, ProjectionAcrossDegrees) {
  const char kSql[] =
      "SELECT l_orderkey, l_quantity FROM lineitem "
      "WHERE l_shipdate <= DATE '1998-09-02'";
  OperatorPtr serial = MustPlan(kSql, PlannerOptions{});
  auto expected = Canonical(RunPlan(serial.get()));
  for (size_t degree : {1u, 2u, 8u}) {
    for (bool refine : {false, true}) {
      OperatorPtr plan = MustPlan(kSql, Options(degree, refine));
      auto actual = Canonical(RunPlanBatched(plan.get(), GetParam()));
      EXPECT_EQ(expected, actual) << "degree " << degree << " refine "
                                  << refine;
    }
  }
}

TEST_P(ExchangeBatchEquivalenceTest, JoinAggregateAcrossDegrees) {
  // Double aggregates are compared with a relative tolerance: parallel
  // summation order differs from the serial plan in the last ulp.
  const char kSql[] =
      "SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders "
      "WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1998-09-02'";
  OperatorPtr serial = MustPlan(kSql, PlannerOptions{});
  auto expected = RunPlan(serial.get());
  ASSERT_EQ(expected.size(), 1u);
  for (size_t degree : {1u, 2u, 8u}) {
    for (bool refine : {false, true}) {
      PlannerOptions options = Options(degree, refine);
      options.join_strategy = JoinStrategy::kHashJoin;
      OperatorPtr plan = MustPlan(kSql, options);
      auto actual = RunPlanBatched(plan.get(), GetParam());
      ASSERT_EQ(actual.size(), 1u) << "degree " << degree;
      ASSERT_EQ(expected[0].size(), actual[0].size());
      for (size_t c = 0; c < expected[0].size(); ++c) {
        const Value& a = expected[0][c];
        const Value& b = actual[0][c];
        ASSERT_EQ(a.is_null(), b.is_null());
        if (a.is_null()) continue;
        if (a.type() == DataType::kDouble) {
          double tolerance = 1e-9 * (1.0 + std::abs(a.double_value()));
          EXPECT_NEAR(a.double_value(), b.double_value(), tolerance)
              << "degree " << degree << " refine " << refine << " col " << c;
        } else {
          EXPECT_TRUE(a == b)
              << "degree " << degree << " refine " << refine << " col " << c
              << ": " << a.ToString() << " vs " << b.ToString();
        }
      }
    }
  }
}

// Three-table joins under every join strategy: batched plans narrow each
// join row to the columns read above the scans (a cross predicate's
// columns, both ends of a redundant edge, a string group key), the serial
// tuple-at-a-time reference keeps full-width rows. The aggregates are
// exact in any summation order, so results compare as strings.
TEST_P(ExchangeBatchEquivalenceTest, ThreeTableJoinsAcrossStrategies) {
  const char* const kQueries[] = {
      // String group key carried through both joins; a cross predicate on
      // a column nothing else reads.
      "SELECT c_name, COUNT(*) AS n, MAX(l_extendedprice) AS top, "
      "SUM(l_linenumber) AS lines FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
      "AND l_extendedprice * 4 > o_totalprice GROUP BY c_name",
      // A cycle: the nation join uses one edge, the other is a filter.
      "SELECT n_name, COUNT(*) AS n, MIN(s_acctbal) AS lo "
      "FROM supplier, customer, nation "
      "WHERE s_nationkey = c_nationkey AND s_nationkey = n_nationkey "
      "AND c_nationkey = n_nationkey GROUP BY n_name",
      // Scalar aggregates, computed inside the Exchange fragments.
      "SELECT COUNT(*) AS n, MIN(o_totalprice) AS lo, "
      "MAX(l_extendedprice) AS hi FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
      "AND c_mktsegment = 'BUILDING'",
      // A projection, also pushed into the fragments.
      "SELECT c_name, o_orderdate, l_linenumber "
      "FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
      "AND l_quantity < 3"};
  for (const char* sql : kQueries) {
    OperatorPtr serial = MustPlan(sql, PlannerOptions{});
    auto expected = Canonical(RunPlan(serial.get()));
    ASSERT_FALSE(expected.empty()) << sql;
    for (JoinStrategy strategy :
         {JoinStrategy::kAuto, JoinStrategy::kHashJoin,
          JoinStrategy::kMergeJoin}) {
      for (size_t degree : {1u, 2u, 8u}) {
        PlannerOptions options = Options(degree, /*refine=*/false);
        options.join_strategy = strategy;
        OperatorPtr plan = MustPlan(sql, options);
        auto actual = Canonical(RunPlanBatched(plan.get(), GetParam()));
        EXPECT_EQ(expected, actual)
            << sql << "\nstrategy " << JoinStrategyName(strategy)
            << " degree " << degree;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ExchangeBatchEquivalenceTest,
                         ::testing::Values(1, 7, 256, 1024));

}  // namespace
}  // namespace bufferdb

#include "profile/calibration_queries.h"

#include <cassert>

#include "catalog/catalog.h"
#include "common/date.h"
#include "common/rng.h"
#include "core/buffer_operator.h"
#include "exec/aggregation.h"
#include "exec/hash_aggregation.h"
#include "exec/hash_join.h"
#include "exec/index_scan.h"
#include "exec/limit.h"
#include "exec/materialize.h"
#include "exec/merge_join.h"
#include "exec/nested_loop_join.h"
#include "exec/project.h"
#include "exec/seq_scan.h"
#include "exec/sort.h"

namespace bufferdb::profile {

namespace {

ExprPtr Col(const Schema& schema, const std::string& name) {
  auto r = MakeColumnRef(schema, name);
  assert(r.ok());
  return std::move(*r);
}

ExprPtr Cmp(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto res = MakeBinary(op, std::move(l), std::move(r));
  assert(res.ok());
  return std::move(*res);
}

void Run(Operator* root, ExecContext* ctx) {
  auto result = ExecutePlan(root, ctx);
  assert(result.ok());
  (void)result;
}

}  // namespace

std::unique_ptr<Table> BuildSyntheticItems(size_t rows, uint64_t seed,
                                           int64_t key_range) {
  Schema schema({{"id", DataType::kInt64},
                 {"key", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"discount", DataType::kDouble},
                 {"tax", DataType::kDouble},
                 {"quantity", DataType::kDouble},
                 {"shipdate", DataType::kDate},
                 {"sel", DataType::kDouble}});
  auto table = std::make_unique<Table>("items", schema);
  Rng rng(seed);
  int64_t start = MakeDate(1992, 1, 1);
  int64_t end = MakeDate(1998, 12, 31);
  TupleBuilder builder(&table->schema());
  for (size_t i = 0; i < rows; ++i) {
    builder.Reset();
    builder.SetInt64(0, static_cast<int64_t>(i));
    builder.SetInt64(1, rng.Uniform(0, key_range - 1));
    builder.SetDouble(2, 900.0 + rng.NextDouble() * 200.0);
    builder.SetDouble(3, rng.NextDouble() * 0.10);
    builder.SetDouble(4, rng.NextDouble() * 0.08);
    builder.SetDouble(5, 1.0 + rng.NextDouble() * 49.0);
    builder.SetDate(6, rng.Uniform(start, end));
    builder.SetDouble(7, rng.NextDouble());
    table->Append(builder);
  }
  return table;
}

std::unique_ptr<Table> BuildSyntheticGroups(size_t rows, uint64_t seed) {
  Schema schema(
      {{"key", DataType::kInt64}, {"totalprice", DataType::kDouble}});
  auto table = std::make_unique<Table>("groups", schema);
  Rng rng(seed);
  TupleBuilder builder(&table->schema());
  for (size_t i = 0; i < rows; ++i) {
    builder.Reset();
    builder.SetInt64(0, static_cast<int64_t>(i));
    builder.SetDouble(1, 1000.0 + rng.NextDouble() * 9000.0);
    table->Append(builder);
  }
  return table;
}

FootprintTable CalibrateFootprints() {
  Catalog catalog;
  {
    auto st = catalog.AddTable(BuildSyntheticItems(512, /*seed=*/7));
    assert(st.ok());
    st = catalog.AddTable(BuildSyntheticGroups(128, /*seed=*/11));
    assert(st.ok());
    st = catalog.CreateIndex("groups_pk", "groups", "key", /*unique=*/true);
    assert(st.ok());
    st = catalog.CreateIndex("items_key", "items", "key");
    assert(st.ok());
    (void)st;
  }
  Table* items = catalog.GetTable("items");
  Table* groups = catalog.GetTable("groups");
  const IndexInfo* groups_pk = catalog.GetIndex("groups_pk");
  const IndexInfo* items_key = catalog.GetIndex("items_key");
  const Schema& item_schema = items->schema();
  const Schema& group_schema = groups->schema();

  sim::SimCpu cpu;
  CallGraphRecorder recorder;
  cpu.set_call_graph_sink(&recorder);

  auto run = [&cpu](OperatorPtr plan) {
    ExecContext ctx;
    ctx.cpu = &cpu;
    Run(plan.get(), &ctx);
  };

  // 1. Scan without predicates.
  run(std::make_unique<SeqScanOperator>(items, nullptr));

  // 2. Scan with predicates.
  run(std::make_unique<SeqScanOperator>(
      items, Cmp(BinaryOp::kLe, Col(item_schema, "sel"),
                 MakeLiteral(Value::Double(0.5)))));

  // 3. Index range scan.
  run(std::make_unique<IndexScanOperator>(items_key, int64_t{10}, int64_t{60},
                                          nullptr));

  // 4. Sort.
  run(std::make_unique<SortOperator>(
      std::make_unique<SeqScanOperator>(items, nullptr),
      std::vector<SortKey>{{item_schema.FindColumn("key"), false}}));

  // 5. Index nested-loop join (covers NestLoopJoin + IndexScan lookup).
  run(std::make_unique<IndexNestLoopJoinOperator>(
      std::make_unique<SeqScanOperator>(items, nullptr),
      std::make_unique<IndexScanOperator>(groups_pk, std::nullopt,
                                          std::nullopt, nullptr),
      Col(item_schema, "key")));

  // 6. Naive nested loop over a materialized inner.
  run(std::make_unique<LimitOperator>(
      std::make_unique<NestLoopJoinOperator>(
          std::make_unique<SeqScanOperator>(groups, nullptr),
          std::make_unique<MaterializeOperator>(
              std::make_unique<SeqScanOperator>(groups, nullptr)),
          nullptr),
      256));

  // 7. Hash join (build + probe modules).
  run(std::make_unique<HashJoinOperator>(
      std::make_unique<SeqScanOperator>(items, nullptr),
      std::make_unique<SeqScanOperator>(groups, nullptr),
      Col(item_schema, "key"), Col(group_schema, "key")));

  // 8. Merge join over sorted inputs.
  run(std::make_unique<MergeJoinOperator>(
      std::make_unique<SortOperator>(
          std::make_unique<SeqScanOperator>(items, nullptr),
          std::vector<SortKey>{{item_schema.FindColumn("key"), false}}),
      std::make_unique<SortOperator>(
          std::make_unique<SeqScanOperator>(groups, nullptr),
          std::vector<SortKey>{{group_schema.FindColumn("key"), false}}),
      Col(item_schema, "key"), Col(group_schema, "key")));

  // 9. Scalar aggregation (COUNT covers the base aggregation path; the
  // other aggregate functions are separate code whose sizes are read from
  // the binary, as in the paper).
  {
    std::vector<AggSpec> specs;
    specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "count"});
    run(std::make_unique<AggregationOperator>(
        std::make_unique<SeqScanOperator>(items, nullptr), std::move(specs)));
  }

  // 10. Grouped aggregation.
  {
    std::vector<GroupKeyExpr> group_by;
    group_by.push_back(GroupKeyExpr{Col(item_schema, "key"), "key"});
    std::vector<AggSpec> specs;
    specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "count"});
    run(std::make_unique<HashAggregationOperator>(
        std::make_unique<SeqScanOperator>(items, nullptr), std::move(group_by),
        std::move(specs)));
  }

  // 11. Buffer operator.
  run(std::make_unique<BufferOperator>(
      std::make_unique<SeqScanOperator>(items, nullptr), 64));

  // 12. Project.
  {
    std::vector<ProjectItem> items_list;
    items_list.push_back(ProjectItem{Col(item_schema, "price"), "price"});
    run(std::make_unique<ProjectOperator>(
        std::make_unique<SeqScanOperator>(items, nullptr),
        std::move(items_list)));
  }

  return FootprintTable::FromRecorder(recorder);
}

}  // namespace bufferdb::profile

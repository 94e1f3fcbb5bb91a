#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/buffer_operator.h"
#include "core/plan_refiner.h"
#include "exec/aggregation.h"
#include "exec/hash_join.h"
#include "exec/index_scan.h"
#include "exec/nested_loop_join.h"
#include "exec/seq_scan.h"
#include "exec/sort.h"
#include "test_util.h"

namespace bufferdb {
namespace {

using testutil::Bin;
using testutil::Col;
using testutil::Lit;
using testutil::MakeKvTable;

bool IsBuffer(const Operator* op) {
  return op->module_id() == sim::ModuleId::kBuffer;
}

// Query-1 shaped plan: Agg(SUM, AVG, COUNT) over filtered Scan.
OperatorPtr Query1Plan(Table* table, double scan_rows) {
  const Schema& s = table->schema();
  auto scan = std::make_unique<SeqScanOperator>(
      table, Bin(BinaryOp::kGe, Col(s, "k"), Lit(Value::Int64(0))));
  scan->set_estimated_rows(scan_rows);
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kSum, Col(s, "v"), "s"});
  specs.push_back(AggSpec{AggFunc::kAvg, Col(s, "v"), "a"});
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
  auto agg =
      std::make_unique<AggregationOperator>(std::move(scan), std::move(specs));
  agg->set_estimated_rows(1);
  return agg;
}

// Query-2 shaped plan: Agg(COUNT) over filtered Scan — fits in L1I.
OperatorPtr Query2Plan(Table* table, double scan_rows) {
  const Schema& s = table->schema();
  auto scan = std::make_unique<SeqScanOperator>(
      table, Bin(BinaryOp::kGe, Col(s, "k"), Lit(Value::Int64(0))));
  scan->set_estimated_rows(scan_rows);
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
  auto agg =
      std::make_unique<AggregationOperator>(std::move(scan), std::move(specs));
  agg->set_estimated_rows(1);
  return agg;
}

TEST(PlanRefinerTest, Query1GetsBufferAboveScan) {
  auto table = MakeKvTable("t", {{1, 1}});
  RefinementReport report;
  PlanRefiner refiner;
  OperatorPtr refined = refiner.Refine(Query1Plan(table.get(), 1e6), &report);

  // Agg -> Buffer -> Scan (Fig. 5b).
  EXPECT_EQ(refined->module_id(), sim::ModuleId::kAggregation);
  ASSERT_EQ(refined->num_children(), 1u);
  EXPECT_TRUE(IsBuffer(refined->child(0)));
  EXPECT_EQ(refined->child(0)->child(0)->module_id(),
            sim::ModuleId::kSeqScanFiltered);
  EXPECT_EQ(report.buffers_added, 1);
  ASSERT_EQ(report.groups.size(), 2u);
  EXPECT_TRUE(report.groups[0].buffered);
  EXPECT_FALSE(report.groups[1].buffered);  // Top group: output to client.
}

TEST(PlanRefinerTest, Query2StaysUnbuffered) {
  // Combined Scan+Agg(COUNT)+Buffer footprint fits in L1I: one execution
  // group, no buffer (Fig. 9's conclusion).
  auto table = MakeKvTable("t", {{1, 1}});
  RefinementReport report;
  PlanRefiner refiner;
  OperatorPtr refined = refiner.Refine(Query2Plan(table.get(), 1e6), &report);
  EXPECT_EQ(report.buffers_added, 0);
  EXPECT_EQ(refined->module_id(), sim::ModuleId::kAggregation);
  EXPECT_EQ(refined->child(0)->module_id(), sim::ModuleId::kSeqScanFiltered);
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].op_labels.size(), 2u);
}

TEST(PlanRefinerTest, LowCardinalityScanNotBuffered) {
  auto table = MakeKvTable("t", {{1, 1}});
  RefinementOptions options;
  options.cardinality_threshold = 600;
  PlanRefiner refiner(options);
  RefinementReport report;
  OperatorPtr refined = refiner.Refine(Query1Plan(table.get(), 100), &report);
  EXPECT_EQ(report.buffers_added, 0);
  EXPECT_FALSE(IsBuffer(refined->child(0)));
}

TEST(PlanRefinerTest, UnknownCardinalityTreatedAsLarge) {
  auto table = MakeKvTable("t", {{1, 1}});
  OperatorPtr plan = Query1Plan(table.get(), 1e6);
  plan->child(0)->set_estimated_rows(-1);
  RefinementReport report;
  PlanRefiner refiner;
  refiner.Refine(std::move(plan), &report);
  EXPECT_EQ(report.buffers_added, 1);
}

TEST(PlanRefinerTest, SortIsNeverInAGroupButItsInputIsBuffered) {
  // Sort over a filtered scan: the pipeline below the sort thrashes
  // (Scan 13K + Sort 14K > 16K), so the scan gets a buffer; the sort itself
  // is a pipeline breaker and joins no group.
  auto table = MakeKvTable("t", {{1, 1}});
  const Schema& s = table->schema();
  auto scan = std::make_unique<SeqScanOperator>(
      table.get(), Bin(BinaryOp::kGe, Col(s, "k"), Lit(Value::Int64(0))));
  scan->set_estimated_rows(1e6);
  std::vector<SortKey> keys;
  keys.push_back(SortKey{s.FindColumn("k"), false});
  auto sort = std::make_unique<SortOperator>(std::move(scan), std::move(keys));
  sort->set_estimated_rows(1e6);

  RefinementReport report;
  PlanRefiner refiner;
  OperatorPtr refined = refiner.Refine(std::move(sort), &report);
  EXPECT_EQ(refined->module_id(), sim::ModuleId::kSort);
  EXPECT_TRUE(IsBuffer(refined->child(0)));
  EXPECT_EQ(report.buffers_added, 1);
}

TEST(PlanRefinerTest, ExcludedInnerIndexScanNeverBuffered) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeKvTable("r", {{1, 1}, {2, 2}})).ok());
  ASSERT_TRUE(catalog.CreateIndex("r_k", "r", "k", /*unique=*/true).ok());
  auto left = MakeKvTable("l", {{1, 1}});
  const Schema& ls = left->schema();

  auto outer = std::make_unique<SeqScanOperator>(
      left.get(), Bin(BinaryOp::kGe, Col(ls, "k"), Lit(Value::Int64(0))));
  outer->set_estimated_rows(1e6);
  auto inner = std::make_unique<IndexScanOperator>(
      catalog.GetIndex("r_k"), std::nullopt, std::nullopt, nullptr);
  inner->set_excluded_from_buffering(true);
  inner->set_estimated_rows(1e6);  // Even with a huge estimate: excluded.
  auto join = std::make_unique<IndexNestLoopJoinOperator>(
      std::move(outer), std::move(inner), Col(ls, "k"));
  join->set_estimated_rows(1e6);

  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
  auto agg = std::make_unique<AggregationOperator>(std::move(join),
                                                   std::move(specs));
  agg->set_estimated_rows(1);

  RefinementReport report;
  PlanRefiner refiner;
  OperatorPtr refined = refiner.Refine(std::move(agg), &report);

  // Fig. 15(b): buffer above the outer scan; no buffer above the inner
  // index scan. NestLoop (11K) cannot merge with the 13K scan group nor
  // with the aggregation, so it forms its own buffered group.
  const Operator* maybe_buffer = refined->child(0);
  ASSERT_TRUE(IsBuffer(maybe_buffer));
  const Operator* nlj = maybe_buffer->child(0);
  ASSERT_EQ(nlj->module_id(), sim::ModuleId::kNestLoopJoin);
  EXPECT_TRUE(IsBuffer(nlj->child(0)));
  EXPECT_EQ(nlj->child(1)->module_id(), sim::ModuleId::kIndexScan);
  EXPECT_EQ(report.buffers_added, 2);
}

// Fig. 16's plan: Agg(SUM, AVG, COUNT) over HashJoin(filtered scan of `l`,
// scan of `o`), every estimate large.
OperatorPtr HashJoinPlan(Table* lineitem, Table* orders) {
  const Schema& ls = lineitem->schema();
  const Schema& os = orders->schema();

  auto probe_scan = std::make_unique<SeqScanOperator>(
      lineitem, Bin(BinaryOp::kGe, Col(ls, "k"), Lit(Value::Int64(0))));
  probe_scan->set_estimated_rows(1e6);
  auto build_scan = std::make_unique<SeqScanOperator>(orders, nullptr);
  build_scan->set_estimated_rows(1e6);
  auto join = std::make_unique<HashJoinOperator>(
      std::move(probe_scan), std::move(build_scan), Col(ls, "k"),
      Col(os, "k"));
  join->set_estimated_rows(1e6);

  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kSum, MakeColumnRefUnchecked(
                                             1, DataType::kDouble, "v"),
                          "s"});
  specs.push_back(AggSpec{AggFunc::kAvg, MakeColumnRefUnchecked(
                                             3, DataType::kDouble, "v2"),
                          "a"});
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
  auto agg = std::make_unique<AggregationOperator>(std::move(join),
                                                   std::move(specs));
  agg->set_estimated_rows(1);
  return agg;
}

size_t CountBuffers(const Operator& op) {
  size_t n = IsBuffer(&op) ? 1 : 0;
  for (size_t i = 0; i < op.num_children(); ++i) {
    n += CountBuffers(*op.child(i));
  }
  return n;
}

TEST(PlanRefinerTest, HashJoinBuildSideScanBuffered) {
  // Fig. 16: both the probe-side scan and the build-side scan get buffers
  // (the build input is blocking but the pipeline below it still thrashes
  // against the build code).
  auto lineitem = MakeKvTable("l", {{1, 1}});
  auto orders = MakeKvTable("o", {{1, 1}});
  RefinementReport report;
  PlanRefiner refiner;
  OperatorPtr refined =
      refiner.Refine(HashJoinPlan(lineitem.get(), orders.get()), &report);

  const Operator* hj = refined->child(0);
  if (IsBuffer(hj)) hj = hj->child(0);  // Probe group itself is buffered.
  ASSERT_EQ(hj->module_id(), sim::ModuleId::kHashJoinProbe);
  EXPECT_TRUE(IsBuffer(hj->child(0)));  // Probe-side scan buffered.
  EXPECT_TRUE(IsBuffer(hj->child(1)));  // Build-side scan buffered.
  EXPECT_GE(report.buffers_added, 2);
}

// A batched plan gets no Buffer: its parents already pull a batch at a
// time. The refiner still forms and reports the groups of the batched
// footprints, each unbuffered; refined at batch 1 the same plan keeps its
// Buffers.
TEST(PlanRefinerTest, BatchedPlanGetsNoBufferButKeepsItsGroups) {
  auto lineitem = MakeKvTable("l", {{1, 1}});
  auto orders = MakeKvTable("o", {{1, 1}});

  RefinementReport tuple_report;
  OperatorPtr tuple_plan = PlanRefiner().Refine(
      HashJoinPlan(lineitem.get(), orders.get()), &tuple_report);
  EXPECT_EQ(tuple_report.buffers_added, 3);
  EXPECT_EQ(CountBuffers(*tuple_plan), 3u);
  EXPECT_EQ(tuple_report.groups.size(), 4u);

  RefinementOptions batched;
  batched.batch_size = Operator::kDefaultBatchSize;
  RefinementReport report;
  OperatorPtr refined = PlanRefiner(batched).Refine(
      HashJoinPlan(lineitem.get(), orders.get()), &report);
  EXPECT_EQ(report.buffers_added, 0);
  EXPECT_EQ(CountBuffers(*refined), 0u);
  // The batched footprints are smaller (compiled predicates), so fewer
  // groups form than at batch 1; the same two the refiner formed when it
  // still buffered batched groups.
  EXPECT_EQ(report.groups.size(), 2u);
  for (const ExecutionGroup& group : report.groups) {
    EXPECT_FALSE(group.buffered) << group.ToString();
  }
  // Unknown estimates (treated as large) do not bring a Buffer back.
  OperatorPtr unknown = HashJoinPlan(lineitem.get(), orders.get());
  unknown->child(0)->set_estimated_rows(-1);
  RefinementReport unknown_report;
  PlanRefiner(batched).Refine(std::move(unknown), &unknown_report);
  EXPECT_EQ(unknown_report.buffers_added, 0);
}

TEST(PlanRefinerTest, MergeDisabledBuffersEveryEligibleOperator) {
  auto table = MakeKvTable("t", {{1, 1}});
  RefinementOptions options;
  options.merge_execution_groups = false;
  PlanRefiner refiner(options);
  RefinementReport report;
  OperatorPtr refined = refiner.Refine(Query2Plan(table.get(), 1e6), &report);
  // Even Query 2's small pipeline gets a buffer in the ablation mode.
  EXPECT_EQ(report.buffers_added, 1);
  EXPECT_TRUE(IsBuffer(refined->child(0)));
}

TEST(PlanRefinerTest, RefinedPlanStillExecutesCorrectly) {
  std::vector<std::pair<int64_t, double>> rows;
  for (int i = 0; i < 3000; ++i) rows.push_back({i, 1.0});
  auto table = MakeKvTable("t", rows);
  OperatorPtr original = Query1Plan(table.get(), 3000);
  ExecContext ctx1;
  auto expected = ExecutePlanRows(original.get(), &ctx1);
  ASSERT_TRUE(expected.ok());

  PlanRefiner refiner;
  OperatorPtr refined = refiner.Refine(Query1Plan(table.get(), 3000));
  ExecContext ctx2;
  auto got = ExecutePlanRows(refined.get(), &ctx2);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ((*got)[0][0], (*expected)[0][0]);
  EXPECT_EQ((*got)[0][2], Value::Int64(3000));
}

TEST(PlanRefinerTest, BufferSizeOptionPropagates) {
  auto table = MakeKvTable("t", {{1, 1}});
  RefinementOptions options;
  options.buffer_size = 4242;
  PlanRefiner refiner(options);
  OperatorPtr refined = refiner.Refine(Query1Plan(table.get(), 1e6));
  auto* buffer = dynamic_cast<BufferOperator*>(refined->child(0));
  ASSERT_NE(buffer, nullptr);
  EXPECT_EQ(buffer->buffer_size(), 4242u);
}

TEST(PlanRefinerTest, ReportFootprintsAreShared) {
  auto table = MakeKvTable("t", {{1, 1}});
  RefinementReport report;
  PlanRefiner refiner;
  refiner.Refine(Query2Plan(table.get(), 1e6), &report);
  ASSERT_EQ(report.groups.size(), 1u);
  // Scan(13K) + Agg(10K + count) share 8K: combined well below the sum.
  EXPECT_LE(report.groups[0].funcs.TotalBytes(), 16384u);
  EXPECT_GE(report.groups[0].funcs.TotalBytes(), 13000u);
}

}  // namespace
}  // namespace bufferdb

namespace bufferdb {
namespace {

TEST(StaticFootprintRefinementTest, StaticEstimatesOverBuffer) {
  // With static footprints, Query 2's Scan+Agg no longer "fits" and the
  // refiner inserts a buffer it would not insert with dynamic footprints.
  auto table = testutil::MakeKvTable("t", {{1, 1}});
  RefinementOptions options;
  options.assume_static_footprints = true;
  PlanRefiner refiner(options);
  RefinementReport report;
  refiner.Refine(Query2Plan(table.get(), 1e6), &report);
  EXPECT_EQ(report.buffers_added, 1);

  PlanRefiner dynamic_refiner;
  RefinementReport dynamic_report;
  dynamic_refiner.Refine(Query2Plan(table.get(), 1e6), &dynamic_report);
  EXPECT_EQ(dynamic_report.buffers_added, 0);
}

}  // namespace
}  // namespace bufferdb

// Tests for the hardware-PMU observability layer (src/perf/): the
// BUFFERDB_PERF_DISABLE-forced no-op backend, result equivalence of profiled
// plans, and the per-operator attribution arithmetic.
//
// The whole binary runs with BUFFERDB_PERF_DISABLE=1 (forced below, before
// any thread's counter group is built) so the degradation path — the one CI
// containers and locked-down runners exercise — is tested deterministically
// even on hosts that do have a PMU. The attribution checks are written
// against wall time, which PerfRegion collects unconditionally, so they hold
// on both backends.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "exec/column_scan.h"
#include "exec/filter.h"
#include "exec/hash_aggregation.h"
#include "exec/seq_scan.h"
#include "perf/perf_counters.h"
#include "perf/perf_region.h"
#include "perf/profiled_operator.h"
#include "perf/query_profile.h"
#include "storage/column_table.h"
#include "test_util.h"

namespace bufferdb {
namespace {

// Force the no-op backend before main() — and before any lazily-built
// thread_local ThreadCounterGroup() — runs.
const bool g_perf_disabled_for_test = [] {
  ::setenv("BUFFERDB_PERF_DISABLE", "1", /*overwrite=*/1);
  return true;
}();

std::unique_ptr<Table> SmallTable() {
  std::vector<std::pair<int64_t, double>> rows;
  for (int64_t i = 0; i < 500; ++i) {
    rows.emplace_back(i % 10, static_cast<double>(i));
  }
  return testutil::MakeKvTable("items", rows);
}

// scan(items) -> filter(k < 7) -> hash-agg(by k: SUM(v), COUNT).
OperatorPtr MakePlan(Table* table, size_t batch_size = 1) {
  const Schema& schema = table->schema();
  OperatorPtr plan = std::make_unique<SeqScanOperator>(table, nullptr);
  plan = std::make_unique<FilterOperator>(
      std::move(plan),
      testutil::Bin(BinaryOp::kLt, testutil::Col(schema, "k"),
                    testutil::Lit(Value::Int64(7))));
  std::vector<GroupKeyExpr> groups;
  groups.push_back(GroupKeyExpr{testutil::Col(schema, "k"), "k"});
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kSum, testutil::Col(schema, "v"), "sum_v"});
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "cnt"});
  auto agg = std::make_unique<HashAggregationOperator>(
      std::move(plan), std::move(groups), std::move(specs));
  agg->set_batch_size(batch_size);
  return agg;
}

TEST(PerfCountersTest, EnvOverrideForcesNoopBackendWithReason) {
  ASSERT_TRUE(g_perf_disabled_for_test);
  perf::PerfCounterGroup group;  // Fresh group, not the thread_local one.
  EXPECT_FALSE(group.available());
  EXPECT_FALSE(group.fully_available());
  for (int e = 0; e < perf::kNumHwEvents; ++e) {
    EXPECT_FALSE(group.event_supported(static_cast<perf::HwEvent>(e)));
  }
  // The degradation contract: the reason is surfaced, never silently empty.
  EXPECT_NE(group.unavailable_reason().find("BUFFERDB_PERF_DISABLE"),
            std::string::npos)
      << group.unavailable_reason();
  EXPECT_FALSE(group.ReadNow().AnyNonZero());
}

TEST(PerfCountersTest, HwCountersArithmetic) {
  perf::HwCounters a;
  a.cycles = 100;
  a.l1i_misses = 10;
  perf::HwCounters b;
  b.cycles = 30;
  b.l1i_misses = 25;  // More than a's: subtraction must saturate, not wrap.
  perf::HwCounters diff = a - b;
  EXPECT_EQ(diff.cycles, 70u);
  EXPECT_EQ(diff.l1i_misses, 0u);
  b += a;
  EXPECT_EQ(b.cycles, 130u);
  EXPECT_TRUE(b.AnyNonZero());
  EXPECT_FALSE(perf::HwCounters().AnyNonZero());
  EXPECT_NE(a.ToJson().find("\"cycles\": 100"), std::string::npos);
}

TEST(PerfCountersTest, PerfRegionAccumulatesWallUnconditionally) {
  uint64_t wall_ns = 0;
  perf::HwCounters hw;
  {
    perf::PerfRegion region(&hw, &wall_ns);
    // Enough work for any steady_clock granularity.
    volatile uint64_t sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + static_cast<uint64_t>(i);
  }
  EXPECT_GT(wall_ns, 0u);
  // Forced no-op backend: hardware deltas must stay zero.
  EXPECT_FALSE(hw.AnyNonZero());
}

TEST(PerfCountersTest, ProfiledPlanProducesIdenticalResults) {
  auto table = SmallTable();
  OperatorPtr plain = MakePlan(table.get());
  auto expected = testutil::RunPlan(plain.get());
  ASSERT_FALSE(expected.empty());

  perf::QueryProfile profile;
  OperatorPtr profiled = perf::ProfilePlan(MakePlan(table.get()), &profile);
  auto got = testutil::RunPlan(profiled.get());

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), expected[i].size());
    for (size_t j = 0; j < got[i].size(); ++j) {
      EXPECT_TRUE(got[i][j] == expected[i][j]) << "row " << i << " col " << j;
    }
  }
  // The no-op backend's reason must survive into the profile.
  EXPECT_FALSE(profile.hw_available());
  EXPECT_FALSE(profile.unavailable_reason().empty());
}

// A traced plan hands each consumer the columns the untraced plan aliases:
// the wrapper forwards its consumer's request and its operator's published
// batch, so the profile times the decode work the timed run does, and no
// more.
TEST(PerfCountersTest, ProfiledOperatorForwardsPublishedColumns) {
  auto table = SmallTable();
  table->AttachColumnar(ColumnarTable::Build(*table));
  const Schema& schema = table->schema();
  perf::QueryProfile scan_profile;
  OperatorPtr scan = perf::ProfilePlan(
      std::make_unique<ColumnScanOperator>(table.get(), nullptr),
      &scan_profile);
  ExecContext ctx;
  ASSERT_TRUE(scan->Open(&ctx).ok());
  EXPECT_FALSE(scan->RequestColumns(
      std::vector<int>{schema.FindColumn("k")}, /*rows=*/true));
  std::vector<const uint8_t*> batch(64);
  const size_t n = scan->NextBatch(batch.data(), batch.size());
  ASSERT_GT(n, 0u);
  const VectorBatch* published = scan->child(0)->BatchColumns();
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(scan->BatchColumns(), published);
  EXPECT_EQ(published->rows(), n);
  EXPECT_NE(published->Find(schema.FindColumn("k")), nullptr);
  scan->Close();

  // ColumnScan(k < 7) -> batched hash-agg(by k: SUM(v), COUNT), which
  // requests v, traced and not.
  auto make_plan = [&] {
    auto input = std::make_unique<ColumnScanOperator>(
        table.get(), testutil::Bin(BinaryOp::kLt, testutil::Col(schema, "k"),
                                   testutil::Lit(Value::Int64(7))));
    std::vector<GroupKeyExpr> groups;
    groups.push_back(GroupKeyExpr{testutil::Col(schema, "k"), "k"});
    std::vector<AggSpec> specs;
    specs.push_back(
        AggSpec{AggFunc::kSum, testutil::Col(schema, "v"), "sum_v"});
    specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "cnt"});
    auto agg = std::make_unique<HashAggregationOperator>(
        std::move(input), std::move(groups), std::move(specs));
    agg->set_batch_size(64);
    return agg;
  };
  const auto expected = testutil::RunPlan(make_plan().get());
  ASSERT_EQ(expected.size(), 7u);
  perf::QueryProfile profile;
  OperatorPtr profiled = perf::ProfilePlan(make_plan(), &profile);
  EXPECT_EQ(testutil::Canonical(testutil::RunPlan(profiled.get())),
            testutil::Canonical(expected));
}

TEST(PerfCountersTest, AttributionTelescopesOnSerialPlan) {
  auto table = SmallTable();
  perf::QueryProfile profile;
  OperatorPtr root = perf::ProfilePlan(MakePlan(table.get()), &profile);
  auto rows = testutil::RunPlan(root.get());
  ASSERT_EQ(rows.size(), 7u);  // k in 0..6 after the filter.

  ASSERT_EQ(profile.nodes().size(), 3u);  // agg, filter, scan.
  uint64_t exclusive_sum = 0;
  for (const perf::OperatorStats& node : profile.nodes()) {
    EXPECT_GT(node.opens, 0u) << node.label;
    EXPECT_GT(node.next_calls + node.batch_calls, 0u) << node.label;
    EXPECT_EQ(node.fragment, -1) << node.label;  // Serial: consumer thread.
    exclusive_sum += profile.ExclusiveWallNs(node.id);
  }
  // Serial plan: per-operator exclusive costs telescope back to exactly the
  // root's inclusive cost — nothing double-counted, nothing dropped. The
  // same identity holds for cycles on a live PMU; wall time is the backend-
  // independent version.
  EXPECT_EQ(exclusive_sum, profile.RootWallNs());
  EXPECT_EQ(profile.TotalAttributedWallNs(), profile.RootWallNs());
  EXPECT_GT(profile.RootWallNs(), 0u);
  EXPECT_FALSE(profile.RootHw().AnyNonZero());  // Forced no-op backend.
}

TEST(PerfCountersTest, BatchPathIsAttributed) {
  auto table = SmallTable();
  perf::QueryProfile profile;
  OperatorPtr root =
      perf::ProfilePlan(MakePlan(table.get(), /*batch_size=*/64), &profile);
  auto rows = testutil::RunPlan(root.get());
  ASSERT_EQ(rows.size(), 7u);

  // The aggregation drains its child via NextBatch; the child wrapper must
  // count those calls (and their rows) rather than lose them.
  uint64_t batch_calls = 0;
  uint64_t batched_rows = 0;
  for (const perf::OperatorStats& node : profile.nodes()) {
    batch_calls += node.batch_calls;
    if (node.batch_calls > 0) batched_rows += node.rows;
  }
  EXPECT_GT(batch_calls, 0u);
  // The whole pipeline below the aggregation runs batched: the scan hands
  // its 500 rows to the filter in batches, the filter its 350 survivors
  // (k % 10 < 7) to the aggregation.
  EXPECT_EQ(batched_rows, 850u);
}

TEST(PerfCountersTest, TextAndJsonDumps) {
  auto table = SmallTable();
  perf::QueryProfile profile;
  OperatorPtr root = perf::ProfilePlan(MakePlan(table.get()), &profile);
  testutil::RunPlan(root.get());

  std::string text = profile.ToText();
  EXPECT_NE(text.find("Scan(items)"), std::string::npos) << text;
  EXPECT_NE(text.find("HashAgg"), std::string::npos) << text;

  std::string json = profile.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"hw_available\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nodes\":"), std::string::npos);
  EXPECT_NE(json.find("\"unavailable_reason\""), std::string::npos);
}

}  // namespace
}  // namespace bufferdb

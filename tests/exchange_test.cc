// ExchangeOperator correctness: parallel plans must produce the same
// (order-insensitive) results as the single-threaded plan at every degree,
// for scan→filter→aggregate pipelines and partitioned join plans, with and
// without per-worker buffering (ISSUE acceptance criteria).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/aggregation.h"
#include "exec/seq_scan.h"
#include "parallel/agg_merge.h"
#include "parallel/exchange.h"
#include "parallel/morsel.h"
#include "parallel/thread_pool.h"
#include "plan/physical_planner.h"
#include "plan/plan_printer.h"
#include "sql/binder.h"
#include "test_util.h"
#include "tpch/tpch_gen.h"

namespace bufferdb {
namespace {

using testutil::Canonical;
using testutil::RunPlan;

constexpr char kScanFilterAgg[] =
    "SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS charge, "
    "AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order, "
    "MIN(l_quantity) AS min_qty, MAX(l_quantity) AS max_qty "
    "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'";

constexpr char kProjection[] =
    "SELECT l_orderkey, l_quantity FROM lineitem "
    "WHERE l_shipdate <= DATE '1998-09-02'";

constexpr char kJoinProjection[] =
    "SELECT l_orderkey, o_totalprice FROM lineitem, orders "
    "WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1998-09-02'";

constexpr char kGroupedCount[] =
    "SELECT l_returnflag, COUNT(*) AS c FROM lineitem "
    "GROUP BY l_returnflag";

class ExchangeTest : public ::testing::Test {
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

  std::vector<std::vector<Value>> RunSql(const std::string& sql,
                                         PlannerOptions options = {}) {
    OperatorPtr plan = MustPlan(sql, options);
    return RunPlan(plan.get());
  }

  // Asserts row-set equality with a small relative tolerance on doubles
  // (parallel summation order is nondeterministic, so double aggregates can
  // differ from the serial plan in the last ulp).
  static void ExpectRowsNear(const std::vector<std::vector<Value>>& serial,
                             const std::vector<std::vector<Value>>& parallel) {
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t r = 0; r < serial.size(); ++r) {
      ASSERT_EQ(serial[r].size(), parallel[r].size());
      for (size_t c = 0; c < serial[r].size(); ++c) {
        const Value& a = serial[r][c];
        const Value& b = parallel[r][c];
        ASSERT_EQ(a.is_null(), b.is_null()) << "row " << r << " col " << c;
        if (a.is_null()) continue;
        if (a.type() == DataType::kDouble) {
          double tolerance = 1e-9 * (1.0 + std::abs(a.double_value()));
          EXPECT_NEAR(a.double_value(), b.double_value(), tolerance)
              << "row " << r << " col " << c;
        } else {
          EXPECT_EQ(Value::Compare(a, b), 0)
              << "row " << r << " col " << c << ": " << a.ToString()
              << " vs " << b.ToString();
        }
      }
    }
  }

  static Catalog* catalog_;
};

Catalog* ExchangeTest::catalog_ = nullptr;

TEST_F(ExchangeTest, ScanFilterAggMatchesSerialAtAllDegrees) {
  auto serial = RunSql(kScanFilterAgg);
  ASSERT_EQ(serial.size(), 1u);
  for (size_t degree : {1u, 2u, 8u}) {
    PlannerOptions options;
    options.parallel_degree = degree;
    auto parallel = RunSql(kScanFilterAgg, options);
    ExpectRowsNear(serial, parallel);
  }
}

TEST_F(ExchangeTest, ProjectionMatchesSerialAtAllDegrees) {
  auto serial = Canonical(RunSql(kProjection));
  ASSERT_GT(serial.size(), 1000u);
  for (size_t degree : {2u, 8u}) {
    PlannerOptions options;
    options.parallel_degree = degree;
    options.morsel_rows = 256;  // Force many morsels even at this scale.
    EXPECT_EQ(Canonical(RunSql(kProjection, options)), serial)
        << "degree " << degree;
  }
}

TEST_F(ExchangeTest, HashJoinMatchesSerialAtAllDegrees) {
  PlannerOptions serial_options;
  serial_options.join_strategy = JoinStrategy::kHashJoin;
  auto serial = Canonical(RunSql(kJoinProjection, serial_options));
  ASSERT_GT(serial.size(), 100u);
  for (size_t degree : {2u, 8u}) {
    PlannerOptions options;
    options.join_strategy = JoinStrategy::kHashJoin;
    options.parallel_degree = degree;
    options.morsel_rows = 512;
    EXPECT_EQ(Canonical(RunSql(kJoinProjection, options)), serial)
        << "degree " << degree;
  }
}

TEST_F(ExchangeTest, IndexNestLoopJoinMatchesSerial) {
  PlannerOptions serial_options;
  serial_options.join_strategy = JoinStrategy::kIndexNestLoop;
  auto serial = Canonical(RunSql(kJoinProjection, serial_options));
  PlannerOptions options = serial_options;
  options.parallel_degree = 4;
  EXPECT_EQ(Canonical(RunSql(kJoinProjection, options)), serial);
}

TEST_F(ExchangeTest, MergeJoinMatchesSerial) {
  // Each fragment sorts only its own morsel partition before the merge
  // join; the union across fragments must still equal the serial join.
  PlannerOptions serial_options;
  serial_options.join_strategy = JoinStrategy::kMergeJoin;
  auto serial = Canonical(RunSql(kJoinProjection, serial_options));
  PlannerOptions options = serial_options;
  options.parallel_degree = 4;
  EXPECT_EQ(Canonical(RunSql(kJoinProjection, options)), serial);
}

TEST_F(ExchangeTest, GroupedAggregationAboveExchangeMatchesSerial) {
  auto serial = Canonical(RunSql(kGroupedCount));
  for (size_t degree : {2u, 8u}) {
    PlannerOptions options;
    options.parallel_degree = degree;
    EXPECT_EQ(Canonical(RunSql(kGroupedCount, options)), serial)
        << "degree " << degree;
  }
}

TEST_F(ExchangeTest, RefinementPlacesBuffersInsideFragments) {
  PlannerOptions options;
  options.parallel_degree = 4;
  options.refine = true;
  OperatorPtr plan = MustPlan(kScanFilterAgg, options);
  std::string text = PrintPlan(*plan);
  size_t exchange_at = text.find("Exchange(");
  ASSERT_NE(exchange_at, std::string::npos) << text;
  // Per-worker buffering: each of the 4 fragments gets its own Buffer
  // below the Exchange, and none sits above it.
  size_t buffers = 0;
  for (size_t at = text.find("Buffer("); at != std::string::npos;
       at = text.find("Buffer(", at + 1)) {
    EXPECT_GT(at, exchange_at) << "buffer above the Exchange:\n" << text;
    ++buffers;
  }
  EXPECT_EQ(buffers, 4u) << text;

  auto serial = RunSql(kScanFilterAgg);
  ExpectRowsNear(serial, RunPlan(plan.get()));
}

TEST_F(ExchangeTest, ReExecutionProducesSameResult) {
  PlannerOptions options;
  options.parallel_degree = 4;
  OperatorPtr plan = MustPlan(kScanFilterAgg, options);
  auto first = RunPlan(plan.get());
  auto second = RunPlan(plan.get());  // Open/drain/Close a second time.
  ExpectRowsNear(first, second);
}

TEST_F(ExchangeTest, PrivateThreadPool) {
  parallel::ThreadPool pool(2);
  PlannerOptions options;
  options.parallel_degree = 4;  // More fragments than pool threads.
  options.thread_pool = &pool;
  auto serial = RunSql(kScanFilterAgg);
  ExpectRowsNear(serial, RunSql(kScanFilterAgg, options));
  EXPECT_GE(pool.tasks_run(), 4u);
}

// -- Direct operator-level tests (no SQL front end). --------------------

TEST(MorselScanTest, MorselModeCoversWholeTable) {
  std::vector<std::pair<int64_t, double>> rows;
  for (int64_t i = 0; i < 1000; ++i) rows.push_back({i, i * 0.5});
  auto table = testutil::MakeKvTable("t", rows);

  parallel::MorselCursor cursor(table->num_rows(), 64);
  SeqScanOperator scan(table.get(), nullptr);
  scan.BindMorselCursor(&cursor);

  ExecContext ctx;
  auto result = ExecutePlan(&scan, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1000u);
}

TEST(MorselScanTest, TwoScansSharingOneCursorPartitionTheTable) {
  std::vector<std::pair<int64_t, double>> rows;
  for (int64_t i = 0; i < 1000; ++i) rows.push_back({i, 0.0});
  auto table = testutil::MakeKvTable("t", rows);

  parallel::MorselCursor cursor(table->num_rows(), 128);
  SeqScanOperator a(table.get(), nullptr);
  SeqScanOperator b(table.get(), nullptr);
  a.BindMorselCursor(&cursor);
  b.BindMorselCursor(&cursor);

  ExecContext ctx_a, ctx_b;
  ASSERT_TRUE(a.Open(&ctx_a).ok());
  ASSERT_TRUE(b.Open(&ctx_b).ok());
  std::set<const uint8_t*> seen;
  // Interleave the two consumers; each row must surface exactly once.
  bool a_done = false, b_done = false;
  while (!a_done || !b_done) {
    if (!a_done) {
      const uint8_t* row = a.Next();
      if (row == nullptr) {
        a_done = true;
      } else {
        EXPECT_TRUE(seen.insert(row).second);
      }
    }
    if (!b_done) {
      const uint8_t* row = b.Next();
      if (row == nullptr) {
        b_done = true;
      } else {
        EXPECT_TRUE(seen.insert(row).second);
      }
    }
  }
  a.Close();
  b.Close();
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(AggregateMergeTest, EmptyInputYieldsSqlNullSemantics) {
  auto table = testutil::MakeKvTable("t", {{1, 1.5}, {2, 2.5}});
  const Schema& schema = table->schema();

  std::vector<AggSpec> final_specs;
  final_specs.push_back(
      AggSpec{AggFunc::kMin, testutil::Col(schema, "v"), "min_v"});
  final_specs.push_back(
      AggSpec{AggFunc::kMax, testutil::Col(schema, "v"), "max_v"});
  final_specs.push_back(
      AggSpec{AggFunc::kAvg, testutil::Col(schema, "v"), "avg_v"});
  final_specs.push_back(
      AggSpec{AggFunc::kSum, testutil::Col(schema, "v"), "sum_v"});
  final_specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});

  auto cursor = std::make_unique<parallel::MorselCursor>(table->num_rows(), 1);
  std::vector<OperatorPtr> fragments;
  for (int w = 0; w < 3; ++w) {
    // Predicate k < 0 rejects every row: every partial is the empty input.
    ExprPtr pred = testutil::Bin(BinaryOp::kLt, testutil::Col(schema, "k"),
                                 testutil::Lit(Value::Int64(0)));
    auto scan = std::make_unique<SeqScanOperator>(table.get(),
                                                  std::move(pred));
    scan->BindMorselCursor(cursor.get());
    fragments.push_back(std::make_unique<AggregationOperator>(
        std::move(scan), parallel::MakePartialAggSpecs(final_specs)));
  }
  auto exchange = std::make_unique<parallel::ExchangeOperator>(
      std::move(fragments), std::move(cursor));
  parallel::AggregateMergeOperator merge(std::move(exchange),
                                         std::move(final_specs));

  auto rows = RunPlan(&merge);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_null());  // MIN
  EXPECT_TRUE(rows[0][1].is_null());  // MAX
  EXPECT_TRUE(rows[0][2].is_null());  // AVG
  EXPECT_TRUE(rows[0][3].is_null());  // SUM
  EXPECT_EQ(rows[0][4].int64_value(), 0);  // COUNT(*)
}

namespace {

// Operator whose Open always fails; exercises worker error propagation.
class FailingOperator final : public Operator {
 public:
  explicit FailingOperator(const Schema* schema) : schema_(schema) {}
  Status Open(ExecContext*) override {
    return Status::Internal("injected fragment failure");
  }
  const uint8_t* Next() override { return nullptr; }
  void Close() override {}
  const Schema& output_schema() const override { return *schema_; }
  sim::ModuleId module_id() const override { return sim::ModuleId::kSeqScan; }

 private:
  const Schema* schema_;
};

}  // namespace

TEST(ExchangeErrorTest, FragmentOpenFailureIsReported) {
  auto table = testutil::MakeKvTable("t", {{1, 1.0}});
  std::vector<OperatorPtr> fragments;
  fragments.push_back(std::make_unique<FailingOperator>(&table->schema()));
  fragments.push_back(std::make_unique<FailingOperator>(&table->schema()));
  parallel::ExchangeOperator exchange(std::move(fragments), nullptr);

  ExecContext ctx;
  ASSERT_TRUE(exchange.Open(&ctx).ok());
  EXPECT_EQ(exchange.Next(), nullptr);
  exchange.Close();
  EXPECT_FALSE(exchange.error().ok());
  EXPECT_EQ(exchange.error().code(), StatusCode::kInternal);
}

// The same failure through ExecutePlanRows and ExecutePlanBatched: the
// stream ends early, and the caller gets the workers' error rather than OK
// with truncated rows.
TEST(ExchangeErrorTest, ExecutePlanReturnsFragmentFailure) {
  auto table = testutil::MakeKvTable("t", {{1, 1.0}});
  auto make_exchange = [&table] {
    std::vector<OperatorPtr> fragments;
    fragments.push_back(std::make_unique<FailingOperator>(&table->schema()));
    fragments.push_back(std::make_unique<FailingOperator>(&table->schema()));
    return std::make_unique<parallel::ExchangeOperator>(std::move(fragments),
                                                        nullptr);
  };
  {
    auto exchange = make_exchange();
    ExecContext ctx;
    auto rows = ExecutePlanRows(exchange.get(), &ctx);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kInternal);
  }
  {
    auto exchange = make_exchange();
    ExecContext ctx;
    auto rows = ExecutePlanBatched(exchange.get(), &ctx);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kInternal);
    EXPECT_EQ(ctx.error.code(), StatusCode::kInternal);
  }
}

TEST(ExchangeErrorTest, EarlyCloseDoesNotDeadlock) {
  // A consumer that abandons the stream (e.g. LIMIT) must not leave
  // producers blocked on the bounded queue.
  std::vector<std::pair<int64_t, double>> rows;
  for (int64_t i = 0; i < 100000; ++i) rows.push_back({i, 0.0});
  auto table = testutil::MakeKvTable("t", rows);

  auto cursor = std::make_unique<parallel::MorselCursor>(table->num_rows(),
                                                         256);
  std::vector<OperatorPtr> fragments;
  for (int w = 0; w < 4; ++w) {
    auto scan = std::make_unique<SeqScanOperator>(table.get(), nullptr);
    scan->BindMorselCursor(cursor.get());
    fragments.push_back(std::move(scan));
  }
  parallel::ExchangeOperator exchange(std::move(fragments), std::move(cursor),
                                      nullptr, /*batch_rows=*/64,
                                      /*queue_batches=*/2);
  ExecContext ctx;
  ASSERT_TRUE(exchange.Open(&ctx).ok());
  for (int i = 0; i < 10; ++i) ASSERT_NE(exchange.Next(), nullptr);
  exchange.Close();  // Workers must unblock and join.
  EXPECT_TRUE(exchange.error().ok());
}

TEST(ExchangeSimulationTest, FragmentSimulationCountsPerWorker) {
  std::vector<std::pair<int64_t, double>> rows;
  for (int64_t i = 0; i < 10000; ++i) rows.push_back({i, 0.0});
  auto table = testutil::MakeKvTable("t", rows);

  auto cursor = std::make_unique<parallel::MorselCursor>(table->num_rows(),
                                                         512);
  std::vector<OperatorPtr> fragments;
  for (int w = 0; w < 2; ++w) {
    auto scan = std::make_unique<SeqScanOperator>(table.get(), nullptr);
    scan->BindMorselCursor(cursor.get());
    fragments.push_back(std::move(scan));
  }
  parallel::ExchangeOperator exchange(std::move(fragments), std::move(cursor));
  exchange.EnableFragmentSimulation(sim::SimConfig());

  ExecContext ctx;
  auto result = ExecutePlan(&exchange, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 10000u);
  uint64_t instructions = 0;
  for (size_t w = 0; w < exchange.degree(); ++w) {
    ASSERT_NE(exchange.fragment_cpu(w), nullptr);
    instructions += exchange.fragment_cpu(w)->counters().instructions;
  }
  EXPECT_GT(instructions, 0u);
}

}  // namespace
}  // namespace bufferdb

// ExchangeOperator correctness: parallel plans must produce the same
// (order-insensitive) results as the single-threaded plan at every degree,
// for scan→filter→aggregate pipelines, grouped aggregation merged from the
// fragments and join plans whose fragments share one hash table per join,
// with and without per-worker buffering. Shared builds must neither
// deadlock nor strand a waiter when a builder fails.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/aggregation.h"
#include "exec/hash_aggregation.h"
#include "exec/hash_join.h"
#include "exec/seq_scan.h"
#include "parallel/agg_merge.h"
#include "parallel/exchange.h"
#include "parallel/morsel.h"
#include "parallel/shared_join_build.h"
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

// TPC-H Q3's shape: two hash joins (under kHashJoin) below a GROUP BY.
constexpr char kTwoHashJoinGroupBy[] =
    "SELECT l_orderkey, o_orderdate, "
    "SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(*) AS lines "
    "FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
    "AND c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15' "
    "AND l_shipdate > DATE '1995-03-15' "
    "GROUP BY l_orderkey, o_orderdate";

// Every aggregate over table g (see MakeGroupsTable), grouped by a string
// and a double key that are both NULL in some rows.
constexpr char kNullableGroups[] =
    "SELECT gs, gd, COUNT(*) AS c, COUNT(x) AS cx, SUM(v) AS sv, "
    "AVG(x) AS ax, MIN(x) AS mnx, MAX(v) AS mxv, MIN(t) AS mnt, "
    "MAX(t) AS mxt FROM g GROUP BY gs, gd";

// Table g: 3000 rows of group keys gs (string) and gd (double) and
// arguments v (int), x (double) and t (string).
// - gs is NULL in every 7th row, else one of "s0".."s4".
// - gd is NULL in every 11th row, else one of three doubles that differ
//   only in the ninth decimal, so they print alike but are distinct keys.
// - v is NULL in every 4th row; x in every row of group "s1", so every
//   ("s1", gd) group aggregates x over NULLs only; t in every 6th row.
// The moduli are coprime and their product is below 3000, so all 6 x 4
// key pairs occur.
std::unique_ptr<Table> MakeGroupsTable() {
  Schema schema({{"gs", DataType::kString},
                 {"gd", DataType::kDouble},
                 {"v", DataType::kInt64},
                 {"x", DataType::kDouble},
                 {"t", DataType::kString}});
  auto table = std::make_unique<Table>("g", schema);
  // Append-form strings dodge gcc 12's -O3 -Wrestrict false positive
  // (gcc bug 105651).
  auto text = [](const char* prefix, int64_t n) {
    std::string out = prefix;
    out += std::to_string(n);
    return out;
  };
  for (int64_t i = 0; i < 3000; ++i) {
    const bool s1 = i % 7 != 0 && i % 5 == 1;
    table->AppendRow(
        {i % 7 == 0 ? Value::Null(DataType::kString)
                    : Value::String(text("s", i % 5)),
         i % 11 == 0 ? Value::Null(DataType::kDouble)
                     : Value::Double(1.0 + static_cast<double>(i % 3) * 1e-9),
         i % 4 == 0 ? Value::Null(DataType::kInt64) : Value::Int64(i % 100),
         s1 ? Value::Null(DataType::kDouble)
            : Value::Double(static_cast<double>(i % 17) * 0.25),
         i % 6 == 0 ? Value::Null(DataType::kString)
                    : Value::String(text("t", i % 13))});
  }
  return table;
}

// Runs `fn` on its own thread and returns its result. A plan that has not
// finished within a minute is deadlocked and cannot be joined, so the test
// process ends there.
template <typename Fn>
auto FinishesInTime(Fn fn) {
  auto done = std::async(std::launch::async, std::move(fn));
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "plan did not finish within 60 s: deadlock\n");
    std::abort();
  }
  return done.get();
}

class ExchangeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(config, catalog_).ok());
    ASSERT_TRUE(catalog_->AddTable(MakeGroupsTable()).ok());
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

  // Asserts that both results hold the same groups, matched by their first
  // `keys` columns exactly (NULL keys included), and the same aggregates
  // up to ExpectRowsNear's tolerance.
  static void ExpectGroupsMatch(std::vector<std::vector<Value>> serial,
                                std::vector<std::vector<Value>> parallel,
                                size_t keys) {
    auto by_keys = [keys](const std::vector<Value>& a,
                          const std::vector<Value>& b) {
      for (size_t k = 0; k < keys; ++k) {
        if (a[k].is_null() != b[k].is_null()) return a[k].is_null();
        if (a[k].is_null()) continue;
        int c = Value::Compare(a[k], b[k]);
        if (c != 0) return c < 0;
      }
      return false;
    };
    std::sort(serial.begin(), serial.end(), by_keys);
    std::sort(parallel.begin(), parallel.end(), by_keys);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t r = 0; r < serial.size(); ++r) {
      for (size_t k = 0; k < keys; ++k) {
        EXPECT_TRUE(serial[r][k] == parallel[r][k])
            << "row " << r << " key " << k << ": " << serial[r][k].ToString()
            << " vs " << parallel[r][k].ToString();
      }
    }
    ExpectRowsNear(serial, parallel);
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

TEST_F(ExchangeTest, GroupedAggregationInFragmentsMatchesSerial) {
  auto serial = Canonical(RunSql(kGroupedCount));
  for (size_t degree : {2u, 8u}) {
    PlannerOptions options;
    options.parallel_degree = degree;
    EXPECT_EQ(Canonical(RunSql(kGroupedCount, options)), serial)
        << "degree " << degree;
  }
}

TEST_F(ExchangeTest, GroupedMergeKeepsNullDoubleAndStringKeysApart) {
  auto serial = RunSql(kNullableGroups);
  ASSERT_EQ(serial.size(), 24u);  // 6 gs values (NULL included) x 4 gd.
  for (size_t batch : {size_t{1}, Operator::kDefaultBatchSize}) {
    PlannerOptions options;
    options.parallel_degree = 4;
    options.morsel_rows = 64;
    options.batch_size = batch;
    ExpectGroupsMatch(serial, RunSql(kNullableGroups, options), 2);
  }
}

TEST_F(ExchangeTest, GroupedMergeOverNullArgumentsMatchesSerial) {
  // Group "s1" sees x only as NULL: COUNT(x) is 0 and AVG/MIN over x NULL,
  // in every fragment's partial state and after the merge.
  const std::string sql =
      "SELECT gs, COUNT(x) AS cx, AVG(x) AS ax, MIN(x) AS mnx, "
      "MAX(x) AS mxx, COUNT(v) AS cv FROM g GROUP BY gs";
  auto serial = RunSql(sql);
  PlannerOptions options;
  options.parallel_degree = 4;
  options.morsel_rows = 64;
  auto parallel = RunSql(sql, options);
  ExpectGroupsMatch(serial, parallel, 1);
  size_t null_groups = 0;
  for (const auto& row : parallel) {
    if (row[0].is_null() || row[0].string_value() != "s1") continue;
    ++null_groups;
    EXPECT_EQ(row[1].int64_value(), 0);
    EXPECT_TRUE(row[2].is_null());
    EXPECT_TRUE(row[3].is_null());
    EXPECT_TRUE(row[4].is_null());
    EXPECT_GT(row[5].int64_value(), 0);
  }
  EXPECT_EQ(null_groups, 1u);
}

TEST_F(ExchangeTest, HavingOverParallelGroupedAggregate) {
  const std::string sql =
      "SELECT gs, COUNT(*) AS c, SUM(v) AS sv FROM g "
      "GROUP BY gs HAVING c > 500";
  auto serial = RunSql(sql);
  ASSERT_GT(serial.size(), 0u);
  ASSERT_LT(serial.size(), 6u);  // HAVING drops some of the 6 groups.
  PlannerOptions options;
  options.parallel_degree = 4;
  options.morsel_rows = 64;
  ExpectGroupsMatch(serial, RunSql(sql, options), 1);
}

TEST_F(ExchangeTest, SharedBuildsRunMoreFragmentsThanPoolThreads) {
  PlannerOptions serial_options;
  serial_options.join_strategy = JoinStrategy::kHashJoin;
  auto serial = RunSql(kTwoHashJoinGroupBy, serial_options);
  ASSERT_GT(serial.size(), 0u);
  parallel::ThreadPool pool(2);
  PlannerOptions options = serial_options;
  options.parallel_degree = 8;  // Four fragments per pool thread.
  options.morsel_rows = 64;
  options.thread_pool = &pool;
  OperatorPtr plan = MustPlan(kTwoHashJoinGroupBy, options);
  ExpectGroupsMatch(serial, FinishesInTime([&] { return RunPlan(plan.get()); }),
                    2);
}

TEST_F(ExchangeTest, SharedBuildsOfConcurrentQueriesShareOnePool) {
  PlannerOptions serial_options;
  serial_options.join_strategy = JoinStrategy::kHashJoin;
  auto serial = RunSql(kTwoHashJoinGroupBy, serial_options);
  parallel::ThreadPool pool(2);
  PlannerOptions options = serial_options;
  options.parallel_degree = 8;
  options.morsel_rows = 64;
  options.thread_pool = &pool;
  // Planned here, run from two threads at once on the one 2-thread pool.
  OperatorPtr a = MustPlan(kTwoHashJoinGroupBy, options);
  OperatorPtr b = MustPlan(kTwoHashJoinGroupBy, options);
  auto results = FinishesInTime([&] {
    auto other = std::async(std::launch::async,
                            [&] { return RunPlan(b.get()); });
    auto mine = RunPlan(a.get());
    return std::make_pair(std::move(mine), other.get());
  });
  ExpectGroupsMatch(serial, results.first, 2);
  ExpectGroupsMatch(serial, results.second, 2);
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

  // A join + GROUP BY plan: the second Open must rewind the driving and
  // build cursors and rebuild the shared tables, not probe stale ones.
  options.join_strategy = JoinStrategy::kHashJoin;
  options.morsel_rows = 64;
  options.batch_size = Operator::kDefaultBatchSize;
  plan = MustPlan(kTwoHashJoinGroupBy, options);
  first = RunPlan(plan.get());
  ASSERT_GT(first.size(), 0u);
  ExpectGroupsMatch(first, RunPlan(plan.get()), 2);
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
  parallel::AggregateMergeOperator merge(std::move(exchange), 0,
                                         std::move(final_specs));

  auto rows = RunPlan(&merge);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_null());  // MIN
  EXPECT_TRUE(rows[0][1].is_null());  // MAX
  EXPECT_TRUE(rows[0][2].is_null());  // AVG
  EXPECT_TRUE(rows[0][3].is_null());  // SUM
  EXPECT_EQ(rows[0][4].int64_value(), 0);  // COUNT(*)
}

TEST(AggregateMergeTest, GroupedEmptyInputYieldsNoRows) {
  auto table = testutil::MakeKvTable("t", {{1, 1.5}, {2, 2.5}});
  const Schema& schema = table->schema();
  std::vector<AggSpec> final_specs;
  final_specs.push_back(
      AggSpec{AggFunc::kSum, testutil::Col(schema, "v"), "sum_v"});
  final_specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});

  auto cursor = std::make_unique<parallel::MorselCursor>(table->num_rows(), 1);
  std::vector<OperatorPtr> fragments;
  for (int w = 0; w < 3; ++w) {
    ExprPtr pred = testutil::Bin(BinaryOp::kLt, testutil::Col(schema, "k"),
                                 testutil::Lit(Value::Int64(0)));
    auto scan = std::make_unique<SeqScanOperator>(table.get(),
                                                  std::move(pred));
    scan->BindMorselCursor(cursor.get());
    std::vector<GroupKeyExpr> groups;
    groups.push_back(GroupKeyExpr{testutil::Col(schema, "k"), "k"});
    fragments.push_back(std::make_unique<HashAggregationOperator>(
        std::move(scan), std::move(groups),
        parallel::MakePartialAggSpecs(final_specs)));
  }
  auto exchange = std::make_unique<parallel::ExchangeOperator>(
      std::move(fragments), std::move(cursor));
  parallel::AggregateMergeOperator merge(std::move(exchange), 1,
                                         std::move(final_specs));
  EXPECT_EQ(merge.output_schema().num_columns(), 3u);
  EXPECT_EQ(merge.output_schema().column(0).name, "k");
  EXPECT_TRUE(RunPlan(&merge).empty());
}

namespace {

// Operator that fails on purpose; exercises worker error propagation.
// Built from a schema, its Open fails. Built over an input, it passes the
// input's rows through and throws where the input ends.
class FailingOperator final : public Operator {
 public:
  explicit FailingOperator(const Schema* schema) : schema_(schema) {}
  explicit FailingOperator(OperatorPtr input)
      : schema_(&input->output_schema()) {
    AddChild(std::move(input));
  }
  Status Open(ExecContext* ctx) override {
    if (num_children() == 0) {
      return Status::Internal("injected fragment failure");
    }
    return child(0)->Open(ctx);
  }
  const uint8_t* Next() override {
    if (num_children() == 0) return nullptr;
    const uint8_t* row = child(0)->Next();
    if (row == nullptr) {
      threw_ = true;
      throw std::runtime_error("injected build failure");
    }
    return row;
  }
  void Close() override {
    if (num_children() > 0) child(0)->Close();
  }
  const Schema& output_schema() const override { return *schema_; }
  sim::ModuleId module_id() const override { return sim::ModuleId::kSeqScan; }

  bool threw() const { return threw_; }

 private:
  const Schema* schema_;
  bool threw_ = false;
};

// A shared-build join under its Exchange, and the FailingOperator in it.
struct SharedBuildPlan {
  OperatorPtr exchange;
  FailingOperator* failing = nullptr;
};

// A parallel join of `probe` with `build` on k: `degree` fragments sharing
// one build, where fragment 0's build side is `failing_build` applied to
// its build scan.
template <typename MakeFailing>
SharedBuildPlan MakeSharedBuildPlan(Table* probe, Table* build, size_t degree,
                                    parallel::ThreadPool* pool,
                                    MakeFailing failing_build) {
  auto cursor = std::make_unique<parallel::MorselCursor>(probe->num_rows(), 64);
  std::vector<std::unique_ptr<parallel::SharedJoinBuild>> builds;
  builds.push_back(std::make_unique<parallel::SharedJoinBuild>(
      std::make_unique<parallel::MorselCursor>(build->num_rows(), 64)));
  SharedBuildPlan plan;
  std::vector<OperatorPtr> fragments;
  for (size_t w = 0; w < degree; ++w) {
    auto probe_scan = std::make_unique<SeqScanOperator>(probe, nullptr);
    probe_scan->BindMorselCursor(cursor.get());
    auto build_scan = std::make_unique<SeqScanOperator>(build, nullptr);
    build_scan->BindMorselCursor(builds[0]->cursor());
    OperatorPtr build_side = std::move(build_scan);
    if (w == 0) {
      auto failing = failing_build(std::move(build_side));
      plan.failing = failing.get();
      build_side = std::move(failing);
    }
    auto join = std::make_unique<HashJoinOperator>(
        std::move(probe_scan), std::move(build_side),
        testutil::Col(probe->schema(), "k"),
        testutil::Col(build->schema(), "k"));
    join->ShareBuild(builds[0].get());
    fragments.push_back(std::move(join));
  }
  plan.exchange = std::make_unique<parallel::ExchangeOperator>(
      std::move(fragments), std::move(cursor), std::move(builds), pool);
  return plan;
}

std::unique_ptr<Table> SequentialKvTable(const std::string& name,
                                         int64_t rows) {
  std::vector<std::pair<int64_t, double>> kv;
  for (int64_t i = 0; i < rows; ++i) kv.push_back({i, 0.0});
  return testutil::MakeKvTable(name, kv);
}

// ExecutePlanRows and ExecutePlanBatched over a fresh plan each; both must
// finish and return the failing build side's error.
template <typename MakePlan>
void ExpectBothDrainsFail(MakePlan make_plan, const std::string& message,
                          bool throws) {
  for (bool batched : {false, true}) {
    SharedBuildPlan plan = make_plan();
    Status status = FinishesInTime([&plan, batched] {
      ExecContext ctx;
      return batched ? ExecutePlanBatched(plan.exchange.get(), &ctx).status()
                     : ExecutePlanRows(plan.exchange.get(), &ctx).status();
    });
    EXPECT_EQ(status.code(), StatusCode::kInternal) << "batched " << batched;
    EXPECT_NE(status.message().find(message), std::string::npos)
        << status.message();
    EXPECT_EQ(plan.failing->threw(), throws);
  }
}

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

TEST(ExchangeErrorTest, SharedBuildOpenFailureReachesCaller) {
  // Fragment 0 fails before it registers as a builder: the others complete
  // the table without it, and the Exchange reports its error.
  auto probe = SequentialKvTable("p", 2000);
  auto build = SequentialKvTable("b", 2000);
  parallel::ThreadPool pool(2);
  ExpectBothDrainsFail(
      [&] {
        return MakeSharedBuildPlan(
            probe.get(), build.get(), 4, &pool, [](OperatorPtr scan) {
              return std::make_unique<FailingOperator>(&scan->output_schema());
            });
      },
      "injected fragment failure", /*throws=*/false);
}

TEST(ExchangeErrorTest, SharedBuildThrowMidDrainReachesCaller) {
  // Fragment 0 registers, drains its morsels and throws where its input
  // ends. One pool thread runs the fragments in order, so it registers
  // first and the others find the table complete with its error.
  auto probe = SequentialKvTable("p", 2000);
  auto build = SequentialKvTable("b", 2000);
  parallel::ThreadPool pool(1);
  ExpectBothDrainsFail(
      [&] {
        return MakeSharedBuildPlan(
            probe.get(), build.get(), 4, &pool, [](OperatorPtr scan) {
              return std::make_unique<FailingOperator>(std::move(scan));
            });
      },
      "injected build failure", /*throws=*/true);
}

TEST(ExchangeErrorTest, SharedBuildThrowDoesNotStrandWaiters) {
  // Four pool threads: fragment 0 throws where its input ends, usually
  // after the healthy builders have handed in and started waiting; its
  // hand-in must complete the table and wake them. In a run where fragment
  // 0 starts only after the table is complete, it skips its build and
  // never throws, and the join succeeds.
  auto probe = SequentialKvTable("p", 20000);
  auto build = SequentialKvTable("b", 20000);
  parallel::ThreadPool pool(4);
  for (int run = 0; run < 10; ++run) {
    SharedBuildPlan plan = MakeSharedBuildPlan(
        probe.get(), build.get(), 4, &pool, [](OperatorPtr scan) {
          return std::make_unique<FailingOperator>(std::move(scan));
        });
    auto rows = FinishesInTime([&plan] {
      ExecContext ctx;
      return ExecutePlanBatched(plan.exchange.get(), &ctx);
    });
    if (plan.failing->threw()) {
      EXPECT_FALSE(rows.ok()) << "run " << run;
    } else {
      ASSERT_TRUE(rows.ok()) << rows.status();
      EXPECT_EQ(rows->size(), 20000u);
    }
  }
}

// Operator that ends its stream on an error it records in its
// ExecContext, as a join whose inner Rescan fails inside Next does.
class ErrorEndingOperator final : public Operator {
 public:
  explicit ErrorEndingOperator(const Schema* schema) : schema_(schema) {}
  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    return Status::OK();
  }
  const uint8_t* Next() override {
    ctx_->RecordError(Status::Internal("injected stream failure"));
    return nullptr;
  }
  void Close() override {}
  const Schema& output_schema() const override { return *schema_; }
  sim::ModuleId module_id() const override { return sim::ModuleId::kSeqScan; }

 private:
  const Schema* schema_;
};

TEST(ExchangeErrorTest, FragmentStreamErrorIsReported) {
  // The fragment's error lives in its private context; the Exchange must
  // carry it to the caller rather than end the stream as if complete.
  auto table = testutil::MakeKvTable("t", {{1, 1.0}});
  std::vector<OperatorPtr> fragments;
  fragments.push_back(std::make_unique<ErrorEndingOperator>(&table->schema()));
  parallel::ExchangeOperator exchange(std::move(fragments), nullptr);
  ExecContext ctx;
  auto rows = ExecutePlanRows(&exchange, &ctx);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().message(), "injected stream failure");
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
                                      {}, nullptr, /*batch_rows=*/64,
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

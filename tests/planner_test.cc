#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/date.h"
#include "core/buffer_operator.h"
#include "core/plan_refiner.h"
#include "exec/column_scan.h"
#include "exec/hash_aggregation.h"
#include "exec/hash_join.h"
#include "exec/index_scan.h"
#include "exec/nested_loop_join.h"
#include "exec/seq_scan.h"
#include "parallel/agg_merge.h"
#include "parallel/exchange.h"
#include "plan/cardinality.h"
#include "plan/physical_planner.h"
#include "plan/plan_printer.h"
#include "sql/binder.h"
#include "storage/column_table.h"
#include "test_util.h"
#include "tpch/tpch_gen.h"

namespace bufferdb {
namespace {

constexpr char kQuery3[] =
    "SELECT SUM(o_totalprice), COUNT(*), AVG(l_discount) "
    "FROM lineitem, orders "
    "WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1998-09-02'";

class PlannerTest : public ::testing::Test {
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

  OperatorPtr MustPlan(const std::string& sql, PlannerOptions options = {}) {
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
    ExecContext ctx;
    auto rows = ExecutePlanRows(plan.get(), &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return rows.ok() ? *rows : std::vector<std::vector<Value>>{};
  }

  static Catalog* catalog_;
};

Catalog* PlannerTest::catalog_ = nullptr;

TEST_F(PlannerTest, Query1PlanShape) {
  OperatorPtr plan = MustPlan(
      "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem "
      "WHERE l_shipdate <= DATE '1998-09-02'");
  EXPECT_EQ(plan->module_id(), sim::ModuleId::kAggregation);
  EXPECT_EQ(plan->child(0)->module_id(), sim::ModuleId::kSeqScanFiltered);
  EXPECT_GT(plan->child(0)->estimated_rows(), 0);
}

TEST_F(PlannerTest, AutoJoinPicksIndexNestLoopForPkJoin) {
  OperatorPtr plan = MustPlan(kQuery3);
  const Operator* join = plan->child(0);
  EXPECT_EQ(join->module_id(), sim::ModuleId::kNestLoopJoin);
  // Inner unique index scan marked excluded from buffering (§6).
  EXPECT_TRUE(join->child(1)->excluded_from_buffering());
  EXPECT_EQ(join->child(1)->module_id(), sim::ModuleId::kIndexScan);
}

TEST_F(PlannerTest, ForcedHashJoin) {
  PlannerOptions options;
  options.join_strategy = JoinStrategy::kHashJoin;
  OperatorPtr plan = MustPlan(kQuery3, options);
  EXPECT_EQ(plan->child(0)->module_id(), sim::ModuleId::kHashJoinProbe);
  EXPECT_TRUE(plan->child(0)->BlocksInput(1));
}

TEST_F(PlannerTest, ForcedMergeJoinUsesIndexOrderOnInner) {
  PlannerOptions options;
  options.join_strategy = JoinStrategy::kMergeJoin;
  OperatorPtr plan = MustPlan(kQuery3, options);
  const Operator* join = plan->child(0);
  ASSERT_EQ(join->module_id(), sim::ModuleId::kMergeJoin);
  EXPECT_EQ(join->child(0)->module_id(), sim::ModuleId::kSort);
  // orders side: the pk index provides sorted order without a Sort.
  EXPECT_EQ(join->child(1)->module_id(), sim::ModuleId::kIndexScan);
}

TEST_F(PlannerTest, AllJoinStrategiesReturnSameAnswer) {
  std::vector<std::vector<Value>> results[3];
  JoinStrategy strategies[] = {JoinStrategy::kIndexNestLoop,
                               JoinStrategy::kHashJoin,
                               JoinStrategy::kMergeJoin};
  for (int i = 0; i < 3; ++i) {
    PlannerOptions options;
    options.join_strategy = strategies[i];
    results[i] = RunSql(kQuery3, options);
    ASSERT_EQ(results[i].size(), 1u) << JoinStrategyName(strategies[i]);
  }
  for (int i = 1; i < 3; ++i) {
    EXPECT_NEAR(results[0][0][0].double_value(),
                results[i][0][0].double_value(), 1e-6);
    EXPECT_EQ(results[0][0][1], results[i][0][1]);
    EXPECT_NEAR(results[0][0][2].double_value(),
                results[i][0][2].double_value(), 1e-12);
  }
}

// Batched plans copy into each join row only the columns read above the
// scans; tuple-at-a-time plans keep the paper's full-width rows.
TEST_F(PlannerTest, BatchedJoinRowsCarryOnlyTheColumnsReadAbove) {
  const size_t full_width =
      catalog_->GetTable("lineitem")->schema().num_columns() +
      catalog_->GetTable("orders")->schema().num_columns();
  for (JoinStrategy strategy :
       {JoinStrategy::kAuto, JoinStrategy::kHashJoin,
        JoinStrategy::kMergeJoin}) {
    SCOPED_TRACE(JoinStrategyName(strategy));
    PlannerOptions tuple;
    tuple.join_strategy = strategy;
    PlannerOptions batched = tuple;
    batched.batch_size = Operator::kDefaultBatchSize;
    OperatorPtr wide = MustPlan(kQuery3, tuple);
    OperatorPtr narrow = MustPlan(kQuery3, batched);
    EXPECT_EQ(wide->child(0)->output_schema().num_columns(), full_width);
    const Schema& schema = narrow->child(0)->output_schema();
    std::vector<std::string> names;
    for (const Column& column : schema.columns()) names.push_back(column.name);
    EXPECT_EQ(names, (std::vector<std::string>{"l_orderkey", "l_discount",
                                               "o_orderkey", "o_totalprice"}));

    ExecContext wide_ctx;
    ExecContext narrow_ctx;
    auto wide_rows = ExecutePlanRows(wide.get(), &wide_ctx);
    auto narrow_rows = ExecutePlanRows(narrow.get(), &narrow_ctx);
    ASSERT_TRUE(wide_rows.ok() && narrow_rows.ok());
    ASSERT_EQ(narrow_rows->size(), 1u);
    EXPECT_NEAR((*wide_rows)[0][0].double_value(),
                (*narrow_rows)[0][0].double_value(), 1e-6);
    EXPECT_EQ((*wide_rows)[0][1], (*narrow_rows)[0][1]);
    EXPECT_LT(4 * narrow_ctx.arena.bytes_allocated(),
              wide_ctx.arena.bytes_allocated());
  }
}

// The output column names of `cols` in `schema`, sorted.
std::vector<std::string> SortedNames(const Schema& schema,
                                     const std::vector<int>& cols) {
  std::vector<std::string> names;
  for (int c : cols) names.push_back(schema.column(c).name);
  std::sort(names.begin(), names.end());
  return names;
}

// The one index join of `op`'s subtree, or null.
IndexNestLoopJoinOperator* FindIndexJoin(Operator* op) {
  if (auto* join = dynamic_cast<IndexNestLoopJoinOperator*>(op)) return join;
  for (size_t i = 0; i < op->num_children(); ++i) {
    if (auto* join = FindIndexJoin(op->child(i))) return join;
  }
  return nullptr;
}

// Paper Query 3's batched aggregate reads its two arguments as columns:
// the index join publishes exactly them and builds no row, gathering
// l_discount from its driving scan, which the join asks for it beside the
// key. The batch-1 plan keeps its full-width rows over a SeqScan.
TEST_F(PlannerTest, BatchedQuery3JoinPublishesColumnsAndBuildsNoRows) {
  PlannerOptions batched;
  batched.batch_size = Operator::kDefaultBatchSize;
  for (bool refine : {false, true}) {
    SCOPED_TRACE(refine ? "refined" : "unrefined");
    batched.refine = refine;
    OperatorPtr plan = MustPlan(kQuery3, batched);
    IndexNestLoopJoinOperator* join = FindIndexJoin(plan.get());
    ASSERT_NE(join, nullptr);
    ASSERT_EQ(plan->child(0), join);
    auto* scan = dynamic_cast<ColumnScanOperator*>(join->child(0));
    ASSERT_NE(scan, nullptr);
    ExecContext ctx;
    auto rows = ExecutePlanRows(plan.get(), &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(SortedNames(scan->output_schema(), scan->published_columns()),
              (std::vector<std::string>{"l_discount", "l_orderkey"}));
    EXPECT_FALSE(join->builds_rows());
    EXPECT_EQ(SortedNames(join->output_schema(), join->published_columns()),
              (std::vector<std::string>{"l_discount", "o_totalprice"}));
    // The aggregate's one output row is all the arena holds.
    EXPECT_LT(ctx.arena.bytes_allocated(), 1024u);
    EXPECT_EQ(*rows, RunSql(kQuery3));
  }

  OperatorPtr tuple = MustPlan(kQuery3);
  IndexNestLoopJoinOperator* join = FindIndexJoin(tuple.get());
  ASSERT_NE(join, nullptr);
  EXPECT_NE(dynamic_cast<SeqScanOperator*>(join->child(0)), nullptr);
  ExecContext ctx;
  ASSERT_TRUE(ExecutePlanRows(tuple.get(), &ctx).ok());
  EXPECT_TRUE(join->builds_rows());
  EXPECT_TRUE(join->published_columns().empty());
}

// Point-query template 7: an index join under Project and Sort, which read
// rows, so the join builds them and publishes nothing. Under a Project the
// driving ColumnScan of paper Query 3's join publishes only the key the
// join asks for.
TEST_F(PlannerTest, IndexJoinUnderProjectBuildsRows) {
  PlannerOptions batched;
  batched.batch_size = Operator::kDefaultBatchSize;
  batched.refine = true;
  OperatorPtr plan = MustPlan(
      "SELECT o_orderkey, o_totalprice, c_name FROM orders, customer "
      "WHERE o_custkey = c_custkey AND o_orderkey BETWEEN 100 AND 149 "
      "ORDER BY o_orderkey",
      batched);
  IndexNestLoopJoinOperator* join = FindIndexJoin(plan.get());
  ASSERT_NE(join, nullptr);
  ExecContext ctx;
  auto rows = ExecutePlanBatched(plan.get(), &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_FALSE(rows->empty());
  EXPECT_TRUE(join->builds_rows());
  EXPECT_TRUE(join->published_columns().empty());
  EXPECT_EQ(join->BatchColumns(), nullptr);

  OperatorPtr project = MustPlan(
      "SELECT o_totalprice, l_discount FROM lineitem, orders "
      "WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1998-09-02'",
      batched);
  join = FindIndexJoin(project.get());
  ASSERT_NE(join, nullptr);
  auto* scan = dynamic_cast<ColumnScanOperator*>(join->child(0));
  ASSERT_NE(scan, nullptr);
  ASSERT_TRUE(ExecutePlanBatched(project.get(), &ctx).ok());
  EXPECT_TRUE(join->builds_rows());
  EXPECT_EQ(SortedNames(scan->output_schema(), scan->published_columns()),
            (std::vector<std::string>{"l_orderkey"}));
}

// A batched plan refined at batch 1 gets a Buffer above the join; the
// aggregate's request stops at the Buffer, so the join builds rows.
TEST_F(PlannerTest, BufferAboveIndexJoinGetsRows) {
  PlannerOptions batched;
  batched.batch_size = Operator::kDefaultBatchSize;
  OperatorPtr plan = MustPlan(kQuery3, batched);
  PlanRefiner refiner{RefinementOptions{}};
  plan = refiner.Refine(std::move(plan));
  auto* buffer = dynamic_cast<BufferOperator*>(plan->child(0));
  ASSERT_NE(buffer, nullptr);
  IndexNestLoopJoinOperator* join = FindIndexJoin(plan.get());
  ASSERT_NE(join, nullptr);
  ASSERT_EQ(buffer->child(0), join);
  ExecContext ctx;
  auto rows = ExecutePlanRows(plan.get(), &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(join->builds_rows());
  EXPECT_EQ(*rows, RunSql(kQuery3));
}

TEST_F(PlannerTest, RefinedAndOriginalPlansAgree) {
  PlannerOptions refined;
  refined.refine = true;
  auto a = RunSql(kQuery3);
  auto b = RunSql(kQuery3, refined);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NEAR(a[0][0].double_value(), b[0][0].double_value(), 1e-6);
  EXPECT_EQ(a[0][1], b[0][1]);
}

TEST_F(PlannerTest, GroupByOrderByLimitPipeline) {
  auto rows = RunSql(
      "SELECT l_returnflag, COUNT(*) AS c FROM lineitem "
      "GROUP BY l_returnflag ORDER BY l_returnflag");
  ASSERT_EQ(rows.size(), 3u);  // R, A, N in some sorted order: A, N, R.
  EXPECT_EQ(rows[0][0], Value::String("A"));
  EXPECT_EQ(rows[1][0], Value::String("N"));
  EXPECT_EQ(rows[2][0], Value::String("R"));
  int64_t total = rows[0][1].int64_value() + rows[1][1].int64_value() +
                  rows[2][1].int64_value();
  EXPECT_EQ(total, static_cast<int64_t>(
                       catalog_->GetTable("lineitem")->num_rows()));
}

TEST_F(PlannerTest, ProjectionWithLimit) {
  auto rows = RunSql("SELECT o_orderkey, o_totalprice FROM orders LIMIT 7");
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0][0], Value::Int64(1));
}

TEST_F(PlannerTest, OrderByDescending) {
  auto rows = RunSql(
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey DESC LIMIT 3");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_GT(rows[0][0].int64_value(), rows[1][0].int64_value());
  EXPECT_GT(rows[1][0].int64_value(), rows[2][0].int64_value());
}

TEST_F(PlannerTest, PlanPrinterRendersTree) {
  PlannerOptions options;
  options.refine = true;
  OperatorPtr plan = MustPlan(kQuery3, options);
  std::string printed = PrintPlan(*plan);
  EXPECT_NE(printed.find("NestLoop"), std::string::npos);
  EXPECT_NE(printed.find("Buffer"), std::string::npos);
  EXPECT_NE(printed.find("rows="), std::string::npos);
  EXPECT_NE(printed.find("footprint="), std::string::npos);
  EXPECT_NE(printed.find("[no-buffer]"), std::string::npos);
}

TEST_F(PlannerTest, SelectivityEstimateTracksDatePredicate) {
  Table* lineitem = catalog_->GetTable("lineitem");
  const Schema& s = lineitem->schema();
  auto col = MakeColumnRef(s, "l_shipdate");
  ASSERT_TRUE(col.ok());
  auto pred = MakeBinary(
      BinaryOp::kLe, std::move(*col),
      MakeLiteral(Value::Date(MakeDate(1998, 9, 2))));
  ASSERT_TRUE(pred.ok());
  double selectivity = EstimateSelectivity(**pred, lineitem);
  // ~96% of shipdates fall before 1998-09-02.
  EXPECT_GT(selectivity, 0.85);
  EXPECT_LE(selectivity, 1.0);
}

// The range conjuncts an AND puts on one column are one interval:
// `x >= a AND x < b` is P(a <= x < b), not P(x >= a) * P(x < b).
TEST_F(PlannerTest, SelectivityEstimateIntersectsRangesOnOneColumn) {
  Table* lineitem = catalog_->GetTable("lineitem");
  const Schema& s = lineitem->schema();
  auto date = [](int y, int m, int d) {
    return testutil::Lit(Value::Date(MakeDate(y, m, d)));
  };
  auto cmp = [&](BinaryOp op, const char* col, ExprPtr lit) {
    return testutil::Bin(op, testutil::Col(s, col), std::move(lit));
  };
  auto both = [](ExprPtr a, ExprPtr b) {
    return testutil::Bin(BinaryOp::kAnd, std::move(a), std::move(b));
  };
  const ColumnStats& ship = lineitem->stats(s.FindColumn("l_shipdate"));
  ASSERT_TRUE(ship.valid);

  // Two-sided: one month of ship dates.
  ExprPtr month = both(cmp(BinaryOp::kGe, "l_shipdate", date(1995, 9, 1)),
                       cmp(BinaryOp::kLt, "l_shipdate", date(1995, 10, 1)));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(*month, lineitem),
                   30.0 / (ship.max - ship.min));

  // One-sided on each column: the plain product, bit for bit.
  ExprPtr le = cmp(BinaryOp::kLe, "l_shipdate", date(1998, 9, 2));
  ExprPtr lt = cmp(BinaryOp::kLt, "l_quantity", testutil::Lit(Value::Double(24)));
  const double product =
      EstimateSelectivity(*le, lineitem) * EstimateSelectivity(*lt, lineitem);
  EXPECT_EQ(EstimateSelectivity(*both(le->Clone(), lt->Clone()), lineitem),
            product);

  // Contradictory bounds hold no row.
  ExprPtr empty = both(cmp(BinaryOp::kGt, "l_shipdate", date(1996, 1, 1)),
                       cmp(BinaryOp::kLt, "l_shipdate", date(1995, 1, 1)));
  EXPECT_EQ(EstimateSelectivity(*empty, lineitem), 0.0);
  ExprPtr open = both(cmp(BinaryOp::kGt, "l_shipdate", date(1996, 1, 1)),
                      cmp(BinaryOp::kLt, "l_shipdate", date(1996, 1, 1)));
  EXPECT_EQ(EstimateSelectivity(*open, lineitem), 0.0);

  // Equality mixed with another column multiplies; with a bound on its own
  // column it is the equality estimate inside the bound and 0 outside.
  ExprPtr eq = cmp(BinaryOp::kEq, "l_orderkey", testutil::Lit(Value::Int64(5)));
  const double eq_sel = EstimateSelectivity(*eq, lineitem);
  EXPECT_GT(eq_sel, 0.0);
  EXPECT_EQ(EstimateSelectivity(*both(eq->Clone(), le->Clone()), lineitem),
            eq_sel * EstimateSelectivity(*le, lineitem));
  EXPECT_EQ(EstimateSelectivity(
                *both(eq->Clone(), cmp(BinaryOp::kLt, "l_orderkey",
                                       testutil::Lit(Value::Int64(10)))),
                lineitem),
            eq_sel);
  EXPECT_EQ(EstimateSelectivity(
                *both(eq->Clone(), cmp(BinaryOp::kGt, "l_orderkey",
                                       testutil::Lit(Value::Int64(10)))),
                lineitem),
            0.0);
}

TEST_F(PlannerTest, JoinCardinalityForPkFkJoin) {
  EXPECT_DOUBLE_EQ(EstimateEquiJoinRows(1000, 500, 500, true), 1000);
  EXPECT_DOUBLE_EQ(EstimateEquiJoinRows(1000, 250, 500, true), 500);
  EXPECT_DOUBLE_EQ(EstimateEquiJoinRows(100, 50, 50, false), 50);
}

TEST_F(PlannerTest, NestLoopRequiresInnerIndex) {
  sql::Binder binder(catalog_);
  // customer has no index on c_nationkey; joining with nation (also no
  // index on n_nationkey) cannot use index nested loop.
  auto q = binder.BindSql(
      "SELECT COUNT(*) FROM customer, nation "
      "WHERE c_nationkey = n_nationkey");
  ASSERT_TRUE(q.ok()) << q.status();
  PlannerOptions options;
  options.join_strategy = JoinStrategy::kIndexNestLoop;
  PhysicalPlanner planner(catalog_, options);
  EXPECT_FALSE(planner.CreatePlan(*q).ok());
}

TEST_F(PlannerTest, HashJoinFallbackWhenNoIndex) {
  auto rows = RunSql(
      "SELECT COUNT(*) FROM customer, nation WHERE c_nationkey = n_nationkey");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0],
            Value::Int64(static_cast<int64_t>(
                catalog_->GetTable("customer")->num_rows())));
}

// Operator constructors fold constant subtrees before compiling the kernel
// program, so a predicate written as `l_quantity < 10 + 15` plans (and
// prints) as `l_quantity < 25`.
TEST_F(PlannerTest, ConstantSubtreesFoldedAtPlanTime) {
  OperatorPtr plan = MustPlan(
      "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10 + 15");
  const std::string printed = PrintPlan(*plan);
  EXPECT_NE(printed.find("25"), std::string::npos) << printed;
  EXPECT_EQ(printed.find("10 + 15"), std::string::npos) << printed;

  auto folded = RunSql(
      "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10 + 15");
  auto plain = RunSql("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25");
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_EQ(folded[0][0], plain[0][0]);
}

TEST_F(PlannerTest, AggregateArgumentsFoldedAtPlanTime) {
  // SUM(l_quantity * (2 + 3)) must fold the constant factor and agree with
  // the pre-multiplied query.
  auto folded = RunSql("SELECT SUM(l_quantity * (2 + 3)) FROM lineitem");
  auto plain = RunSql("SELECT SUM(l_quantity * 5) FROM lineitem");
  ASSERT_EQ(folded.size(), 1u);
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(folded[0][0], plain[0][0]);
}

// A/B hook: PlannerOptions::vectorize_expressions toggles the compiled
// kernel programs per plan; results must be identical either way.
// The benchmark's nine TPC-H queries (perfbench/sqlbench.cc), then one
// instance of each of its eight point-query templates.
const char* const kBenchmarkQueries[] = {
    "SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) "
    "AS sum_charge, AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order "
    "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'",
    "SELECT COUNT(*) AS count_order FROM lineitem "
    "WHERE l_shipdate <= DATE '1998-09-02'",
    kQuery3,
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice) AS sum_base_price, "
    "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
    "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
    "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
    "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
    "GROUP BY l_returnflag, l_linestatus "
    "ORDER BY l_returnflag, l_linestatus",
    "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
    "AND c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15' "
    "AND l_shipdate > DATE '1995-03-15' "
    "GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10",
    "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) "
    "AS revenue FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
    "AND o_orderdate >= DATE '1993-10-01' "
    "AND o_orderdate < DATE '1994-01-01' AND l_returnflag = 'R' "
    "GROUP BY c_custkey, c_name ORDER BY revenue DESC LIMIT 20",
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_shipdate >= DATE '1994-01-01' "
    "AND l_shipdate < DATE '1995-01-01' "
    "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24",
    "SELECT l_shipmode, COUNT(*) AS line_count FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey "
    "AND (l_shipmode = 'MAIL' OR l_shipmode = 'SHIP') "
    "AND l_receiptdate >= DATE '1994-01-01' "
    "AND l_receiptdate < DATE '1995-01-01' "
    "GROUP BY l_shipmode ORDER BY l_shipmode",
    "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
    "COUNT(*) AS lines FROM lineitem, part WHERE l_partkey = p_partkey "
    "AND l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'",
    "SELECT n_nationkey, n_name, r_name FROM nation, region "
    "WHERE n_regionkey = r_regionkey AND r_regionkey = 2 "
    "ORDER BY n_nationkey",
    "SELECT s_suppkey, s_name, s_acctbal FROM supplier "
    "WHERE s_nationkey = 7 ORDER BY s_acctbal DESC, s_suppkey LIMIT 10",
    "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice "
    "FROM lineitem WHERE l_orderkey >= 1000 AND l_orderkey < 1032 "
    "ORDER BY l_orderkey, l_linenumber",
    "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total "
    "FROM orders WHERE o_orderkey BETWEEN 1000 AND 1199 "
    "GROUP BY o_orderstatus ORDER BY o_orderstatus",
    "SELECT c_custkey, c_name, c_acctbal FROM customer "
    "WHERE c_custkey BETWEEN 100 AND 199 AND c_acctbal > 0",
    "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty, AVG(l_discount) AS disc "
    "FROM lineitem WHERE l_orderkey BETWEEN 1000 AND 1099",
    "SELECT o_orderkey, o_totalprice, c_name FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_orderkey BETWEEN 100 AND 149 "
    "ORDER BY o_orderkey",
    "SELECT p_partkey, p_name, p_retailprice FROM part "
    "WHERE p_partkey BETWEEN 100 AND 299 "
    "ORDER BY p_retailprice DESC, p_partkey LIMIT 20",
};

// Runs `plan` to completion, through NextBatch at `batch` > 1, and boxes
// its rows.
std::vector<std::vector<Value>> Drain(Operator* plan, size_t batch) {
  ExecContext ctx;
  auto rows = batch > 1 ? ExecutePlanBatched(plan, &ctx, batch)
                        : ExecutePlan(plan, &ctx);
  EXPECT_TRUE(rows.ok()) << rows.status();
  std::vector<std::vector<Value>> out;
  if (!rows.ok()) return out;
  const Schema& schema = plan->output_schema();
  for (const uint8_t* row : *rows) {
    std::vector<Value> values;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      values.push_back(TupleView(row, &schema).GetValue(c));
    }
    out.push_back(std::move(values));
  }
  return out;
}

// The same rows in any order, doubles within a relative 1e-9: a parallel
// plan's fragments sum in the order they happen to claim morsels.
void ExpectSameAnswer(std::vector<std::vector<Value>> expected,
                      std::vector<std::vector<Value>> actual) {
  auto key = [](const std::vector<Value>& row) {
    std::string out;
    for (const Value& v : row) {
      if (v.type() == DataType::kDouble && !v.is_null()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v.double_value());
        out += buf;
      } else {
        out += v.ToString();
      }
      out += "|";
    }
    return out;
  };
  auto before = [&](const std::vector<Value>& a, const std::vector<Value>& b) {
    return key(a) < key(b);
  };
  std::sort(expected.begin(), expected.end(), before);
  std::sort(actual.begin(), actual.end(), before);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].size(), actual[i].size());
    for (size_t c = 0; c < expected[i].size(); ++c) {
      const Value& e = expected[i][c];
      const Value& a = actual[i][c];
      if (e.type() == DataType::kDouble && !e.is_null() && !a.is_null()) {
        EXPECT_NEAR(e.double_value(), a.double_value(),
                    1e-9 * std::max(1.0, std::abs(e.double_value())))
            << "row " << i << " col " << c;
      } else {
        EXPECT_EQ(e, a) << "row " << i << " col " << c;
      }
    }
  }
}

// Every plan the planner builds for the benchmark's queries, at batch
// {1, 256} x degree {1, 4} x refine {off, on}, answers with every operator
// contract-checked (ContractCheckPlan, which checks in Debug and
// -DBUFFERDB_CHECK_CONTRACTS=ON builds) as it answers unchecked.
TEST_F(PlannerTest, BenchmarkPlansPassTheContractChecker) {
  for (const char* sql : kBenchmarkQueries) {
    for (size_t batch : {size_t{1}, Operator::kDefaultBatchSize}) {
      for (size_t degree : {1, 4}) {
        for (bool refine : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << sql << " batch " << batch << " degree " << degree
                       << (refine ? " refined" : ""));
          PlannerOptions options;
          options.batch_size = batch;
          options.parallel_degree = degree;
          options.refine = refine;
          OperatorPtr plain = MustPlan(sql, options);
          OperatorPtr checked =
              testutil::ContractCheckPlan(MustPlan(sql, options));
          ExpectSameAnswer(Drain(plain.get(), batch),
                           Drain(checked.get(), batch));
        }
      }
    }
  }
}

TEST_F(PlannerTest, VectorizedAndInterpretedPlansAgree) {
  const char* queries[] = {
      "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25",
      "SELECT SUM(l_extendedprice), AVG(l_discount) FROM lineitem "
      "WHERE l_shipdate <= DATE '1998-09-02'",
      kQuery3,
  };
  for (const char* sql : queries) {
    PlannerOptions vec;
    vec.vectorize_expressions = true;
    PlannerOptions interp;
    interp.vectorize_expressions = false;
    auto a = RunSql(sql, vec);
    auto b = RunSql(sql, interp);
    ASSERT_EQ(a.size(), b.size()) << sql;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].size(), b[i].size()) << sql;
      for (size_t j = 0; j < a[i].size(); ++j) {
        EXPECT_EQ(a[i][j], b[i][j]) << sql << " row " << i << " col " << j;
      }
    }
  }
}

}  // namespace
}  // namespace bufferdb

namespace bufferdb {
namespace {

class PlannerExtensionsTest : public ::testing::Test {
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

  std::vector<std::vector<Value>> RunSql(const std::string& sql) {
    sql::Binder binder(catalog_);
    auto q = binder.BindSql(sql);
    EXPECT_TRUE(q.ok()) << q.status();
    PhysicalPlanner planner(catalog_, PlannerOptions{});
    auto plan = planner.CreatePlan(*q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    last_plan_ = PrintPlan(**plan);
    ExecContext ctx;
    auto rows = ExecutePlanRows(plan->get(), &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return rows.ok() ? *rows : std::vector<std::vector<Value>>{};
  }

  std::string last_plan_;
  static Catalog* catalog_;
};

Catalog* PlannerExtensionsTest::catalog_ = nullptr;

TEST_F(PlannerExtensionsTest, HavingFiltersGroups) {
  auto all = RunSql(
      "SELECT l_returnflag, COUNT(*) AS c FROM lineitem "
      "GROUP BY l_returnflag");
  auto filtered = RunSql(
      "SELECT l_returnflag, COUNT(*) AS c FROM lineitem "
      "GROUP BY l_returnflag HAVING c > 2000");
  EXPECT_NE(last_plan_.find("Filter"), std::string::npos);
  ASSERT_EQ(all.size(), 3u);
  size_t expected = 0;
  for (const auto& row : all) {
    if (row[1].int64_value() > 2000) ++expected;
  }
  EXPECT_EQ(filtered.size(), expected);
}

TEST_F(PlannerExtensionsTest, HavingWithoutAggregatesRejected) {
  sql::Binder binder(catalog_);
  EXPECT_FALSE(
      binder.BindSql("SELECT l_orderkey FROM lineitem HAVING l_orderkey > 1")
          .ok());
}

TEST_F(PlannerExtensionsTest, SelectDistinct) {
  auto rows = RunSql("SELECT DISTINCT l_returnflag FROM lineitem");
  EXPECT_NE(last_plan_.find("Distinct"), std::string::npos);
  EXPECT_EQ(rows.size(), 3u);  // R, A, N.
}

TEST_F(PlannerExtensionsTest, OrderByLimitFusedIntoTopN) {
  auto rows = RunSql(
      "SELECT o_orderkey, o_totalprice FROM orders "
      "ORDER BY o_totalprice DESC LIMIT 5");
  EXPECT_NE(last_plan_.find("TopN(5)"), std::string::npos);
  EXPECT_EQ(last_plan_.find("Sort"), std::string::npos);
  ASSERT_EQ(rows.size(), 5u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1][1].double_value(), rows[i][1].double_value());
  }
}

TEST_F(PlannerExtensionsTest, TopNMatchesSortLimit) {
  // Force Sort+Limit by ordering on a query without LIMIT, then truncating.
  auto sorted = RunSql(
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey DESC");
  auto topn = RunSql(
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey DESC LIMIT 10");
  ASSERT_GE(sorted.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(topn[i][0], sorted[i][0]);
  }
}

TEST_F(PlannerExtensionsTest, LikePredicateEndToEnd) {
  auto promo = RunSql(
      "SELECT COUNT(*) AS c FROM part WHERE p_type LIKE 'PROMO%'");
  auto total = RunSql("SELECT COUNT(*) AS c FROM part");
  ASSERT_EQ(promo.size(), 1u);
  EXPECT_GT(promo[0][0].int64_value(), 0);
  EXPECT_LT(promo[0][0].int64_value(), total[0][0].int64_value());
}

TEST_F(PlannerExtensionsTest, InListEndToEnd) {
  auto rows = RunSql(
      "SELECT COUNT(*) AS c FROM lineitem "
      "WHERE l_shipmode IN ('MAIL', 'SHIP')");
  auto mail = RunSql(
      "SELECT COUNT(*) AS c FROM lineitem WHERE l_shipmode = 'MAIL'");
  auto ship = RunSql(
      "SELECT COUNT(*) AS c FROM lineitem WHERE l_shipmode = 'SHIP'");
  EXPECT_EQ(rows[0][0].int64_value(),
            mail[0][0].int64_value() + ship[0][0].int64_value());
}

TEST_F(PlannerExtensionsTest, BetweenEndToEnd) {
  auto rows = RunSql(
      "SELECT COUNT(*) AS c FROM lineitem "
      "WHERE l_discount BETWEEN 0.05 AND 0.07");
  auto manual = RunSql(
      "SELECT COUNT(*) AS c FROM lineitem "
      "WHERE l_discount >= 0.05 AND l_discount <= 0.07");
  EXPECT_EQ(rows[0][0], manual[0][0]);
  EXPECT_GT(rows[0][0].int64_value(), 0);
}

TEST_F(PlannerExtensionsTest, TpchQ6Faithful) {
  auto rows = RunSql(
      "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
      "WHERE l_shipdate >= DATE '1994-01-01' "
      "AND l_shipdate < DATE '1995-01-01' "
      "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0][0].is_null());
  EXPECT_GT(rows[0][0].double_value(), 0.0);
}

}  // namespace
}  // namespace bufferdb

namespace bufferdb {
namespace {

class MultiJoinTest : public ::testing::Test {
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

  std::vector<std::vector<Value>> RunSql(const std::string& sql,
                                         PlannerOptions options = {}) {
    sql::Binder binder(catalog_);
    auto q = binder.BindSql(sql);
    EXPECT_TRUE(q.ok()) << q.status();
    PhysicalPlanner planner(catalog_, options);
    auto plan = planner.CreatePlan(*q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    ExecContext ctx;
    auto rows = ExecutePlanRows(plan->get(), &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return rows.ok() ? *rows : std::vector<std::vector<Value>>{};
  }

  static Catalog* catalog_;
};

Catalog* MultiJoinTest::catalog_ = nullptr;

// Real TPC-H Q3 shape: customer x orders x lineitem, left-deep.
constexpr char kQ3[] =
    "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
    "AND c_mktsegment = 'BUILDING' "
    "AND o_orderdate < DATE '1995-03-15' "
    "AND l_shipdate > DATE '1995-03-15' "
    "GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10";

TEST_F(MultiJoinTest, TpchQ3RunsEndToEnd) {
  auto rows = RunSql(kQ3);
  ASSERT_GT(rows.size(), 0u);
  ASSERT_LE(rows.size(), 10u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1][1].double_value(), rows[i][1].double_value());
  }
}

// The operators of type T in `op`'s subtree, in pre-order.
template <typename T>
void Collect(Operator* op, std::vector<T*>* out) {
  if (auto* t = dynamic_cast<T*>(op)) out->push_back(t);
  for (size_t i = 0; i < op->num_children(); ++i) Collect(op->child(i), out);
}

TEST_F(MultiJoinTest, ParallelPlanPreAggregatesAndSharesOneTablePerJoin) {
  sql::Binder binder(catalog_);
  auto q = binder.BindSql(kQ3);
  ASSERT_TRUE(q.ok()) << q.status();
  PlannerOptions options;
  options.join_strategy = JoinStrategy::kHashJoin;
  options.parallel_degree = 4;
  auto plan = PhysicalPlanner(catalog_, options).CreatePlan(*q);
  ASSERT_TRUE(plan.ok()) << plan.status();

  // One AggMerge, directly above the Exchange, merging by the group key.
  std::vector<parallel::AggregateMergeOperator*> merges;
  Collect(plan->get(), &merges);
  ASSERT_EQ(merges.size(), 1u) << PrintPlan(**plan);
  EXPECT_EQ(merges[0]->num_keys(), 1u);
  auto* exchange = dynamic_cast<parallel::ExchangeOperator*>(merges[0]->child(0));
  ASSERT_NE(exchange, nullptr) << PrintPlan(**plan);
  ASSERT_EQ(exchange->degree(), 4u);

  // A HashAgg in each fragment and none elsewhere.
  std::vector<HashAggregationOperator*> hash_aggs;
  Collect(plan->get(), &hash_aggs);
  EXPECT_EQ(hash_aggs.size(), 4u);

  // One build per join, shared by that join's clone in every fragment.
  ASSERT_EQ(exchange->builds().size(), 2u);
  for (size_t w = 0; w < exchange->degree(); ++w) {
    ASSERT_NE(dynamic_cast<HashAggregationOperator*>(exchange->child(w)),
              nullptr);
    std::vector<HashJoinOperator*> joins;
    Collect(exchange->child(w), &joins);
    ASSERT_EQ(joins.size(), 2u);
    for (size_t j = 0; j < joins.size(); ++j) {
      EXPECT_EQ(joins[j]->shared_build(), exchange->builds()[j].get())
          << "fragment " << w << " join " << j;
    }
  }
}

TEST_F(MultiJoinTest, ThreeTableStrategiesAgree) {
  constexpr char kCountQ[] =
      "SELECT COUNT(*) AS c FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
      "AND c_acctbal > 0";
  PlannerOptions hash;
  hash.join_strategy = JoinStrategy::kHashJoin;
  PlannerOptions merge;
  merge.join_strategy = JoinStrategy::kMergeJoin;
  auto a = RunSql(kCountQ);          // Auto: INLJ over pk indexes.
  auto b = RunSql(kCountQ, hash);
  auto c = RunSql(kCountQ, merge);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0][0], b[0][0]);
  EXPECT_EQ(a[0][0], c[0][0]);
  EXPECT_GT(a[0][0].int64_value(), 0);
}

TEST_F(MultiJoinTest, RefinementPreservesThreeTableResults) {
  PlannerOptions refined;
  refined.refine = true;
  auto plain = RunSql(kQ3);
  auto buffered = RunSql(kQ3, refined);
  ASSERT_EQ(plain.size(), buffered.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i][0], buffered[i][0]);
    EXPECT_NEAR(plain[i][1].double_value(), buffered[i][1].double_value(),
                1e-6);
  }
}

TEST_F(MultiJoinTest, RedundantEdgeBecomesFilter) {
  // Two edges between the same pair: one drives the join, the other must
  // still be enforced (here it is always true, so counts match).
  auto with_redundant = RunSql(
      "SELECT COUNT(*) AS c FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND l_orderkey = o_orderkey");
  auto plain = RunSql(
      "SELECT COUNT(*) AS c FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey");
  EXPECT_EQ(with_redundant[0][0], plain[0][0]);
}

TEST_F(MultiJoinTest, DisconnectedTableRejected) {
  sql::Binder binder(catalog_);
  auto q = binder.BindSql(
      "SELECT COUNT(*) FROM customer, orders, lineitem "
      "WHERE c_custkey = o_custkey AND c_acctbal > 0");
  ASSERT_TRUE(q.ok());
  PhysicalPlanner planner(catalog_, PlannerOptions{});
  EXPECT_FALSE(planner.CreatePlan(*q).ok());
}

TEST_F(MultiJoinTest, FourTableChain) {
  auto rows = RunSql(
      "SELECT COUNT(*) AS c FROM nation, customer, orders, lineitem "
      "WHERE n_nationkey = c_nationkey AND c_custkey = o_custkey "
      "AND o_orderkey = l_orderkey AND n_name = 'FRANCE'");
  ASSERT_EQ(rows.size(), 1u);
  // France is 1 of 25 nations; expect some but not all lineitems.
  EXPECT_GT(rows[0][0].int64_value(), 0);
  EXPECT_LT(rows[0][0].int64_value(),
            static_cast<int64_t>(catalog_->GetTable("lineitem")->num_rows()));
}

TEST_F(MultiJoinTest, CrossPredicateAppliedAtTop) {
  auto rows = RunSql(
      "SELECT COUNT(*) AS c FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND l_extendedprice > o_totalprice");
  ASSERT_EQ(rows.size(), 1u);
  // A single lineitem rarely exceeds its whole order's total price, but it
  // happens for one-line orders with discounts/taxes; just check it is a
  // strict subset.
  auto all = RunSql(
      "SELECT COUNT(*) AS c FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey");
  EXPECT_LT(rows[0][0].int64_value(), all[0][0].int64_value());
}

// Batched serial plans read a selective key range through the B+-tree;
// tuple-at-a-time and parallel plans keep their table scans.

PlannerOptions BatchedOptions(size_t degree = 1) {
  PlannerOptions options;
  options.batch_size = Operator::kDefaultBatchSize;
  options.parallel_degree = degree;
  return options;
}

// Drains `plan` through NextBatch; the rows as sorted strings.
std::vector<std::string> RunBatchedCanonical(Operator* plan) {
  ExecContext ctx;
  auto rows = ExecutePlanBatched(plan, &ctx);
  EXPECT_TRUE(rows.ok()) << rows.status();
  if (!rows.ok()) return {};
  const Schema& schema = plan->output_schema();
  std::vector<std::vector<Value>> values;
  for (const uint8_t* row : *rows) {
    TupleView view(row, &schema);
    values.emplace_back();
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      values.back().push_back(view.GetValue(c));
    }
  }
  return testutil::Canonical(values);
}

TEST_F(PlannerTest, BatchedSerialKeyRangePlansIndexScan) {
  const char kSql[] =
      "SELECT o_orderkey, o_totalprice FROM orders "
      "WHERE o_orderkey BETWEEN 100 AND 400 AND o_totalprice > 1000.0";
  OperatorPtr batched = MustPlan(kSql, BatchedOptions());
  std::vector<IndexScanOperator*> index_scans;
  Collect(batched.get(), &index_scans);
  ASSERT_EQ(index_scans.size(), 1u) << PrintPlan(*batched);
  EXPECT_EQ(index_scans[0]->index()->name, "orders_pk");
  EXPECT_EQ(index_scans[0]->lo_key(), 100);
  EXPECT_EQ(index_scans[0]->hi_key(), 400);
  // The range enforces the BETWEEN; only the price is left to check.
  ASSERT_NE(index_scans[0]->residual(), nullptr);
  EXPECT_EQ(index_scans[0]->residual()->ToString(),
            "(o_totalprice > 1000.0000)");

  // Tuple at a time, the same query keeps its table scan: the reference
  // answer comes through another access path.
  OperatorPtr tuple = MustPlan(kSql);
  std::vector<SeqScanOperator*> seq_scans;
  Collect(tuple.get(), &seq_scans);
  EXPECT_EQ(seq_scans.size(), 1u) << PrintPlan(*tuple);
  const auto expected = testutil::Canonical(testutil::RunPlan(tuple.get()));
  EXPECT_FALSE(expected.empty());
  EXPECT_LE(expected.size(), 301u);
  EXPECT_EQ(RunBatchedCanonical(batched.get()), expected);

  // In parallel it keeps the morsel-partitioned table scans.
  OperatorPtr parallel = MustPlan(kSql, BatchedOptions(2));
  index_scans.clear();
  Collect(parallel.get(), &index_scans);
  EXPECT_TRUE(index_scans.empty()) << PrintPlan(*parallel);
  std::vector<ColumnScanOperator*> column_scans;
  Collect(parallel.get(), &column_scans);
  ASSERT_EQ(column_scans.size(), 2u) << PrintPlan(*parallel);
  for (const ColumnScanOperator* scan : column_scans) {
    EXPECT_TRUE(scan->morsel_mode());
  }
  EXPECT_EQ(RunBatchedCanonical(parallel.get()), expected);
}

TEST_F(PlannerTest, WideKeyRangeKeepsColumnScan) {
  // Every lineitem row: far more than one zone block.
  const char kSql[] =
      "SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN 0 AND 1000000";
  OperatorPtr plan = MustPlan(kSql, BatchedOptions());
  std::vector<ColumnScanOperator*> column_scans;
  Collect(plan.get(), &column_scans);
  ASSERT_EQ(column_scans.size(), 1u) << PrintPlan(*plan);
  EXPECT_GE(column_scans[0]->estimated_rows(),
            static_cast<double>(kZoneBlockRows));
  EXPECT_EQ(RunBatchedCanonical(plan.get()),
            testutil::Canonical(testutil::RunPlan(MustPlan(kSql).get())));
}

TEST_F(PlannerTest, EqualityOnUniqueKeyPlansIndexScan) {
  const char kSql[] = "SELECT c_custkey, c_name FROM customer "
                      "WHERE 7 = c_custkey";
  OperatorPtr plan = MustPlan(kSql, BatchedOptions());
  std::vector<IndexScanOperator*> index_scans;
  Collect(plan.get(), &index_scans);
  ASSERT_EQ(index_scans.size(), 1u) << PrintPlan(*plan);
  EXPECT_EQ(index_scans[0]->lo_key(), 7);
  EXPECT_EQ(index_scans[0]->hi_key(), 7);
  EXPECT_EQ(index_scans[0]->residual(), nullptr);
  const auto rows = RunBatchedCanonical(plan.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows, testutil::Canonical(testutil::RunPlan(MustPlan(kSql).get())));
}

TEST_F(PlannerTest, StrictBoundAtInt64MaxIsEmptyRange) {
  // `x > INT64_MAX` converts to an empty key range, not to INT64_MAX + 1.
  const char kSql[] =
      "SELECT o_orderkey FROM orders WHERE o_orderkey > 9223372036854775807";
  OperatorPtr plan = MustPlan(kSql, BatchedOptions());
  std::vector<IndexScanOperator*> index_scans;
  Collect(plan.get(), &index_scans);
  ASSERT_EQ(index_scans.size(), 1u) << PrintPlan(*plan);
  EXPECT_GT(index_scans[0]->lo_key(), index_scans[0]->hi_key());
  EXPECT_EQ(index_scans[0]->residual(), nullptr);
  EXPECT_TRUE(RunBatchedCanonical(plan.get()).empty());
  EXPECT_TRUE(testutil::RunPlan(MustPlan(kSql).get()).empty());
}

// An IndexScan's residual is the filter less the conjuncts its key range
// enforces; every answer equals the tuple-at-a-time table scan's under the
// whole filter.

TEST_F(PlannerTest, PureKeyRangePlansNoResidual) {
  for (const char* sql :
       {"SELECT o_orderkey, o_totalprice FROM orders "
        "WHERE o_orderkey BETWEEN 100 AND 400",
        "SELECT c_custkey, c_name FROM customer WHERE 7 = c_custkey",
        "SELECT o_orderkey FROM orders "
        "WHERE o_orderkey > 99 AND o_orderkey < 401 AND o_orderkey >= 90"}) {
    OperatorPtr plan = MustPlan(sql, BatchedOptions());
    std::vector<IndexScanOperator*> index_scans;
    Collect(plan.get(), &index_scans);
    ASSERT_EQ(index_scans.size(), 1u) << PrintPlan(*plan);
    EXPECT_EQ(index_scans[0]->residual(), nullptr) << sql;
    const auto expected =
        testutil::Canonical(testutil::RunPlan(MustPlan(sql).get()));
    EXPECT_FALSE(expected.empty()) << sql;
    EXPECT_EQ(RunBatchedCanonical(plan.get()), expected) << sql;
  }
}

TEST_F(PlannerTest, ResidualKeepsWhatTheKeyRangeDoesNotEnforce) {
  const struct {
    const char* where;
    const char* residual;
  } kCases[] = {
      {"o_orderkey BETWEEN 100 AND 400 AND o_orderkey <> 200",
       "(o_orderkey <> 200)"},
      // The other conjuncts keep their order.
      {"o_totalprice > 1000.0 AND o_orderkey >= 100 AND o_orderkey <> 200 "
       "AND o_orderkey <= 400",
       "((o_totalprice > 1000.0000) AND (o_orderkey <> 200))"},
      // A literal of another type is not folded into the range.
      {"o_orderkey BETWEEN 100 AND 400 AND o_orderkey < 300.5",
       "(o_orderkey < 300.5000)"},
      // Nor is a NULL literal (1 / 0 folds to one): no row passes.
      {"o_orderkey BETWEEN 100 AND 400 AND o_orderkey < 1 / 0",
       "(o_orderkey < NULL)"},
      // Bounds on a column without an index stay.
      {"o_orderkey BETWEEN 100 AND 400 AND o_custkey BETWEEN 1 AND 50",
       "((o_custkey >= 1) AND (o_custkey <= 50))"},
  };
  for (const auto& c : kCases) {
    const std::string sql =
        std::string("SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
                    "WHERE ") +
        c.where;
    OperatorPtr plan = MustPlan(sql, BatchedOptions());
    std::vector<IndexScanOperator*> index_scans;
    Collect(plan.get(), &index_scans);
    ASSERT_EQ(index_scans.size(), 1u) << PrintPlan(*plan);
    EXPECT_EQ(index_scans[0]->lo_key(), 100) << c.where;
    EXPECT_EQ(index_scans[0]->hi_key(), 400) << c.where;
    ASSERT_NE(index_scans[0]->residual(), nullptr) << c.where;
    EXPECT_EQ(index_scans[0]->residual()->ToString(), c.residual);
    EXPECT_EQ(RunBatchedCanonical(plan.get()),
              testutil::Canonical(testutil::RunPlan(MustPlan(sql).get())))
        << c.where;
  }
}

// Rows appended after a table's columnar image or an index was built are
// read by every plan: the append drops the image, and the planner skips an
// index that no longer covers its table.

Result<OperatorPtr> PlanSql(Catalog* catalog, const std::string& sql,
                            PlannerOptions options = {}) {
  sql::Binder binder(catalog);
  auto query = binder.BindSql(sql);
  if (!query.ok()) return query.status();
  return PhysicalPlanner(catalog, options).CreatePlan(*query);
}

// (k, 1.0) for k in [begin, end).
void AppendKeys(Table* table, int64_t begin, int64_t end) {
  for (int64_t k = begin; k < end; ++k) {
    table->AppendRow({Value::Int64(k), Value::Double(1.0)});
  }
}

TEST(AppendAfterLoadTest, BatchedPlanReadsRowsAppendedAfterColumnarImage) {
  Catalog catalog;
  auto owned = testutil::MakeKvTable("t", {});
  Table* table = owned.get();
  ASSERT_TRUE(catalog.AddTable(std::move(owned)).ok());
  AppendKeys(table, 0, 100);
  table->AttachColumnar(ColumnarTable::Build(*table));
  AppendKeys(table, 100, 5000);

  const char kSql[] = "SELECT COUNT(*), SUM(v) FROM t WHERE k >= 0";
  auto tuple = PlanSql(&catalog, kSql);
  auto batched = PlanSql(&catalog, kSql, BatchedOptions());
  ASSERT_TRUE(tuple.ok()) << tuple.status();
  ASSERT_TRUE(batched.ok()) << batched.status();
  const auto rows = testutil::RunPlan(tuple->get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(5000));
  EXPECT_EQ(RunBatchedCanonical(batched->get()), testutil::Canonical(rows));
}

TEST(AppendAfterLoadTest, PlansSkipIndexBuiltBeforeAppend) {
  Catalog catalog;
  auto owned = testutil::MakeKvTable("t", {});
  Table* table = owned.get();
  ASSERT_TRUE(catalog.AddTable(std::move(owned)).ok());
  AppendKeys(table, 0, 10000);
  ASSERT_TRUE(catalog.CreateIndex("t_k", "t", "k", /*unique=*/true).ok());
  AppendKeys(table, 10000, 10100);
  EXPECT_EQ(catalog.FindIndex(table, 0), nullptr);

  const char kSql[] = "SELECT COUNT(*) FROM t WHERE k BETWEEN 10000 AND 10050";
  auto tuple = PlanSql(&catalog, kSql);
  auto batched = PlanSql(&catalog, kSql, BatchedOptions());
  ASSERT_TRUE(tuple.ok()) << tuple.status();
  ASSERT_TRUE(batched.ok()) << batched.status();
  const auto rows = testutil::RunPlan(tuple->get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(51));
  EXPECT_EQ(RunBatchedCanonical(batched->get()), testutil::Canonical(rows));

  // A join on the appended key: the planner picks a hash join, and a
  // forced index join fails instead of probing the stale B+-tree.
  auto outer = std::make_unique<Table>("o", Schema({{"ok", DataType::kInt64}}));
  outer->AppendRow({Value::Int64(10020)});
  ASSERT_TRUE(catalog.AddTable(std::move(outer)).ok());
  const char kJoin[] = "SELECT COUNT(*) FROM o, t WHERE ok = k";
  auto join = PlanSql(&catalog, kJoin, BatchedOptions());
  ASSERT_TRUE(join.ok()) << join.status();
  EXPECT_EQ(RunBatchedCanonical(join->get()),
            testutil::Canonical({{Value::Int64(1)}}));
  PlannerOptions index_join;
  index_join.join_strategy = JoinStrategy::kIndexNestLoop;
  EXPECT_FALSE(PlanSql(&catalog, kJoin, index_join).ok());
}

TEST(IndexResidualTest, UnchosenIndexedColumnKeepsItsBounds) {
  // Two indexed columns: a = i, NULL for every 10th row; b a permutation of
  // 0..9999.
  Catalog catalog;
  auto owned = std::make_unique<Table>(
      "t", Schema({{"a", DataType::kInt64},
                   {"b", DataType::kInt64},
                   {"v", DataType::kDouble}}));
  Table* table = owned.get();
  ASSERT_TRUE(catalog.AddTable(std::move(owned)).ok());
  for (int64_t i = 0; i < 10000; ++i) {
    table->AppendRow({i % 10 == 0 ? Value::Null(DataType::kInt64)
                                  : Value::Int64(i),
                      Value::Int64(i * 7919 % 10000),
                      Value::Double(static_cast<double>(i))});
  }
  ASSERT_TRUE(catalog.CreateIndex("t_a", "t", "a", /*unique=*/true).ok());
  ASSERT_TRUE(catalog.CreateIndex("t_b", "t", "b", /*unique=*/true).ok());

  const struct {
    const char* where;
    const char* index;
    const char* residual;
  } kCases[] = {
      {"b BETWEEN 0 AND 5000 AND a BETWEEN 100 AND 150", "t_a",
       "((b >= 0) AND (b <= 5000))"},
      {"a >= 0 AND b > 10 AND a <= 9000 AND b <= 40", "t_b",
       "((a >= 0) AND (a <= 9000))"},
      // NULL keys are not in the B+-tree, and fail the range's bounds.
      {"a BETWEEN 0 AND 60", "t_a", nullptr},
  };
  for (const auto& c : kCases) {
    const std::string sql =
        std::string("SELECT a, b, v FROM t WHERE ") + c.where;
    auto batched = PlanSql(&catalog, sql, BatchedOptions());
    ASSERT_TRUE(batched.ok()) << batched.status();
    std::vector<IndexScanOperator*> index_scans;
    Collect(batched->get(), &index_scans);
    ASSERT_EQ(index_scans.size(), 1u) << PrintPlan(**batched);
    EXPECT_EQ(index_scans[0]->index()->name, c.index) << c.where;
    if (c.residual == nullptr) {
      EXPECT_EQ(index_scans[0]->residual(), nullptr) << c.where;
    } else {
      ASSERT_NE(index_scans[0]->residual(), nullptr) << c.where;
      EXPECT_EQ(index_scans[0]->residual()->ToString(), c.residual);
    }
    auto tuple = PlanSql(&catalog, sql);
    ASSERT_TRUE(tuple.ok()) << tuple.status();
    const auto expected = testutil::Canonical(testutil::RunPlan(tuple->get()));
    EXPECT_FALSE(expected.empty()) << c.where;
    EXPECT_EQ(RunBatchedCanonical(batched->get()), expected) << c.where;
  }
}

}  // namespace
}  // namespace bufferdb

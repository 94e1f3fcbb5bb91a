#include <gtest/gtest.h>

#include "core/buffer_operator.h"
#include "exec/aggregation.h"
#include "exec/seq_scan.h"
#include "perf/profiled_operator.h"
#include "plan/physical_planner.h"
#include "sim/sim_cpu.h"
#include "sql/binder.h"
#include "test_util.h"
#include "tpch/tpch_gen.h"

namespace bufferdb {
namespace {

using testutil::Bin;
using testutil::Col;
using testutil::Lit;
using testutil::MakeKvTable;
using testutil::RunPlan;

std::unique_ptr<Table> SequentialTable(int n) {
  std::vector<std::pair<int64_t, double>> rows;
  for (int i = 0; i < n; ++i) rows.push_back({i, i * 0.5});
  return MakeKvTable("t", rows);
}

class BufferSizeTest : public ::testing::TestWithParam<size_t> {};

// Core transparency property (paper §5): a Buffer operator changes the
// execution pattern, never the result stream — same tuples, same order,
// for any buffer size and input size, including sizes that divide the input
// exactly and sizes larger than the input.
TEST_P(BufferSizeTest, TransparentForAnyBufferSize) {
  for (int n : {0, 1, 7, 100, 1000, 1001}) {
    auto table = SequentialTable(n);
    SeqScanOperator plain(table.get(), nullptr);
    auto expected = RunPlan(&plain);

    BufferOperator buffered(
        std::make_unique<SeqScanOperator>(table.get(), nullptr), GetParam());
    auto got = RunPlan(&buffered);
    ASSERT_EQ(got.size(), expected.size()) << "n=" << n;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i][0], expected[i][0]) << "n=" << n << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BufferSizeTest,
                         ::testing::Values(1, 2, 3, 10, 100, 1000, 4096));

TEST(BufferOperatorTest, ZeroSizeIsClampedToOne) {
  auto table = SequentialTable(5);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 0);
  EXPECT_EQ(buffer.buffer_size(), 1u);
  EXPECT_EQ(RunPlan(&buffer).size(), 5u);
}

TEST(BufferOperatorTest, RefillCountMatchesMath) {
  auto table = SequentialTable(1000);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 100);
  RunPlan(&buffer);
  // 10 full refills plus one final empty-detecting refill.
  EXPECT_EQ(buffer.refills(), 11u);
}

TEST(BufferOperatorTest, ExactMultipleStillTerminates) {
  auto table = SequentialTable(200);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 200);
  EXPECT_EQ(RunPlan(&buffer).size(), 200u);
  EXPECT_EQ(buffer.refills(), 2u);
}

TEST(BufferOperatorTest, EmptyChild) {
  auto table = SequentialTable(0);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 10);
  EXPECT_TRUE(RunPlan(&buffer).empty());
  EXPECT_EQ(buffer.refills(), 1u);
}

TEST(BufferOperatorTest, ReturnsNullForeverAfterEnd) {
  auto table = SequentialTable(3);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 10);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  for (int i = 0; i < 3; ++i) EXPECT_NE(buffer.Next(), nullptr);
  EXPECT_EQ(buffer.Next(), nullptr);
  EXPECT_EQ(buffer.Next(), nullptr);
  buffer.Close();
}

TEST(BufferOperatorTest, PointersNotCopies) {
  // The returned tuple pointers are the child's own rows (the paper's no-copy
  // design).
  auto table = SequentialTable(10);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 4);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(buffer.Next(), table->row(i));
  }
  buffer.Close();
}

TEST(BufferOperatorTest, CopyModeProducesEqualValuesAtDifferentAddresses) {
  auto table = SequentialTable(10);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 4,
      /*copy_tuples=*/true);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  for (size_t i = 0; i < 10; ++i) {
    const uint8_t* row = buffer.Next();
    ASSERT_NE(row, nullptr);
    EXPECT_NE(row, table->row(i));
    EXPECT_EQ(TupleView(row, &table->schema()).GetInt64(0),
              static_cast<int64_t>(i));
  }
  buffer.Close();
}

TEST(BufferOperatorTest, WorksAboveFilteredScan) {
  auto table = SequentialTable(100);
  const Schema& s = table->schema();
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(
          table.get(),
          Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(37)))),
      8);
  EXPECT_EQ(RunPlan(&buffer).size(), 37u);
}

TEST(BufferOperatorTest, StackedBuffersRemainTransparent) {
  auto table = SequentialTable(50);
  auto inner = std::make_unique<BufferOperator>(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 7);
  BufferOperator outer(std::move(inner), 3);
  auto rows = RunPlan(&outer);
  ASSERT_EQ(rows.size(), 50u);
  EXPECT_EQ(rows[49][0], Value::Int64(49));
}

TEST(BufferOperatorTest, NextBatchHandsOutPointerArraySlices) {
  // The batch path is zero-copy twice over: the tuples stay where the child
  // produced them AND the slice handed out is a straight window of the
  // buffer's pointer array, in order.
  auto table = SequentialTable(10);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 100);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  const uint8_t* batch[4];
  size_t total = 0;
  while (size_t n = buffer.NextBatch(batch, 4)) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i], table->row(total + i));
    }
    total += n;
  }
  EXPECT_EQ(total, 10u);
  buffer.Close();
}

TEST(BufferOperatorTest, RescanReplaysArrayWhenInputFullyBuffered) {
  // Satellite: when one Refill consumed the whole child stream, Rescan
  // rewinds the pointer array instead of re-executing the subtree below.
  auto table = SequentialTable(50);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 100);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 50; ++i) {
      const uint8_t* row = buffer.Next();
      ASSERT_NE(row, nullptr) << "pass " << pass << " i " << i;
      EXPECT_EQ(row, table->row(i));
    }
    EXPECT_EQ(buffer.Next(), nullptr);
    ASSERT_TRUE(buffer.Rescan().ok());
  }
  EXPECT_EQ(buffer.replays(), 3u);
  EXPECT_EQ(buffer.refills(), 1u);  // The child ran exactly once.
  buffer.Close();
}

TEST(BufferOperatorTest, RescanBeforeAnyReadIsANoOp) {
  auto table = SequentialTable(5);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 100);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  ASSERT_TRUE(buffer.Rescan().ok());
  EXPECT_EQ(buffer.replays(), 0u);
  int count = 0;
  while (buffer.Next() != nullptr) ++count;
  EXPECT_EQ(count, 5);
  buffer.Close();
}

TEST(BufferOperatorTest, RescanFallsBackWhenInputExceedsBuffer) {
  // More than one refill: the array holds only the tail, so Rescan must
  // re-execute the child rather than replay.
  auto table = SequentialTable(50);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 10);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  int count = 0;
  while (buffer.Next() != nullptr) ++count;
  ASSERT_EQ(count, 50);
  ASSERT_TRUE(buffer.Rescan().ok());
  EXPECT_EQ(buffer.replays(), 0u);
  count = 0;
  while (buffer.Next() != nullptr) ++count;
  EXPECT_EQ(count, 50);
  buffer.Close();
}

TEST(BufferOperatorTest, RefillNeverReallocatesThePointerArray) {
  // Satellite: Open reserves the array once; the refill loop must reuse it.
  // 10000 rows through a 64-slot buffer = 157 refills, zero reallocations.
  auto table = SequentialTable(10000);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 64);
  EXPECT_EQ(RunPlan(&buffer).size(), 10000u);
  EXPECT_GT(buffer.refills(), 150u);
  EXPECT_EQ(buffer.buffer_reallocs(), 0u);
}

// Drains `buffer` (already open) through NextBatch in slices of `slice`
// rows and returns the rows in order.
std::vector<const uint8_t*> DrainBatched(BufferOperator* buffer,
                                         size_t slice) {
  std::vector<const uint8_t*> rows;
  std::vector<const uint8_t*> out(slice);
  while (size_t n = buffer->NextBatch(out.data(), slice)) {
    rows.insert(rows.end(), out.begin(), out.begin() + n);
  }
  return rows;
}

TEST(BufferOperatorTest, NextBatchRefillPullsChildBatches) {
  // A refill triggered by NextBatch fills the array through the child's
  // NextBatch: same stream, one refill per started window (the last one
  // partial), and the array reserved at Open is reused throughout.
  auto table = SequentialTable(10000);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 64);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  auto rows = DrainBatched(&buffer, 16);
  ASSERT_EQ(rows.size(), 10000u);
  for (size_t i = 0; i < rows.size(); ++i) ASSERT_EQ(rows[i], table->row(i));
  EXPECT_EQ(buffer.refills(), (10000u + 63u) / 64u);  // ceil(rows / capacity)
  EXPECT_EQ(buffer.tuples_buffered(), 10000u);
  EXPECT_EQ(buffer.buffer_reallocs(), 0u);
  buffer.Close();
}

TEST(BufferOperatorTest, NextBatchRefilledStreamReplaysOnRescan) {
  // One NextBatch-driven refill that saw end-of-stream holds the whole
  // input, so Rescan replays it without re-running the child.
  auto table = SequentialTable(50);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 100);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  for (int pass = 0; pass < 3; ++pass) {
    auto rows = DrainBatched(&buffer, 7);
    ASSERT_EQ(rows.size(), 50u) << "pass " << pass;
    for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], table->row(i));
    ASSERT_TRUE(buffer.Rescan().ok());
  }
  EXPECT_EQ(buffer.replays(), 3u);
  EXPECT_EQ(buffer.refills(), 1u);
  buffer.Close();
}

TEST(BufferOperatorTest, ContractCheckedSlicesStayValidAcrossRefills) {
  // Drive the batch path through the contract checker with slices (4) that
  // do not divide the capacity (7), so slices end on and straddle refill
  // boundaries. Every NextBatch() poisons the previous slice, so this fails
  // loudly if a refill ever served a stale window; meanwhile the delivered
  // values must stay the full stream in order.
  auto table = SequentialTable(60);
  ContractCheckedOperator checked(std::make_unique<BufferOperator>(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 7));
  ExecContext ctx;
  ASSERT_TRUE(checked.Open(&ctx).ok());
  const uint8_t* slice[4];
  std::vector<int64_t> seen;
  while (size_t n = checked.NextBatch(slice, 4)) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_NE(slice[i], ContractCheckedOperator::PoisonPointer());
      seen.push_back(TupleView(slice[i], &table->schema()).GetInt64(0));
    }
  }
  // The final call (returning 0) poisoned the last handed-out slice.
  EXPECT_EQ(slice[0], ContractCheckedOperator::PoisonPointer());
  ASSERT_EQ(seen.size(), 60u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<int64_t>(i));
  }
  checked.Close();
}

// The BufferOperators under `op` in pre-order, looking through decorators
// (profilers, contract checkers) via the child links.
void FindBuffers(const Operator& op, std::vector<const BufferOperator*>* out) {
  if (const auto* buffer = dynamic_cast<const BufferOperator*>(&op)) {
    out->push_back(buffer);
  }
  for (size_t i = 0; i < op.num_children(); ++i) {
    FindBuffers(*op.child(i), out);
  }
}

// Refined TPC-H plans for the CollectBufferStats walk.
class BufferStatsTest : public ::testing::Test {
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

  static OperatorPtr RefinedPlan(const std::string& sql, size_t degree) {
    sql::Binder binder(catalog_);
    auto query = binder.BindSql(sql);
    EXPECT_TRUE(query.ok()) << query.status();
    PlannerOptions options;
    options.refine = true;
    options.parallel_degree = degree;
    // Small morsels, so both workers of a parallel plan can claim some.
    options.morsel_rows = 1000;
    PhysicalPlanner planner(catalog_, options);
    auto plan = planner.CreatePlan(*query);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return std::move(*plan);
  }

  static Catalog* catalog_;
};

Catalog* BufferStatsTest::catalog_ = nullptr;

TEST_F(BufferStatsTest, OneRecordPerBufferInPreOrderThroughProfiler) {
  perf::QueryProfile profile;
  OperatorPtr plan = perf::ProfilePlan(
      RefinedPlan(
          "SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders "
          "WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1998-09-02' "
          "AND o_orderdate < DATE '1995-03-15'",
          1),
      &profile);
  RunPlan(plan.get());
  // A Buffer above the join and one above the lineitem scan, which buffer
  // different row counts, so a walk out of pre-order would show.
  std::vector<const BufferOperator*> buffers;
  FindBuffers(*plan, &buffers);
  ASSERT_EQ(buffers.size(), 2u);
  EXPECT_NE(buffers[0]->tuples_buffered(), buffers[1]->tuples_buffered());
  std::vector<BufferRuntimeStats> stats;
  CollectBufferStats(*plan, &stats);
  ASSERT_EQ(stats.size(), buffers.size());
  for (size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].label, "Buffer(1000)") << i;
    EXPECT_EQ(stats[i].capacity, 1000u) << i;
    EXPECT_EQ(stats[i].refills, buffers[i]->refills()) << i;
    EXPECT_EQ(stats[i].tuples_buffered, buffers[i]->tuples_buffered()) << i;
    EXPECT_GT(stats[i].refills, 0u) << i;
  }
}

TEST_F(BufferStatsTest, PerWorkerBuffersSumToTheSerialBuffer) {
  const char kSql[] =
      "SELECT l_returnflag, COUNT(*) AS c FROM lineitem "
      "WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag";
  OperatorPtr serial = RefinedPlan(kSql, 1);
  RunPlan(serial.get());
  std::vector<BufferRuntimeStats> serial_stats;
  CollectBufferStats(*serial, &serial_stats);
  ASSERT_EQ(serial_stats.size(), 1u);
  ASSERT_GT(serial_stats[0].tuples_buffered, 0u);

  OperatorPtr parallel = RefinedPlan(kSql, 2);
  RunPlan(parallel.get());
  std::vector<BufferRuntimeStats> worker_stats;
  CollectBufferStats(*parallel, &worker_stats);
  ASSERT_EQ(worker_stats.size(), 2u);  // One Buffer per worker fragment.
  EXPECT_EQ(worker_stats[0].tuples_buffered + worker_stats[1].tuples_buffered,
            serial_stats[0].tuples_buffered);
}

TEST(BufferOperatorTest, ReducesInstructionCacheMissesUnderSim) {
  // The headline effect at operator level: Aggregation over Scan with and
  // without a buffer in between.
  auto table = SequentialTable(20000);
  const Schema& s = table->schema();
  auto make_aggs = [&s]() {
    std::vector<AggSpec> specs;
    specs.push_back(AggSpec{AggFunc::kSum, Col(s, "v"), "sum_v"});
    specs.push_back(AggSpec{AggFunc::kAvg, Col(s, "v"), "avg_v"});
    specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "cnt"});
    return specs;
  };
  ExprPtr pred = Bin(BinaryOp::kGe, Col(s, "k"), Lit(Value::Int64(0)));

  sim::SimCpu cpu_plain;
  {
    AggregationOperator agg(
        std::make_unique<SeqScanOperator>(table.get(), pred->Clone()),
        make_aggs());
    ExecContext ctx;
    ctx.cpu = &cpu_plain;
    auto rows = ExecutePlanRows(&agg, &ctx);
    ASSERT_TRUE(rows.ok());
  }
  sim::SimCpu cpu_buffered;
  {
    AggregationOperator agg(
        std::make_unique<BufferOperator>(
            std::make_unique<SeqScanOperator>(table.get(), pred->Clone()),
            1000),
        make_aggs());
    ExecContext ctx;
    ctx.cpu = &cpu_buffered;
    auto rows = ExecutePlanRows(&agg, &ctx);
    ASSERT_TRUE(rows.ok());
  }
  // Large reduction in L1-I misses and a net cycle win.
  EXPECT_LT(cpu_buffered.counters().l1i_misses,
            cpu_plain.counters().l1i_misses / 4);
  EXPECT_LT(cpu_buffered.Breakdown().total_cycles(),
            cpu_plain.Breakdown().total_cycles());
}

}  // namespace
}  // namespace bufferdb

#include <gtest/gtest.h>

#include "core/buffer_operator.h"
#include "exec/aggregation.h"
#include "exec/seq_scan.h"
#include "sim/sim_cpu.h"
#include "test_util.h"

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

TEST(BufferOperatorTest, NextBatchRefillAppliesResizeAtRefillBoundary) {
  auto table = SequentialTable(100);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 10);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  std::vector<const uint8_t*> rows;
  const uint8_t* out[4];
  while (rows.size() < 24) {  // Mid-window: two full refills plus four rows.
    size_t n = buffer.NextBatch(out, 4);
    rows.insert(rows.end(), out, out + n);
  }
  buffer.Resize(3);
  EXPECT_EQ(buffer.buffer_size(), 10u);  // Pending until the next refill.
  while (rows.size() < 30) {  // Finish the window; no refill yet.
    size_t n = buffer.NextBatch(out, 4);
    rows.insert(rows.end(), out, out + n);
  }
  EXPECT_EQ(buffer.buffer_size(), 10u);
  EXPECT_EQ(buffer.refills(), 3u);
  size_t n = buffer.NextBatch(out, 4);  // Refill at the new capacity.
  rows.insert(rows.end(), out, out + n);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(buffer.buffer_size(), 3u);
  auto rest = DrainBatched(&buffer, 4);
  rows.insert(rows.end(), rest.begin(), rest.end());
  ASSERT_EQ(rows.size(), 100u);
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], table->row(i));
  EXPECT_EQ(buffer.buffer_reallocs(), 0u);
  buffer.Close();
}

TEST(BufferOperatorTest, ResizeMidStreamKeepsResultIdentity) {
  // Satellite: Resize() between reads must never disturb the stream. The new
  // capacity applies at the next refill boundary, so tuples keep flowing in
  // order across shrink and grow while a window is in flight.
  auto table = SequentialTable(100);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 10);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  size_t i = 0;
  for (; i < 25; ++i) {  // mid-window: 25 = 2 full refills + half a third
    ASSERT_EQ(buffer.Next(), table->row(i));
  }
  buffer.Resize(3);
  for (; i < 31; ++i) {  // cross the pending-resize refill boundary
    ASSERT_EQ(buffer.Next(), table->row(i));
  }
  EXPECT_EQ(buffer.buffer_size(), 3u);  // applied at the refill, not before
  buffer.Resize(64);
  for (; i < 100; ++i) {
    ASSERT_EQ(buffer.Next(), table->row(i));
  }
  EXPECT_EQ(buffer.Next(), nullptr);
  EXPECT_EQ(buffer.buffer_size(), 64u);
  buffer.Close();
}

TEST(BufferOperatorTest, ResizeThenRescanStillReplaysIdentically) {
  // Satellite: a pending Resize must not invalidate the Rescan replay — the
  // pending capacity only applies at a refill, which a replayed
  // (single-refill, fully buffered) stream never performs.
  auto table = SequentialTable(50);
  BufferOperator buffer(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 100);
  ExecContext ctx;
  ASSERT_TRUE(buffer.Open(&ctx).ok());
  for (int i = 0; i < 50; ++i) ASSERT_EQ(buffer.Next(), table->row(i));
  EXPECT_EQ(buffer.Next(), nullptr);
  buffer.Resize(5);
  ASSERT_TRUE(buffer.Rescan().ok());
  EXPECT_EQ(buffer.replays(), 1u);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(buffer.Next(), table->row(static_cast<size_t>(i)))
        << "replayed tuple " << i;
  }
  EXPECT_EQ(buffer.Next(), nullptr);
  EXPECT_EQ(buffer.refills(), 1u);  // the child still ran exactly once
  buffer.Close();
}

TEST(BufferOperatorTest, ResizeUnderContractCheckerWithSlicePoisoning) {
  // Satellite: drive the batch path through the contract checker while
  // resizing mid-stream. Every NextBatch() poisons the previous slice, so
  // this fails loudly if a resize ever served a stale window; meanwhile the
  // delivered values must stay the full stream in order.
  auto table = SequentialTable(60);
  auto buffer = std::make_unique<BufferOperator>(
      std::make_unique<SeqScanOperator>(table.get(), nullptr), 7);
  BufferOperator* raw = buffer.get();
  ContractCheckedOperator checked(std::move(buffer));
  ExecContext ctx;
  ASSERT_TRUE(checked.Open(&ctx).ok());
  const uint8_t* slice[4];
  std::vector<int64_t> seen;
  bool resized = false;
  while (size_t n = checked.NextBatch(slice, 4)) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_NE(slice[i], ContractCheckedOperator::PoisonPointer());
      seen.push_back(TupleView(slice[i], &table->schema()).GetInt64(0));
    }
    if (!resized && seen.size() >= 20) {
      raw->Resize(3);
      resized = true;
    }
  }
  // The final call (returning 0) poisoned the last handed-out slice.
  EXPECT_EQ(slice[0], ContractCheckedOperator::PoisonPointer());
  ASSERT_EQ(seen.size(), 60u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<int64_t>(i));
  }
  EXPECT_EQ(raw->buffer_size(), 3u);
  checked.Close();
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

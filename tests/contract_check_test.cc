// Tests for the ContractCheckedOperator debug wrapper (DESIGN.md section 9.2).
//
// This translation unit force-enables checking regardless of build type, so
// every violation class is exercised in Release CI too; the companion TU
// contract_check_release_ut.cc force-disables it and proves the wrapper
// macro compiles out to the identity expression.
#ifndef BUFFERDB_CHECK_CONTRACTS
#define BUFFERDB_CHECK_CONTRACTS
#endif
#include "exec/contract_check.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "exec/aggregation.h"
#include "exec/column_scan.h"
#include "exec/row_batch_decoder.h"
#include "exec/seq_scan.h"
#include "storage/column_table.h"
#include "test_util.h"

namespace bufferdb {
namespace {

// Minimal well-behaved operator: emits `rows` copies of a static payload.
// Self-contained so the wrapper tests do not depend on scan internals.
class CountingOp final : public Operator {
 public:
  explicit CountingOp(size_t rows, bool fail_open = false)
      : schema_({{"k", DataType::kInt64}}),
        rows_(rows),
        fail_open_(fail_open) {}

  [[nodiscard]] Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    emitted_ = 0;
    if (fail_open_) return Status::Internal("CountingOp told to fail Open");
    return Status::OK();
  }
  const uint8_t* Next() override {
    if (emitted_ >= rows_) return nullptr;
    ++emitted_;
    return payload_;
  }
  void Close() override {}
  const Schema& output_schema() const override { return schema_; }
  sim::ModuleId module_id() const override { return sim::ModuleId::kSeqScan; }

 private:
  Schema schema_;
  size_t rows_;
  bool fail_open_;
  size_t emitted_ = 0;
  uint8_t payload_[8] = {0};
};

OperatorPtr Checked(size_t rows, bool fail_open = false) {
  return std::make_unique<ContractCheckedOperator>(
      std::make_unique<CountingOp>(rows, fail_open));
}

TEST(ContractCheckTest, NextBeforeOpenThrows) {
  auto op = Checked(3);
  EXPECT_THROW(op->Next(), ContractViolation);
}

TEST(ContractCheckTest, NextBatchBeforeOpenThrows) {
  auto op = Checked(3);
  const uint8_t* out[4];
  EXPECT_THROW(op->NextBatch(out, 4), ContractViolation);
}

TEST(ContractCheckTest, RescanBeforeOpenThrows) {
  auto op = Checked(3);
  EXPECT_THROW({ Status st = op->Rescan(); (void)st; }, ContractViolation);
}

TEST(ContractCheckTest, CloseBeforeOpenThrows) {
  auto op = Checked(3);
  EXPECT_THROW(op->Close(), ContractViolation);
}

TEST(ContractCheckTest, UseAfterCloseThrows) {
  auto op = Checked(3);
  ExecContext ctx;
  ASSERT_TRUE(op->Open(&ctx).ok());
  op->Close();
  EXPECT_THROW(op->Next(), ContractViolation);
  const uint8_t* out[4];
  EXPECT_THROW(op->NextBatch(out, 4), ContractViolation);
  EXPECT_THROW({ Status st = op->Rescan(); (void)st; }, ContractViolation);
}

TEST(ContractCheckTest, DoubleOpenThrows) {
  auto op = Checked(3);
  ExecContext ctx;
  ASSERT_TRUE(op->Open(&ctx).ok());
  EXPECT_THROW({ Status st = op->Open(&ctx); (void)st; }, ContractViolation);
  op->Close();
}

TEST(ContractCheckTest, DoubleCloseThrows) {
  auto op = Checked(3);
  ExecContext ctx;
  ASSERT_TRUE(op->Open(&ctx).ok());
  op->Close();
  EXPECT_THROW(op->Close(), ContractViolation);
}

TEST(ContractCheckTest, ReopenAfterCloseIsLegal) {
  auto op = Checked(2);
  ExecContext ctx;
  ASSERT_TRUE(op->Open(&ctx).ok());
  EXPECT_NE(op->Next(), nullptr);
  op->Close();
  ASSERT_TRUE(op->Open(&ctx).ok());
  EXPECT_NE(op->Next(), nullptr);
  op->Close();
}

TEST(ContractCheckTest, FailedOpenDoesNotOpen) {
  auto op = Checked(3, /*fail_open=*/true);
  ExecContext ctx;
  Status st = op->Open(&ctx);
  EXPECT_FALSE(st.ok());
  // The operator never reached the open state, so pulling is a violation.
  EXPECT_THROW(op->Next(), ContractViolation);
}

TEST(ContractCheckTest, StaleBatchSliceIsPoisoned) {
  auto op = Checked(8);
  ExecContext ctx;
  ASSERT_TRUE(op->Open(&ctx).ok());

  const uint8_t* out[4] = {nullptr, nullptr, nullptr, nullptr};
  size_t n1 = op->NextBatch(out, 4);
  ASSERT_EQ(n1, 4u);
  const uint8_t* live = out[0];
  EXPECT_NE(live, ContractCheckedOperator::PoisonPointer());

  // The second transfer call must poison the previous slice in place:
  // anyone still reading the old out[] entries sees the poison pointer,
  // not a stale (reused) row.
  const uint8_t* out2[4];
  size_t n2 = op->NextBatch(out2, 4);
  ASSERT_EQ(n2, 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], ContractCheckedOperator::PoisonPointer())
        << "stale slice entry " << i << " was not poisoned";
  }
  op->Close();
}

TEST(ContractCheckTest, NextAlsoPoisonsPreviousSlice) {
  auto op = Checked(8);
  ExecContext ctx;
  ASSERT_TRUE(op->Open(&ctx).ok());
  const uint8_t* out[2] = {nullptr, nullptr};
  ASSERT_EQ(op->NextBatch(out, 2), 2u);
  EXPECT_NE(op->Next(), nullptr);
  EXPECT_EQ(out[0], ContractCheckedOperator::PoisonPointer());
  EXPECT_EQ(out[1], ContractCheckedOperator::PoisonPointer());
  op->Close();
}

TEST(ContractCheckTest, WrappedPlanProducesSameRows) {
  auto table = testutil::MakeKvTable("t", {{1, 1.0}, {2, 2.0}, {3, 3.0}});
  auto scan = std::make_unique<SeqScanOperator>(table.get(), nullptr);
  OperatorPtr wrapped = BUFFERDB_WRAP_CONTRACT_CHECKED(std::move(scan));
  EXPECT_EQ(wrapped->label(), "ContractChecked(" +
                                  wrapped->child(0)->label() + ")");
  auto rows = testutil::RunPlan(wrapped.get());
  EXPECT_EQ(rows.size(), 3u);
}

// Passes its scan's rows through and publishes column k decoded from
// them, with lane i taken from row i + `shift` (wrapping) and a row count
// `extra` above the batch's.
class PublishingOp final : public Operator {
 public:
  PublishingOp(OperatorPtr scan, size_t shift, size_t extra)
      : shift_(shift), extra_(extra) {
    AddChild(std::move(scan));
  }
  [[nodiscard]] Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    return child(0)->Open(ctx);
  }
  const uint8_t* Next() override { return child(0)->Next(); }
  size_t NextBatch(const uint8_t** out, size_t max) override {
    const size_t n = child(0)->NextBatch(out, max);
    std::vector<const uint8_t*> shifted(n);
    for (size_t i = 0; i < n; ++i) shifted[i] = out[(i + shift_) % n];
    const int k[] = {0};
    RowBatchDecoder::Decode(shifted.data(), n, output_schema(), k, &published_);
    published_.set_rows(n + extra_);
    return n;
  }
  void Close() override { child(0)->Close(); }
  const VectorBatch* BatchColumns() const override { return &published_; }
  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return sim::ModuleId::kSeqScan; }

 private:
  size_t shift_;
  size_t extra_;
  VectorBatch published_;
};

// Drains `op` through NextBatch in batches of 4.
void DrainBatches(Operator* op) {
  ExecContext ctx;
  ASSERT_TRUE(op->Open(&ctx).ok());
  const uint8_t* out[4];
  while (op->NextBatch(out, 4) != 0) {
  }
  op->Close();
}

TEST(ContractCheckTest, PublishedColumnsMustMatchTheRows) {
  auto table = testutil::MakeKvTable(
      "t", {{1, 1.0}, {2, 2.0}, {3, 3.0}, {4, 4.0}, {5, 5.0}, {6, 6.0}});
  auto checked = [&](size_t shift, size_t extra) {
    return std::make_unique<ContractCheckedOperator>(
        std::make_unique<PublishingOp>(
            std::make_unique<SeqScanOperator>(table.get(), nullptr), shift,
            extra));
  };
  // Lanes equal to the rows pass.
  auto good = checked(0, 0);
  DrainBatches(good.get());
  // A lane shifted by one row, and a count that is not the batch's, throw.
  auto shifted = checked(1, 0);
  EXPECT_THROW(DrainBatches(shifted.get()), ContractViolation);
  auto stale = checked(0, 1);
  EXPECT_THROW(DrainBatches(stale.get()), ContractViolation);
}

// The wrapper forwards BatchColumns(), so a batched aggregate above a
// wrapped ColumnScan reads the scan's published vectors, as it does
// unwrapped, and the checker checks them.
TEST(ContractCheckTest, AggregateOverWrappedColumnScanSeesItsColumns) {
  std::vector<std::pair<int64_t, double>> rows;
  for (int64_t i = 0; i < 1000; ++i) {
    rows.emplace_back(i % 13, static_cast<double>(i) / 4);
  }
  auto table = testutil::MakeKvTable("t", rows);
  table->AttachColumnar(ColumnarTable::Build(*table));
  const Schema& s = table->schema();
  std::vector<std::vector<Value>> answers;
  for (bool wrapped : {false, true}) {
    auto scan = std::make_unique<ColumnScanOperator>(
        table.get(), testutil::Bin(BinaryOp::kLt, testutil::Col(s, "k"),
                                   testutil::Lit(Value::Int64(9))));
    scan->set_published_columns({0, 1});
    const ColumnScanOperator* raw = scan.get();
    OperatorPtr input = std::move(scan);
    if (wrapped) {
      input = std::make_unique<ContractCheckedOperator>(std::move(input));
    }
    Operator* checked = input.get();
    std::vector<AggSpec> specs;
    specs.push_back(AggSpec{AggFunc::kSum, testutil::Col(s, "v"), "sum_v"});
    specs.push_back(AggSpec{AggFunc::kMax, testutil::Col(s, "k"), "max_k"});
    AggregationOperator agg(std::move(input), std::move(specs));
    agg.set_batch_size(Operator::kDefaultBatchSize);
    ExecContext ctx;
    ASSERT_TRUE(agg.Open(&ctx).ok());
    const uint8_t* row = agg.Next();
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(checked->BatchColumns(), raw->BatchColumns());
    TupleView view(row, &agg.output_schema());
    answers.push_back({view.GetValue(0), view.GetValue(1)});
    agg.Close();
  }
  EXPECT_TRUE(answers[0][0] == answers[1][0]);
  EXPECT_TRUE(answers[0][1] == answers[1][1]);
}

TEST(ContractCheckTest, MacroWrapsWhenCheckingEnabled) {
  // This TU defines BUFFERDB_CHECK_CONTRACTS, so the macro must wrap.
  OperatorPtr op = BUFFERDB_WRAP_CONTRACT_CHECKED(
      std::make_unique<CountingOp>(1));
  EXPECT_NE(dynamic_cast<ContractCheckedOperator*>(op.get()), nullptr);
}

}  // namespace
}  // namespace bufferdb

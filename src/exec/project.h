#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/row_batch_decoder.h"
#include "expr/expression.h"
#include "expr/vector_eval.h"

namespace bufferdb {

struct ProjectItem {
  ExprPtr expr;
  std::string output_name;
};

/// Computes a list of expressions per input tuple, materializing the result
/// row into the query arena. When every item is a bare column reference the
/// row is a slot copy (TupleBuilder::CopyColumns) and the interpreter never
/// runs.
class ProjectOperator final : public Operator {
 public:
  ProjectOperator(OperatorPtr child, std::vector<ProjectItem> items);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  /// Batch fast path. A bare-column projection copies each row's slots, as
  /// Next() does, and requests and publishes nothing. Otherwise, when every
  /// item compiled to a kernel program, the batch is decoded once (union of
  /// all programs' input columns, requested from the child), each program
  /// runs column-at-a-time, and the output rows are materialized from the
  /// result vectors into one arena block — no TupleBuilder, no Value
  /// boxing. Any other projection runs the per-tuple interpreter with the
  /// schema lookup and TupleBuilder hoisted out of the loop.
  size_t NextBatch(const uint8_t** out, size_t max) override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override { return sim::ModuleId::kProject; }
  std::string label() const override { return "Project"; }

  /// The result vectors of the last vectorized batch, keyed by OUTPUT
  /// column index — a consumer evaluating expressions over this operator's
  /// output aliases them instead of decoding the materialized rows.
  const VectorBatch* BatchColumns() const override { return &published_; }

 private:
  /// Aliases results_ into published_ for the `n` rows just produced.
  void PublishResults(size_t n);

  std::vector<ProjectItem> items_;
  Schema output_schema_;
  // The input column of each item when every item is a bare column
  // reference; empty otherwise.
  std::vector<int> copy_columns_;
  // One program per item when the projection computes something and ALL
  // items compiled; empty otherwise (all-or-nothing, so a batch is either
  // fully vectorized or fully interpreted).
  std::vector<std::unique_ptr<CompiledExpr>> compiled_;
  std::vector<int> decode_cols_;  // Union of the programs' input columns.
  std::vector<const uint8_t*> in_batch_;  // NextBatch scratch.
  VectorBatch vbatch_;
  VectorBatch published_;  // BatchColumns() payload.
  std::vector<const ColumnVector*> results_;
  bool requested_ = false;  // The child has this Open's request.
};

}  // namespace bufferdb

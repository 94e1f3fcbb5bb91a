#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/row_batch_decoder.h"
#include "expr/expression.h"
#include "expr/vector_eval.h"

namespace bufferdb {

/// Standalone selection: passes through rows for which `predicate` is
/// non-NULL true. Used by the planner for HAVING clauses and predicates
/// that cannot be pushed into a scan.
class FilterOperator final : public Operator {
 public:
  FilterOperator(OperatorPtr child, ExprPtr predicate);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  /// Batch fast path: pulls whole batches from the child and selects the
  /// survivors column-at-a-time when the predicate compiled (decode →
  /// RunFilter), else with the per-row interpreter (SelectRows); either
  /// selection is gathered through one tail.
  size_t NextBatch(const uint8_t** out, size_t max) override;

  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return sim::ModuleId::kFilter; }
  std::string label() const override;

  /// Survivor-compacted predicate columns of the last vectorized batch, so
  /// a consumer (Project, joins) re-reading those columns aliases them
  /// instead of re-decoding the rows.
  const VectorBatch* BatchColumns() const override { return &published_; }

 private:
  /// Gathers sel_ survivors of the predicate's input columns from vbatch_
  /// into published_.
  void PublishCompacted();

  ExprPtr predicate_;
  std::unique_ptr<CompiledExpr> compiled_;  // Compiled once, at plan time.
  std::vector<const uint8_t*> in_batch_;    // NextBatch scratch.
  VectorBatch vbatch_;
  VectorBatch published_;  // BatchColumns() payload.
  SelectionVector sel_;
};

}  // namespace bufferdb

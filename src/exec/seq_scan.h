#pragma once

#include <memory>
#include <string>

#include "exec/operator.h"
#include "expr/expression.h"
#include "expr/vector.h"
#include "expr/vector_eval.h"
#include "parallel/morsel.h"
#include "storage/table.h"

namespace bufferdb {

/// Full-table scan with an optional predicate evaluated per row (the paper's
/// "Scan with predicates" vs "Scan without predicates" modules, Table 2).
/// Output schema is the table schema; rows are returned in place (no copy).
///
/// In *morsel mode* (BindMorselCursor) the scan no longer walks the whole
/// table: it repeatedly claims fixed-size row ranges from a shared
/// parallel::MorselCursor and scans only those, so N scan clones bound to
/// one cursor partition the table dynamically across worker threads.
class SeqScanOperator final : public Operator {
 public:
  /// `predicate` may be null. It must be bound to the table schema.
  SeqScanOperator(Table* table, ExprPtr predicate);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;
  [[nodiscard]] Status Rescan() override;

  /// Batch fast path: gathers up to `max` rows in one tight loop over the
  /// table and, with a predicate, selects the survivors through the compiled
  /// program or the per-row interpreter (SelectRows), instead of returning
  /// through a virtual call per row.
  size_t NextBatch(const uint8_t** out, size_t max) override;

  const Schema& output_schema() const override { return table_->schema(); }
  sim::ModuleId module_id() const override {
    return predicate_ ? sim::ModuleId::kSeqScanFiltered
                      : sim::ModuleId::kSeqScan;
  }
  std::string label() const override;

  Table* table() const { return table_; }
  const Expression* predicate() const { return predicate_.get(); }

  /// Switches to morsel mode. `cursor` must range over this table's rows
  /// and outlive the operator; the caller (ExchangeOperator) resets it
  /// between executions. Pass null to return to full-table mode.
  void BindMorselCursor(parallel::MorselCursor* cursor) { range_.Bind(cursor); }
  bool morsel_mode() const { return range_.morsel_mode(); }

 private:
  Table* table_;
  ExprPtr predicate_;
  std::unique_ptr<CompiledExpr> compiled_;  // Null when no/uncompilable pred.
  VectorBatch vbatch_;
  SelectionVector sel_;
  parallel::RowRange range_;
};

}  // namespace bufferdb


#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "expr/expression.h"
#include "expr/vector.h"
#include "expr/vector_eval.h"
#include "parallel/morsel.h"
#include "storage/column_table.h"
#include "storage/table.h"

namespace bufferdb {

/// Batch-native scan over a table's columnar image (DESIGN.md §12). Emits
/// the same packed-row pointers as SeqScan — the batch currency between
/// operators is unchanged — but fills its predicate's VectorBatch by
/// pointer-aliasing the columnar segments instead of decoding rows (zero
/// copy, zero decode), prunes whole ~4K-row blocks via zone maps against
/// the predicate's column tests (MatchColumnTests, whether or not the rest
/// of the predicate compiled), and evaluates string predicates on
/// dictionary codes in the vectorized engine. A predicate that did not
/// compile selects each run through the per-row interpreter (SelectRows);
/// the run is returned and published the same way.
///
/// It publishes the columns its consumer reads through BatchColumns(), so
/// that consumer (an aggregate, a join's key loop, a Project) decodes none
/// of them: published_columns(), which the planner sets to the non-string
/// columns of the table that anything above a single-table scan reads, to
/// the same below an index join that a scalar aggregate asks for columns
/// (the join copies them), or to the join key below any other join. When
/// every row of a run passes, the published vectors alias the segments;
/// otherwise they are gathered from the segments by the selection. Until
/// set_published_columns names some, a scan publishes none.
///
/// Each NextBatch() return is one contiguous run of table rows (possibly
/// shorter than `max`; the NextBatch contract allows that), because only a
/// contiguous run can alias contiguous segment storage. In morsel mode
/// (BindMorselCursor) runs additionally stay inside claimed morsels,
/// exactly like SeqScan.
///
/// NextBatch() is the only scan loop. Next() refills a staging array
/// through it and hands the rows out one at a time, so a per-tuple parent
/// (Buffer, Sort, scalar Aggregation, an Exchange worker) still gets zone
/// maps and the compiled predicate.
class ColumnScanOperator final : public Operator {
 public:
  /// `table` must carry a columnar image (Table::columnar() != nullptr);
  /// `predicate` may be null and must be bound to the table schema.
  ColumnScanOperator(Table* table, ExprPtr predicate);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;
  [[nodiscard]] Status Rescan() override;
  size_t NextBatch(const uint8_t** out, size_t max) override;

  const VectorBatch* BatchColumns() const override { return &published_; }

  const Schema& output_schema() const override { return table_->schema(); }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kColumnScan;
  }
  std::string label() const override;

  Table* table() const { return table_; }
  /// Non-null when the predicate compiled (dictionary-aware; string
  /// equality/LIKE-prefix compile here even though they never do for
  /// SeqScan).
  const CompiledExpr* compiled_predicate() const { return compiled_.get(); }

  /// The columns NextBatch publishes; each must be a non-string column of
  /// the table.
  void set_published_columns(std::vector<int> columns);
  const std::vector<int>& published_columns() const { return published_cols_; }

  /// Zone blocks skipped in the current execution (test hook).
  uint64_t blocks_pruned() const { return blocks_pruned_; }

  /// Morsel mode, identical to SeqScanOperator::BindMorselCursor.
  void BindMorselCursor(parallel::MorselCursor* cursor) { morsels_ = cursor; }
  bool morsel_mode() const { return morsels_ != nullptr; }

 private:
  /// True when block `block` cannot contain a qualifying row.
  bool BlockPruned(size_t block) const;
  /// Advances pos_ past pruned blocks / exhausted morsels; returns false at
  /// end of stream. On true, [pos_, pos_ + *run) is the longest contiguous
  /// unpruned run with *run <= max.
  bool ClaimRun(size_t max, size_t* run);
  /// Points `vec` at rows [pos_, pos_ + n) of non-string column `col`'s
  /// segment and charges reading them.
  void AliasSegment(int col, size_t n, ColumnVector* vec);
  /// Points vbatch_ (predicate inputs) at segment storage for rows
  /// [pos_, pos_ + n), widening dictionary codes where flagged.
  void FillPredicateInputs(size_t n);
  /// Publishes the `count` rows returned from the run [pos_, pos_ + run):
  /// every row aliases the segments, fewer are sel_'s survivors, gathered
  /// from them.
  void Publish(size_t run, size_t count);

  Table* table_;
  const ColumnarTable* columnar_;
  ExprPtr predicate_;
  std::unique_ptr<CompiledExpr> compiled_;  // Null when no/uncompilable pred.
  std::vector<ColumnTest> zone_tests_;      // The predicate's column tests.
  VectorBatch vbatch_;     // Predicate inputs (aliased or widened codes).
  std::vector<int> published_cols_;
  VectorBatch published_;  // BatchColumns() payload.
  SelectionVector sel_;
  // Rows of the last NextBatch() that Next() pulled; [stage_pos_, stage_n_)
  // are not yet returned.
  std::array<const uint8_t*, kDefaultBatchSize> stage_{};
  size_t stage_pos_ = 0;
  size_t stage_n_ = 0;
  parallel::MorselCursor* morsels_ = nullptr;
  size_t pos_ = 0;
  size_t limit_ = 0;  // End of the current morsel (or of the table).
  uint64_t blocks_pruned_ = 0;
};

}  // namespace bufferdb

#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/index_scan.h"
#include "exec/operator.h"
#include "expr/expression.h"
#include "expr/vector.h"
#include "expr/vector_eval.h"

namespace bufferdb {

/// Naive nested-loop join: rescans the inner child for every outer tuple and
/// applies `join_predicate` to the concatenated row. The inner child should
/// be cheap to rescan (e.g. a Materialize). Used for small inputs and as a
/// correctness oracle in tests.
class NestLoopJoinOperator final : public Operator {
 public:
  NestLoopJoinOperator(OperatorPtr outer, OperatorPtr inner,
                       ExprPtr join_predicate);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kNestLoopJoin;
  }
  std::string label() const override { return "NestLoop"; }

 private:
  ExprPtr join_predicate_;
  Schema output_schema_;
  const uint8_t* outer_row_ = nullptr;
  bool need_outer_ = true;
};

/// Index nested-loop join, the paper's Fig. 15 plan: for each outer tuple,
/// binds the join key on the inner IndexScan and drains the matches. When
/// the planner knows the inner is a key lookup ("the optimizer knows that at
/// most one row matches each outer tuple"), it marks the inner operator as
/// excluded from buffering (§6). `columns` (optional) narrows the output
/// row to those columns of Concat(outer, inner), as in HashJoinOperator.
///
/// Next() is the paper's per-tuple path. NextBatch() pulls a whole outer
/// batch, evaluates its keys column at a time, probes each non-NULL key
/// through the inner scan's SeekEqual (a key equal to or just above the
/// previous one walks on from where that key's entries begin) and leaf
/// walk, runs the inner residual once over all candidate matches of the
/// output batch and writes the survivors' joined rows. Outer rows a
/// NextBatch pulled but did not probe yet are the next ones Next() takes,
/// and a key either call left half drained is finished by the other, so
/// the two calls may be mixed.
///
/// After a request without rows (RequestColumns) NextBatch() writes no
/// joined row: it publishes the requested columns instead, outer ones
/// copied from the outer batch's published (or decoded) vectors at each
/// match's outer lane as its key's matches are found, inner ones decoded
/// from the matched leaf rows. Before its first outer pull after Open or a
/// request, NextBatch() requests from the outer input the columns it reads
/// there: the compiled key's inputs and, without rows, the requested outer
/// columns.
class IndexNestLoopJoinOperator final : public Operator {
 public:
  IndexNestLoopJoinOperator(OperatorPtr outer,
                            std::unique_ptr<IndexScanOperator> inner,
                            ExprPtr outer_key_expr,
                            std::vector<int> columns = {});

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  size_t NextBatch(const uint8_t** out, size_t max) override;
  void Close() override;

  /// Omits the rows for a request without rows of non-string output
  /// columns; declines any other.
  bool RequestColumns(std::span<const int> columns, bool rows) override;
  /// The requested columns of the last NextBatch, or nullptr while the
  /// join writes rows.
  const VectorBatch* BatchColumns() const override {
    return omit_rows_ ? &published_ : nullptr;
  }

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kNestLoopJoin;
  }
  std::string label() const override { return "NestLoop(indexed)"; }

  /// Whether NextBatch writes joined rows (no request omitted them since
  /// Open), and the output columns it publishes when it does not.
  bool builds_rows() const { return !omit_rows_; }
  const std::vector<int>& published_columns() const { return publish_cols_; }

 private:
  /// Pulls the next outer batch and evaluates its keys; false at the end
  /// of the outer stream.
  bool FetchOuterBatch();
  /// Copies the requested outer columns of outer_lane_ into stage lanes
  /// [at, at + count), the current key's next matches.
  void StageOuter(size_t at, size_t count);
  /// Publishes the requested columns of the `kept` matches that sel_
  /// selects out of the `n` candidates in match_inner_/outer_stage_.
  void PublishMatches(size_t n, size_t kept);

  ExprPtr outer_key_expr_;
  std::unique_ptr<CompiledExpr> key_compiled_;  // Null -> interpreter.
  std::vector<int> columns_;
  Schema output_schema_;
  IndexScanOperator* inner_scan_ = nullptr;  // Alias of child(1).
  const uint8_t* outer_row_ = nullptr;
  bool need_outer_ = true;

  // NextBatch state, at most kDefaultBatchSize rows per call: outer rows
  // [outer_pos_, outer_n_) are pulled but not yet probed, and
  // match_outer_/match_inner_ pair the candidate matches of one output
  // batch.
  VectorBatch key_vbatch_;
  std::array<const uint8_t*, kDefaultBatchSize> outer_rows_{};
  std::array<int64_t, kDefaultBatchSize> outer_keys_{};
  std::array<uint8_t, kDefaultBatchSize> outer_valid_{};  // 0: NULL key.
  size_t outer_pos_ = 0;
  size_t outer_n_ = 0;
  uint32_t outer_lane_ = 0;  // outer_row_'s lane in the outer batch.
  std::array<const uint8_t*, kDefaultBatchSize> match_outer_{};
  std::array<const uint8_t*, kDefaultBatchSize> match_inner_{};
  SelectionVector sel_;

  // Row-free output (RequestColumns): the requested output columns, and
  // the outer and inner columns they come from.
  bool omit_rows_ = false;
  std::vector<int> publish_cols_;
  std::vector<int> outer_cols_;
  std::vector<int> inner_cols_;
  VectorBatch outer_vbatch_;  // outer_cols_ of the current outer batch.
  VectorBatch outer_stage_;   // outer_cols_ of the candidate matches.
  VectorBatch inner_vbatch_;  // inner_cols_ of the kept matches.
  VectorBatch published_;     // BatchColumns() payload.
  bool outer_requested_ = false;  // The outer input has this answer's request.
};

}  // namespace bufferdb


#pragma once

#include <array>
#include <memory>
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
/// through the inner scan's own descent and leaf walk (a key equal to the
/// previous one restarts where its entries begin), runs the inner residual
/// once over all candidate matches of the output batch and writes the
/// survivors' joined rows. Outer rows a NextBatch pulled but did not probe
/// yet are the next ones Next() takes, and a key either call left half
/// drained is finished by the other, so the two calls may be mixed.
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

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kNestLoopJoin;
  }
  std::string label() const override { return "NestLoop(indexed)"; }

 private:
  /// Pulls the next outer batch and evaluates its keys; false at the end
  /// of the outer stream.
  bool FetchOuterBatch();

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
  std::array<const uint8_t*, kDefaultBatchSize> match_outer_{};
  std::array<const uint8_t*, kDefaultBatchSize> match_inner_{};
  SelectionVector sel_;
};

}  // namespace bufferdb


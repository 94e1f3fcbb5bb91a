#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/index_scan.h"
#include "exec/operator.h"
#include "expr/expression.h"

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
class IndexNestLoopJoinOperator final : public Operator {
 public:
  IndexNestLoopJoinOperator(OperatorPtr outer,
                            std::unique_ptr<IndexScanOperator> inner,
                            ExprPtr outer_key_expr,
                            std::vector<int> columns = {});

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kNestLoopJoin;
  }
  std::string label() const override { return "NestLoop(indexed)"; }

 private:
  ExprPtr outer_key_expr_;
  std::vector<int> columns_;
  Schema output_schema_;
  IndexScanOperator* inner_scan_ = nullptr;  // Alias of child(1).
  const uint8_t* outer_row_ = nullptr;
  bool need_outer_ = true;
};

}  // namespace bufferdb


#pragma once

#include <memory>
#include <vector>

#include "exec/operator.h"
#include "expr/expression.h"

namespace bufferdb {

/// Equi merge-join over inputs sorted ascending on their key expressions
/// (NULL keys must not appear, or are skipped). Duplicate right-side key
/// groups are buffered in a small vector to produce the cross product.
/// Non-blocking on both inputs: it interleaves per tuple with both children,
/// which is why the paper's Fig. 17 plan buffers below it. `columns`
/// (optional) narrows the output row to those columns of Concat(left,
/// right), as in HashJoinOperator.
class MergeJoinOperator final : public Operator {
 public:
  MergeJoinOperator(OperatorPtr left, OperatorPtr right, ExprPtr left_key,
                    ExprPtr right_key, std::vector<int> columns = {});

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override { return sim::ModuleId::kMergeJoin; }
  std::string label() const override { return "MergeJoin"; }

 private:
  /// Fetches the next row with a non-null key from child `i` into
  /// *row/*key; returns false at end of input.
  bool Fetch(size_t i, const uint8_t** row, int64_t* key);

  ExprPtr left_key_;
  ExprPtr right_key_;
  std::vector<int> columns_;
  Schema output_schema_;

  const uint8_t* left_row_ = nullptr;
  int64_t left_key_value_ = 0;
  const uint8_t* right_row_ = nullptr;
  int64_t right_key_value_ = 0;
  bool left_done_ = false;
  bool right_done_ = false;
  bool left_primed_ = false;
  bool right_primed_ = false;

  // Current equal-key group of right rows being cross-joined.
  std::vector<const uint8_t*> right_group_;
  int64_t group_key_ = 0;
  size_t group_pos_ = 0;
  bool emitting_ = false;
};

}  // namespace bufferdb


#include "exec/merge_join.h"

#include "storage/tuple.h"

namespace bufferdb {

MergeJoinOperator::MergeJoinOperator(OperatorPtr left, OperatorPtr right,
                                     ExprPtr left_key, ExprPtr right_key,
                                     std::vector<int> columns)
    : left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      columns_(std::move(columns)) {
  output_schema_ = Schema::Concat(left->output_schema(),
                                  right->output_schema(), columns_);
  AddChild(std::move(left));
  AddChild(std::move(right));
  InitHotFuncs(module_id());
}

Status MergeJoinOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  left_row_ = right_row_ = nullptr;
  left_done_ = right_done_ = false;
  left_primed_ = right_primed_ = false;
  right_group_.clear();
  emitting_ = false;
  BUFFERDB_RETURN_IF_ERROR(child(0)->Open(ctx));
  return child(1)->Open(ctx);
}

bool MergeJoinOperator::Fetch(size_t i, const uint8_t** row, int64_t* key) {
  Operator* c = child(i);
  const Schema& schema = c->output_schema();
  const Expression& key_expr = i == 0 ? *left_key_ : *right_key_;
  while (const uint8_t* r = c->Next()) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    Value v = key_expr.Evaluate(TupleView(r, &schema));
    if (v.is_null()) continue;
    *row = r;
    *key = v.int64_value();
    return true;
  }
  ctx_->ExecModule(module_id(), hot_funcs_);
  return false;
}

const uint8_t* MergeJoinOperator::Next() {
  const Schema& left_schema = child(0)->output_schema();
  const Schema& right_schema = child(1)->output_schema();
  while (true) {
    if (emitting_) {
      if (group_pos_ < right_group_.size()) {
        ctx_->ExecModule(module_id(), hot_funcs_);
        const uint8_t* combined = TupleBuilder::ConcatRows(
            output_schema_, left_schema, left_row_, right_schema,
            right_group_[group_pos_++], &ctx_->arena, columns_);
        ctx_->Touch(combined, TupleView(combined, &output_schema_).size_bytes());
        return combined;
      }
      // Group exhausted for this left row; advance left.
      if (!Fetch(0, &left_row_, &left_key_value_)) {
        left_done_ = true;
        return nullptr;
      }
      if (left_key_value_ == group_key_) {
        group_pos_ = 0;  // Same key: replay the right group.
        continue;
      }
      emitting_ = false;
      right_group_.clear();
      continue;
    }

    if (!left_primed_) {
      left_primed_ = true;
      if (!Fetch(0, &left_row_, &left_key_value_)) left_done_ = true;
    }
    if (!right_primed_) {
      right_primed_ = true;
      if (!Fetch(1, &right_row_, &right_key_value_)) right_done_ = true;
    }
    if (left_done_ || right_done_) return nullptr;

    if (left_key_value_ < right_key_value_) {
      if (!Fetch(0, &left_row_, &left_key_value_)) {
        left_done_ = true;
        return nullptr;
      }
      continue;
    }
    if (left_key_value_ > right_key_value_) {
      if (!Fetch(1, &right_row_, &right_key_value_)) {
        right_done_ = true;
        return nullptr;
      }
      continue;
    }
    // Keys equal: gather the full right group for this key.
    group_key_ = left_key_value_;
    right_group_.clear();
    while (!right_done_ && right_key_value_ == group_key_) {
      // LINT: allow-alloc(group gather; capacity reused across groups)
      right_group_.push_back(right_row_);
      if (!Fetch(1, &right_row_, &right_key_value_)) right_done_ = true;
    }
    group_pos_ = 0;
    emitting_ = true;
  }
}

void MergeJoinOperator::Close() {
  right_group_.clear();
  child(0)->Close();
  child(1)->Close();
}

}  // namespace bufferdb

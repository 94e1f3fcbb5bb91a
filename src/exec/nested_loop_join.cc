#include "exec/nested_loop_join.h"

#include "expr/evaluator.h"
#include "storage/tuple.h"

namespace bufferdb {

NestLoopJoinOperator::NestLoopJoinOperator(OperatorPtr outer, OperatorPtr inner,
                                           ExprPtr join_predicate)
    : join_predicate_(std::move(join_predicate)) {
  output_schema_ =
      Schema::Concat(outer->output_schema(), inner->output_schema());
  AddChild(std::move(outer));
  AddChild(std::move(inner));
  InitHotFuncs(module_id());
  if (join_predicate_ != nullptr) AddHotFunc(sim::FuncId::kExprCmp);
}

Status NestLoopJoinOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  need_outer_ = true;
  outer_row_ = nullptr;
  BUFFERDB_RETURN_IF_ERROR(child(0)->Open(ctx));
  return child(1)->Open(ctx);
}

const uint8_t* NestLoopJoinOperator::Next() {
  const Schema& outer_schema = child(0)->output_schema();
  const Schema& inner_schema = child(1)->output_schema();
  while (true) {
    if (need_outer_) {
      ctx_->ExecModule(module_id(), hot_funcs_);
      outer_row_ = child(0)->Next();
      if (outer_row_ == nullptr) return nullptr;
      Status st = child(1)->Rescan();
      if (!st.ok()) {
        ctx_->RecordError(std::move(st));
        return nullptr;
      }
      need_outer_ = false;
    }
    const uint8_t* inner_row = child(1)->Next();
    if (inner_row == nullptr) {
      need_outer_ = true;
      continue;
    }
    ctx_->ExecModule(module_id(), hot_funcs_);
    const uint8_t* combined =
        TupleBuilder::ConcatRows(output_schema_, outer_schema, outer_row_,
                                 inner_schema, inner_row, &ctx_->arena);
    TupleView view(combined, &output_schema_);
    ctx_->Touch(combined, view.size_bytes());
    if (join_predicate_ == nullptr ||
        EvaluatePredicate(*join_predicate_, view)) {
      return combined;
    }
  }
}

void NestLoopJoinOperator::Close() {
  child(0)->Close();
  child(1)->Close();
}

IndexNestLoopJoinOperator::IndexNestLoopJoinOperator(
    OperatorPtr outer, std::unique_ptr<IndexScanOperator> inner,
    ExprPtr outer_key_expr, std::vector<int> columns)
    : outer_key_expr_(std::move(outer_key_expr)), columns_(std::move(columns)) {
  output_schema_ = Schema::Concat(outer->output_schema(),
                                  inner->output_schema(), columns_);
  inner_scan_ = inner.get();
  AddChild(std::move(outer));
  AddChild(std::move(inner));
  InitHotFuncs(module_id());
}

Status IndexNestLoopJoinOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  need_outer_ = true;
  outer_row_ = nullptr;
  BUFFERDB_RETURN_IF_ERROR(child(0)->Open(ctx));
  return child(1)->Open(ctx);
}

const uint8_t* IndexNestLoopJoinOperator::Next() {
  const Schema& outer_schema = child(0)->output_schema();
  const Schema& inner_schema = child(1)->output_schema();
  while (true) {
    if (need_outer_) {
      ctx_->ExecModule(module_id(), hot_funcs_);
      outer_row_ = child(0)->Next();
      if (outer_row_ == nullptr) return nullptr;
      TupleView outer_view(outer_row_, &outer_schema);
      Value key = outer_key_expr_->Evaluate(outer_view);
      if (key.is_null()) continue;  // NULL keys never join.
      inner_scan_->BindEqualKey(key.int64_value());
      Status st = inner_scan_->Rescan();
      if (!st.ok()) {
        ctx_->RecordError(std::move(st));
        return nullptr;
      }
      need_outer_ = false;
    }
    const uint8_t* inner_row = child(1)->Next();
    if (inner_row == nullptr) {
      need_outer_ = true;
      continue;
    }
    ctx_->ExecModule(module_id(), hot_funcs_);
    const uint8_t* combined =
        TupleBuilder::ConcatRows(output_schema_, outer_schema, outer_row_,
                                 inner_schema, inner_row, &ctx_->arena,
                                 columns_);
    ctx_->Touch(combined, TupleView(combined, &output_schema_).size_bytes());
    return combined;
  }
}

void IndexNestLoopJoinOperator::Close() {
  child(0)->Close();
  child(1)->Close();
}

}  // namespace bufferdb

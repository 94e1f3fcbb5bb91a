#include "exec/stream_aggregation.h"

#include "expr/evaluator.h"
#include "storage/tuple.h"

namespace bufferdb {

StreamAggregationOperator::StreamAggregationOperator(
    OperatorPtr child, std::vector<GroupKeyExpr> groups,
    std::vector<AggSpec> specs)
    : groups_(std::move(groups)), specs_(std::move(specs)) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
  std::vector<Column> cols;
  for (GroupKeyExpr& g : groups_) {
    g.expr = FoldConstants(std::move(g.expr));
    cols.push_back(Column{g.output_name, g.expr->result_type()});
  }
  for (AggSpec& spec : specs_) {
    if (spec.arg != nullptr) spec.arg = FoldConstants(std::move(spec.arg));
    AppendAggFuncs(spec.func, &hot_funcs_);
    DataType arg_type =
        spec.arg != nullptr ? spec.arg->result_type() : DataType::kInt64;
    cols.push_back(Column{spec.output_name, AggOutputType(spec.func, arg_type)});
  }
  output_schema_ = Schema(std::move(cols));
}

Status StreamAggregationOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  group_open_ = false;
  input_done_ = false;
  return child(0)->Open(ctx);
}

const uint8_t* StreamAggregationOperator::EmitGroup() {
  TupleBuilder builder(&output_schema_);
  size_t col = 0;
  for (const Value& v : current_keys_) builder.Set(col++, v);
  for (size_t i = 0; i < specs_.size(); ++i) {
    builder.Set(col, accs_[i].Final(specs_[i].func,
                                    output_schema_.column(col).type));
    ++col;
  }
  group_open_ = false;
  const uint8_t* out = builder.Finish(&ctx_->arena);
  ctx_->Touch(out, TupleView(out, &output_schema_).size_bytes());
  return out;
}

const uint8_t* StreamAggregationOperator::Next() {
  if (input_done_) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    return group_open_ ? EmitGroup() : nullptr;
  }
  const Schema& in_schema = child(0)->output_schema();
  std::vector<Value> keys(groups_.size());
  while (const uint8_t* row = child(0)->Next()) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    TupleView view(row, &in_schema);
    for (size_t i = 0; i < groups_.size(); ++i) {
      keys[i] = groups_[i].expr->Evaluate(view);
    }
    bool same_group = group_open_;
    if (same_group) {
      for (size_t i = 0; i < keys.size(); ++i) {
        if (!(keys[i] == current_keys_[i])) {
          same_group = false;
          break;
        }
      }
    }
    const uint8_t* finished = nullptr;
    if (group_open_ && !same_group) finished = EmitGroup();
    if (!same_group) {
      current_keys_ = keys;
      // LINT: allow-alloc(per-group accumulator reset within reserved
      // capacity; assign does not reallocate after the first group)
      accs_.assign(specs_.size(), AggAccumulator());
      group_open_ = true;
    }
    for (size_t i = 0; i < specs_.size(); ++i) {
      Value v =
          specs_[i].arg != nullptr ? specs_[i].arg->Evaluate(view) : Value();
      accs_[i].Update(specs_[i].func, v);
    }
    if (finished != nullptr) return finished;
  }
  ctx_->ExecModule(module_id(), hot_funcs_);
  input_done_ = true;
  return group_open_ ? EmitGroup() : nullptr;
}

void StreamAggregationOperator::Close() {
  group_open_ = false;
  input_done_ = false;
  child(0)->Close();
}

std::string StreamAggregationOperator::label() const {
  std::string out = "StreamAgg(by ";
  for (size_t i = 0; i < groups_.size(); ++i) {
    if (i > 0) out += ",";
    out += groups_[i].output_name;
  }
  out += ")";
  return out;
}

}  // namespace bufferdb

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

  // Compile group keys and aggregate arguments (all-or-nothing: the
  // vectorized path compares keys lane-wise from the result vectors).
  const Schema& in_schema = this->child(0)->output_schema();
  keys_compiled_ = true;
  for (const GroupKeyExpr& g : groups_) {
    group_compiled_.push_back(CompiledExpr::Compile(*g.expr, in_schema));
    keys_compiled_ = keys_compiled_ && group_compiled_.back() != nullptr;
  }
  for (const AggSpec& spec : specs_) {
    if (spec.arg == nullptr) {
      arg_compiled_.push_back(nullptr);  // COUNT(*) takes no argument.
      continue;
    }
    arg_compiled_.push_back(CompiledExpr::Compile(*spec.arg, in_schema));
    keys_compiled_ = keys_compiled_ && arg_compiled_.back() != nullptr;
  }
  if (keys_compiled_) {
    SetVectorBatchFuncs();
    for (const auto& programs : {&group_compiled_, &arg_compiled_}) {
      for (const auto& p : *programs) {
        if (p != nullptr) AddInputColumns(*p, &decode_cols_);
      }
    }
  } else {
    group_compiled_.clear();
    arg_compiled_.clear();
  }
  gvecs_.resize(group_compiled_.size());
  avecs_.resize(arg_compiled_.size());
  lane_keys_.resize(groups_.size());
}

Status StreamAggregationOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  group_open_ = false;
  input_done_ = false;
  pos_ = 0;
  count_ = 0;
  if (batch_size_ > 1) batch_rows_.resize(batch_size_);
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

const uint8_t* StreamAggregationOperator::NextVectorized() {
  if (input_done_) {
    ctx_->ExecModule(module_id(), hot_funcs_batched());
    return group_open_ ? EmitGroup() : nullptr;
  }
  const Schema& in_schema = child(0)->output_schema();
  for (;;) {
    if (pos_ >= count_) {
      count_ = child(0)->NextBatch(batch_rows_.data(), batch_size_);
      pos_ = 0;
      if (count_ == 0) {
        ctx_->ExecModule(module_id(), hot_funcs_batched());
        input_done_ = true;
        return group_open_ ? EmitGroup() : nullptr;
      }
      RowBatchDecoder::DecodeMissing(batch_rows_.data(), count_, in_schema,
                                     decode_cols_, child(0)->BatchColumns(),
                                     &vbatch_);
      for (size_t g = 0; g < group_compiled_.size(); ++g) {
        gvecs_[g] = &group_compiled_[g]->Run(vbatch_);
      }
      for (size_t a = 0; a < arg_compiled_.size(); ++a) {
        avecs_[a] = arg_compiled_[a] != nullptr
                        ? &arg_compiled_[a]->Run(vbatch_)
                        : nullptr;
      }
    }
    while (pos_ < count_) {
      const size_t i = pos_++;
      ctx_->ExecModule(module_id(), hot_funcs_batched());
      for (size_t g = 0; g < gvecs_.size(); ++g) {
        lane_keys_[g] = LaneValue(*gvecs_[g], i);
      }
      bool same_group = group_open_;
      if (same_group) {
        for (size_t g = 0; g < lane_keys_.size(); ++g) {
          if (!(lane_keys_[g] == current_keys_[g])) {
            same_group = false;
            break;
          }
        }
      }
      const uint8_t* finished = nullptr;
      if (group_open_ && !same_group) finished = EmitGroup();
      if (!same_group) {
        current_keys_ = lane_keys_;
        accs_.assign(specs_.size(), AggAccumulator());
        group_open_ = true;
      }
      for (size_t s = 0; s < specs_.size(); ++s) {
        Value v = avecs_[s] != nullptr ? LaneValue(*avecs_[s], i) : Value();
        accs_[s].Update(specs_[s].func, v);
      }
      if (finished != nullptr) return finished;
    }
  }
}

const uint8_t* StreamAggregationOperator::Next() {
  if (batch_size_ > 1 && keys_compiled_ && vectorized_eval_) {
    return NextVectorized();
  }
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

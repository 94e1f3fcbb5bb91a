#include "parallel/agg_merge.h"

#include "exec/hash_aggregation.h"
#include "storage/tuple.h"

namespace bufferdb::parallel {

namespace {

ExprPtr CloneOrNull(const ExprPtr& expr) {
  return expr != nullptr ? expr->Clone() : nullptr;
}

bool IsCount(AggFunc func) {
  return func == AggFunc::kCountStar || func == AggFunc::kCount;
}

// Number of partial columns spec `func` expands to (layout contract shared
// between MakePartialAggSpecs and the merge operator).
size_t PartialWidth(AggFunc func) { return IsCount(func) ? 1 : 2; }

}  // namespace

std::vector<AggSpec> MakePartialAggSpecs(const std::vector<AggSpec>& specs) {
  std::vector<AggSpec> partial;
  for (size_t i = 0; i < specs.size(); ++i) {
    const AggSpec& spec = specs[i];
    // Append-form (not `"p" + s + "_"`) to dodge gcc 12's -O3 -Wrestrict
    // false positive (PR105651).
    std::string prefix = "p";
    prefix += std::to_string(i);
    prefix += "_";
    // Every aggregate ships its input count: the whole state of COUNT, and
    // the non-NULL count behind SUM/AVG/MIN/MAX. The others add one value
    // column (AVG ships its SUM).
    partial.push_back(AggSpec{spec.func == AggFunc::kCountStar
                                  ? AggFunc::kCountStar
                                  : AggFunc::kCount,
                              CloneOrNull(spec.arg), prefix + "count"});
    if (!IsCount(spec.func)) {
      partial.push_back(AggSpec{
          spec.func == AggFunc::kAvg ? AggFunc::kSum : spec.func,
          CloneOrNull(spec.arg), prefix + "value"});
    }
  }
  return partial;
}

AggregateMergeOperator::AggregateMergeOperator(OperatorPtr child,
                                               size_t num_keys,
                                               std::vector<AggSpec> specs)
    : num_keys_(num_keys), specs_(std::move(specs)) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
  const Schema& in_schema = this->child(0)->output_schema();
  std::vector<Column> cols;
  for (size_t k = 0; k < num_keys_; ++k) cols.push_back(in_schema.column(k));
  size_t col = num_keys_;
  for (const AggSpec& spec : specs_) {
    AppendAggFuncs(spec.func, &hot_funcs_);
    first_col_.push_back(col);
    col += PartialWidth(spec.func);
    DataType arg_type =
        spec.arg != nullptr ? spec.arg->result_type() : DataType::kInt64;
    cols.push_back(
        Column{spec.output_name, AggOutputType(spec.func, arg_type)});
  }
  output_schema_ = Schema(std::move(cols));
}

void AggregateMergeOperator::Reset() {
  groups_.clear();
  key_values_.clear();
  states_.clear();
  emit_pos_ = 0;
  loaded_ = false;
}

Status AggregateMergeOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  Reset();
  return child(0)->Open(ctx);
}

void AggregateMergeOperator::Load() {
  const Schema& in_schema = child(0)->output_schema();
  const size_t stride = specs_.size();
  // Without group keys every row folds into the one group, which exists
  // even when no row arrives.
  if (num_keys_ == 0) {
    groups_.emplace(std::string(), 0);
    states_.resize(stride);
  }
  std::string key;
  while (const uint8_t* row = child(0)->Next()) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    TupleView view(row, &in_schema);
    key.clear();
    for (size_t k = 0; k < num_keys_; ++k) AppendGroupKey(view, k, &key);
    auto [group, inserted] =
        groups_.try_emplace(key, static_cast<uint32_t>(groups_.size()));
    if (inserted) {
      for (size_t k = 0; k < num_keys_; ++k) {
        key_values_.push_back(view.GetValue(k));
      }
      states_.resize(states_.size() + stride);
    }
    AggAccumulator* states = states_.data() + group->second * stride;
    for (size_t i = 0; i < stride; ++i) {
      // Rebuild the fragment's state from its partial columns: the value
      // column folds in as one input, the count column restores the count.
      const size_t col = first_col_[i];
      AggAccumulator partial;
      if (PartialWidth(specs_[i].func) == 2) {
        partial.Update(specs_[i].func, view.GetValue(col + 1));
      }
      partial.count = view.GetInt64(col);
      states[i].Merge(specs_[i].func, partial);
    }
  }
}

const uint8_t* AggregateMergeOperator::Next() {
  if (!loaded_) {
    Load();
    loaded_ = true;
  }
  ctx_->ExecModule(module_id(), hot_funcs_);
  if (emit_pos_ >= groups_.size()) return nullptr;
  const size_t g = emit_pos_++;
  TupleBuilder builder(&output_schema_);
  for (size_t k = 0; k < num_keys_; ++k) {
    builder.Set(k, key_values_[g * num_keys_ + k]);
  }
  for (size_t i = 0; i < specs_.size(); ++i) {
    const size_t col = num_keys_ + i;
    builder.Set(col, states_[g * specs_.size() + i].Final(
                         specs_[i].func, output_schema_.column(col).type));
  }
  const uint8_t* out = builder.Finish(&ctx_->arena);
  ctx_->Touch(out, TupleView(out, &output_schema_).size_bytes());
  return out;
}

void AggregateMergeOperator::Close() {
  Reset();
  child(0)->Close();
}

std::string AggregateMergeOperator::label() const {
  std::string out = "AggMerge(";
  if (num_keys_ > 0) {
    out += "by ";
    for (size_t k = 0; k < num_keys_; ++k) {
      if (k > 0) out += ",";
      out += output_schema_.column(k).name;
    }
    out += "; ";
  }
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggFuncName(specs_[i].func);
    if (specs_[i].arg != nullptr) {
      // Append-form to dodge gcc 12's -O3 -Wrestrict false positive
      // (PR105651).
      out += "(";
      out += specs_[i].arg->ToString();
      out += ")";
    }
  }
  out += ")";
  return out;
}

}  // namespace bufferdb::parallel

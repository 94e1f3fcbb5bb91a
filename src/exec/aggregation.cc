#include "exec/aggregation.h"

#include <algorithm>

#include "exec/row_batch_decoder.h"
#include "expr/evaluator.h"
#include "storage/tuple.h"

namespace bufferdb {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCountStar:
      return "COUNT(*)";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

DataType AggOutputType(AggFunc func, DataType arg_type) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kSum:
      return arg_type == DataType::kDouble ? DataType::kDouble
                                           : DataType::kInt64;
    case AggFunc::kAvg:
      return DataType::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg_type;
  }
  return DataType::kInt64;
}

namespace {

// True when `x` replaces the running extremum `ext` of MIN (`is_min`) or MAX.
// Phrased through < and > only, like Value::Compare, so NaN never replaces.
template <typename T>
bool Beats(bool is_min, const T& x, const T& ext) {
  return is_min ? x < ext : x > ext;
}

// The lane loops behind AggAccumulator::UpdateColumn. `slot(i)` is lane i's
// state; every non-NULL lane folds exactly as Update folds its boxed value.
template <typename Slot>
void FoldColumn(AggFunc func, const ColumnVector* col, size_t n, Slot slot) {
  if (func == AggFunc::kCountStar) {
    for (size_t i = 0; i < n; ++i) ++slot(i).count;
    return;
  }
  const uint8_t* nulls = col->null_data();
  const double* f64 = col->f64_data();
  const int64_t* i64 = col->i64_data();
  switch (func) {
    case AggFunc::kCount:
      for (size_t i = 0; i < n; ++i) slot(i).count += nulls[i] == 0 ? 1 : 0;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (col->is_double()) {
        for (size_t i = 0; i < n; ++i) {
          if (nulls[i] != 0) continue;
          AggAccumulator& s = slot(i);
          ++s.count;
          s.double_sum += f64[i];
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (nulls[i] != 0) continue;
          AggAccumulator& s = slot(i);
          ++s.count;
          s.int_sum += i64[i];
          s.double_sum += static_cast<double>(i64[i]);
        }
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const bool is_min = func == AggFunc::kMin;
      auto fold = [&](const auto* lanes, auto ext) {
        for (size_t i = 0; i < n; ++i) {
          if (nulls[i] != 0) continue;
          AggAccumulator& s = slot(i);
          if (s.count == 0 || Beats(is_min, lanes[i], s.*ext)) {
            s.*ext = lanes[i];
          }
          ++s.count;
        }
      };
      if (col->is_double()) {
        fold(f64, &AggAccumulator::double_ext);
      } else {
        fold(i64, &AggAccumulator::int_ext);
      }
      break;
    }
    case AggFunc::kCountStar:
      break;
  }
}

}  // namespace

void AggAccumulator::Update(AggFunc func, const Value& v) {
  if (func == AggFunc::kCountStar) {
    ++count;
    return;
  }
  if (v.is_null()) return;
  switch (func) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (v.type() == DataType::kDouble) {
        double_sum += v.double_value();
      } else {
        int_sum += v.int64_value();
        double_sum += static_cast<double>(v.int64_value());
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const bool is_min = func == AggFunc::kMin;
      if (v.type() == DataType::kString) {
        if (count == 0 || Beats(is_min, Value::Compare(v, string_ext), 0)) {
          string_ext = v;
        }
      } else if (v.type() == DataType::kDouble) {
        if (count == 0 || Beats(is_min, v.double_value(), double_ext)) {
          double_ext = v.double_value();
        }
      } else if (count == 0 || Beats(is_min, v.int64_value(), int_ext)) {
        int_ext = v.int64_value();
      }
      break;
    }
    case AggFunc::kCountStar:
      break;
  }
  ++count;
}

void AggAccumulator::UpdateColumn(AggFunc func, const ColumnVector* col,
                                  size_t n, const uint32_t* group,
                                  size_t stride, AggAccumulator* states) {
  if (group == nullptr) {
    AggAccumulator& s = *states;
    FoldColumn(func, col, n, [&s](size_t) -> AggAccumulator& { return s; });
  } else {
    FoldColumn(func, col, n, [=](size_t i) -> AggAccumulator& {
      return states[group[i] * stride];
    });
  }
}

void AggAccumulator::Merge(AggFunc func, const AggAccumulator& other) {
  if (other.count == 0) return;
  if (func == AggFunc::kMin || func == AggFunc::kMax) {
    // The argument's type makes exactly one extremum live; the other two
    // stay at their defaults in every state of this aggregate, so folding
    // all three is exact without knowing which one it is.
    const bool is_min = func == AggFunc::kMin;
    if (count == 0 || Beats(is_min, other.int_ext, int_ext)) {
      int_ext = other.int_ext;
    }
    if (count == 0 || Beats(is_min, other.double_ext, double_ext)) {
      double_ext = other.double_ext;
    }
    if (!other.string_ext.is_null() &&
        (count == 0 ||
         Beats(is_min, Value::Compare(other.string_ext, string_ext), 0))) {
      string_ext = other.string_ext;
    }
  }
  count += other.count;
  int_sum += other.int_sum;
  double_sum += other.double_sum;
}

Value AggAccumulator::Final(AggFunc func, DataType output_type) const {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int64(count);
    case AggFunc::kSum:
      if (count == 0) return Value::Null(output_type);
      return output_type == DataType::kDouble ? Value::Double(double_sum)
                                              : Value::Int64(int_sum);
    case AggFunc::kAvg:
      if (count == 0) return Value::Null(DataType::kDouble);
      return Value::Double(double_sum / static_cast<double>(count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (count == 0) return Value::Null(output_type);
      switch (output_type) {
        case DataType::kString:
          return string_ext;
        case DataType::kDouble:
          return Value::Double(double_ext);
        case DataType::kDate:
          return Value::Date(int_ext);
        case DataType::kBool:
          return Value::Bool(int_ext != 0);
        case DataType::kInt64:
          return Value::Int64(int_ext);
      }
      break;
  }
  return Value();
}

void AppendAggFuncs(AggFunc func, std::vector<sim::FuncId>* funcs) {
  auto add = [funcs](sim::FuncId f) {
    if (std::find(funcs->begin(), funcs->end(), f) == funcs->end()) {
      funcs->push_back(f);
    }
  };
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      add(sim::FuncId::kAggCount);
      break;
    case AggFunc::kSum:
      add(sim::FuncId::kAggSum);
      break;
    case AggFunc::kAvg:
      add(sim::FuncId::kAggSum);
      add(sim::FuncId::kAggAvgExtra);
      break;
    case AggFunc::kMin:
      add(sim::FuncId::kAggMin);
      break;
    case AggFunc::kMax:
      add(sim::FuncId::kAggMax);
      break;
  }
}

AggregationOperator::AggregationOperator(OperatorPtr child,
                                         std::vector<AggSpec> specs)
    : specs_(std::move(specs)) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
  const Schema& in_schema = this->child(0)->output_schema();
  std::vector<Column> cols;
  args_compiled_ = true;
  for (AggSpec& spec : specs_) {
    // Fold at plan time: programmatically-built plans bypass the binder's
    // folding pass, so constant subtrees in aggregate arguments (e.g.
    // price * (1 - 0.1)) would otherwise be re-evaluated per tuple.
    if (spec.arg != nullptr) spec.arg = FoldConstants(std::move(spec.arg));
    AppendAggFuncs(spec.func, &hot_funcs_);
    DataType arg_type =
        spec.arg != nullptr ? spec.arg->result_type() : DataType::kInt64;
    cols.push_back(Column{spec.output_name, AggOutputType(spec.func, arg_type)});
    arg_compiled_.push_back(spec.arg != nullptr
                                ? CompiledExpr::Compile(*spec.arg, in_schema)
                                : nullptr);
    if (arg_compiled_.back() != nullptr) {
      AddInputColumns(*arg_compiled_.back(), &decode_cols_);
    }
    args_compiled_ = args_compiled_ &&
                     (spec.arg == nullptr || arg_compiled_.back() != nullptr);
  }
  output_schema_ = Schema(std::move(cols));
  if (args_compiled_) SetVectorBatchFuncs();
}

Status AggregationOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  done_ = false;
  accs_.assign(specs_.size(), AggAccumulator());
  if (batch_size_ > 1) batch_rows_.resize(batch_size_);
  return child(0)->Open(ctx);
}

void AggregationOperator::Load() {
  const Schema& in_schema = child(0)->output_schema();
  while (const uint8_t* row = child(0)->Next()) {
    // One aggregation-module execution per input tuple: this is the
    // per-tuple interleaving with the child that buffering removes.
    ctx_->ExecModule(module_id(), hot_funcs_);
    TupleView view(row, &in_schema);
    for (size_t i = 0; i < specs_.size(); ++i) {
      Value v = specs_[i].arg != nullptr ? specs_[i].arg->Evaluate(view)
                                         : Value();
      accs_[i].Update(specs_[i].func, v);
    }
  }
}

// Batch load: one decode of the union of input columns (aliasing what the
// child published) feeds every argument program, and each aggregate then
// folds its result column in one lane loop. The load reads nothing else of
// a batch, so it requests these columns without the rows; a child that
// omits them (the index join) builds no row, and the decode then aliases
// every column.
void AggregationOperator::LoadBatched() {
  const Schema& in_schema = child(0)->output_schema();
  child(0)->RequestColumns(decode_cols_, /*rows=*/false);
  while (size_t n = child(0)->NextBatch(batch_rows_.data(), batch_size_)) {
    RowBatchDecoder::DecodeMissing(batch_rows_.data(), n, in_schema,
                                   decode_cols_, child(0)->BatchColumns(),
                                   &vbatch_);
    for (size_t i = 0; i < n; ++i) {
      ctx_->ExecModule(module_id(), hot_funcs_batched());
    }
    for (size_t a = 0; a < specs_.size(); ++a) {
      const ColumnVector* col =
          arg_compiled_[a] != nullptr ? &arg_compiled_[a]->Run(vbatch_) : nullptr;
      AggAccumulator::UpdateColumn(specs_[a].func, col, n, nullptr, 0,
                                   &accs_[a]);
    }
  }
}

const uint8_t* AggregationOperator::Next() {
  if (done_) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    return nullptr;
  }
  if (batch_size_ > 1 && args_compiled_ && vectorized_eval_) {
    LoadBatched();
  } else {
    Load();
  }
  ctx_->ExecModule(module_id(), hot_funcs_);
  TupleBuilder builder(&output_schema_);
  for (size_t i = 0; i < specs_.size(); ++i) {
    builder.Set(i, accs_[i].Final(specs_[i].func,
                                  output_schema_.column(i).type));
  }
  const uint8_t* out = builder.Finish(&ctx_->arena);
  ctx_->Touch(out, TupleView(out, &output_schema_).size_bytes());
  done_ = true;
  return out;
}

void AggregationOperator::Close() { child(0)->Close(); }

std::string AggregationOperator::label() const {
  std::string out = "Agg(";
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggFuncName(specs_[i].func);
    if (specs_[i].arg != nullptr) {
      // Append-form (not `"(" + s + ")"`) to dodge gcc 12's -O3 -Wrestrict
      // false positive (PR105651).
      out += "(";
      out += specs_[i].arg->ToString();
      out += ")";
    }
  }
  out += ")";
  return out;
}

}  // namespace bufferdb

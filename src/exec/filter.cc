#include "exec/filter.h"

#include "expr/evaluator.h"
#include "storage/tuple.h"

namespace bufferdb {

FilterOperator::FilterOperator(OperatorPtr child, ExprPtr predicate)
    : predicate_(FoldConstants(std::move(predicate))) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
  compiled_ = CompiledExpr::CompileFilter(*predicate_,
                                         this->child(0)->output_schema());
  if (compiled_ != nullptr) SetVectorBatchFuncs();
}

Status FilterOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  published_.set_rows(0);
  return child(0)->Open(ctx);
}

void FilterOperator::PublishCompacted() {
  published_.set_rows(sel_.count);
  for (int col : compiled_->input_columns()) {
    const ColumnVector& src = vbatch_.Get(col);
    ColumnVector* dst = published_.Mutable(col);
    dst->Reset(src.type, sel_.count);
    uint8_t* dst_nulls = dst->nulls.data();
    const uint8_t* src_nulls = src.null_data();
    if (src.is_double()) {
      const double* s = src.f64_data();
      double* d = dst->f64.data();
      for (size_t k = 0; k < sel_.count; ++k) {
        d[k] = s[sel_.idx[k]];
        dst_nulls[k] = src_nulls[sel_.idx[k]];
      }
    } else {
      const int64_t* s = src.i64_data();
      int64_t* d = dst->i64.data();
      for (size_t k = 0; k < sel_.count; ++k) {
        d[k] = s[sel_.idx[k]];
        dst_nulls[k] = src_nulls[sel_.idx[k]];
      }
    }
  }
}

const uint8_t* FilterOperator::Next() {
  const Schema& schema = child(0)->output_schema();
  while (const uint8_t* row = child(0)->Next()) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    if (EvaluatePredicate(*predicate_, TupleView(row, &schema))) return row;
  }
  ctx_->ExecModule(module_id(), hot_funcs_);
  return nullptr;
}

size_t FilterOperator::NextBatch(const uint8_t** out, size_t max) {
  const Schema& schema = child(0)->output_schema();
  // LINT: allow-alloc(one-time staging growth; no-op once capacity == max)
  if (in_batch_.size() < max) in_batch_.resize(max);
  const bool vectorized = compiled_ != nullptr && vectorized_eval_;
  for (;;) {
    size_t in_n = child(0)->NextBatch(in_batch_.data(), max);
    if (in_n == 0) {
      ctx_->ExecModule(module_id(), hot_funcs_batched());  // End-of-stream.
      return 0;
    }
    size_t n = 0;
    if (vectorized) {
      // Columns the child already published (ColumnScan aliases, an earlier
      // Filter's compacted vectors) are aliased, the rest decoded.
      RowBatchDecoder::DecodeMissing(in_batch_.data(), in_n, schema,
                                     compiled_->input_columns(),
                                     child(0)->BatchColumns(), &vbatch_);
      compiled_->RunFilter(vbatch_, &sel_);
      for (size_t i = 0; i < in_n; ++i) {
        ctx_->ExecModule(module_id(), hot_funcs_batched());
      }
      n = sel_.count;
      for (size_t k = 0; k < n; ++k) out[k] = in_batch_[sel_.idx[k]];
      if (n > 0) PublishCompacted();
    } else {
      for (size_t i = 0; i < in_n; ++i) {
        ctx_->ExecModule(module_id(), hot_funcs_);
        const uint8_t* row = in_batch_[i];
        out[n] = row;
        // LINT: allow-scalar-eval(fallback: predicate did not compile)
        n += EvaluatePredicate(*predicate_, TupleView(row, &schema)) ? 1 : 0;
      }
    }
    if (n > 0) return n;
    // Every row of this batch was filtered out; pull the next one.
  }
}

void FilterOperator::Close() { child(0)->Close(); }

std::string FilterOperator::label() const {
  return "Filter(" + predicate_->ToString() + ")";
}

}  // namespace bufferdb

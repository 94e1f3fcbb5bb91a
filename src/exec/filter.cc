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
  requested_ = false;
  return child(0)->Open(ctx);
}

void FilterOperator::PublishCompacted() {
  published_.set_rows(sel_.count);
  for (int col : compiled_->input_columns()) {
    GatherLanes(vbatch_.Get(col), sel_, published_.Mutable(col));
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
  const std::vector<sim::FuncId>& funcs =
      vectorized ? hot_funcs_batched() : hot_funcs_;
  if (vectorized && !requested_) {
    child(0)->RequestColumns(compiled_->input_columns(), /*rows=*/true);
    requested_ = true;
  }
  for (;;) {
    size_t in_n = child(0)->NextBatch(in_batch_.data(), max);
    if (in_n == 0) {
      ctx_->ExecModule(module_id(), hot_funcs_batched());  // End-of-stream.
      return 0;
    }
    if (vectorized) {
      // Columns the child already published (ColumnScan aliases, an earlier
      // Filter's compacted vectors) are aliased, the rest decoded.
      RowBatchDecoder::DecodeMissing(in_batch_.data(), in_n, schema,
                                     compiled_->input_columns(),
                                     child(0)->BatchColumns(), &vbatch_);
      compiled_->RunFilter(vbatch_, &sel_);
    } else {
      // LINT: allow-scalar-eval(fallback: predicate did not compile)
      SelectRows(*predicate_, in_batch_.data(), in_n, schema, &sel_);
    }
    for (size_t i = 0; i < in_n; ++i) ctx_->ExecModule(module_id(), funcs);
    const size_t n = sel_.count;
    for (size_t k = 0; k < n; ++k) out[k] = in_batch_[sel_.idx[k]];
    if (n > 0) {
      if (vectorized) PublishCompacted();
      return n;
    }
    // Every row of this batch was filtered out; pull the next one.
  }
}

void FilterOperator::Close() { child(0)->Close(); }

std::string FilterOperator::label() const {
  return "Filter(" + predicate_->ToString() + ")";
}

}  // namespace bufferdb

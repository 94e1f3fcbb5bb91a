#include "exec/seq_scan.h"

#include "exec/row_batch_decoder.h"
#include "expr/evaluator.h"

namespace bufferdb {

SeqScanOperator::SeqScanOperator(Table* table, ExprPtr predicate)
    : table_(table),
      predicate_(predicate != nullptr ? FoldConstants(std::move(predicate))
                                      : nullptr) {
  InitHotFuncs(module_id());
  if (predicate_ != nullptr) {
    compiled_ = CompiledExpr::CompileFilter(*predicate_, table_->schema());
    if (compiled_ != nullptr) SetVectorBatchFuncs();
  }
}

Status SeqScanOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  range_.Reset(table_->num_rows());
  return Status::OK();
}

const uint8_t* SeqScanOperator::Next() {
  const Schema& schema = table_->schema();
  while (range_.Claim()) {
    // One module execution per row considered: the scan loop body runs for
    // every input row, not just for qualifying ones.
    ctx_->ExecModule(module_id(), hot_funcs_);
    const uint8_t* row = table_->row(range_.pos++);
    TupleView view(row, &schema);
    ctx_->Touch(row, view.size_bytes());
    if (predicate_ == nullptr || EvaluatePredicate(*predicate_, view)) {
      return row;
    }
  }
  ctx_->ExecModule(module_id(), hot_funcs_);  // End-of-scan bookkeeping.
  return nullptr;
}

size_t SeqScanOperator::NextBatch(const uint8_t** out, size_t max) {
  const Schema& schema = table_->schema();
  const bool vectorized = compiled_ != nullptr && vectorized_eval_;
  const std::vector<sim::FuncId>& funcs =
      vectorized ? hot_funcs_batched() : hot_funcs_;
  size_t n = 0;
  while (n < max && range_.Claim()) {
    // Tight run over the current range: no morsel check per row.
    size_t gathered = 0;
    while (range_.pos < range_.end && n + gathered < max) {
      ctx_->ExecModule(module_id(), funcs);
      const uint8_t* row = table_->row(range_.pos++);
      ctx_->Touch(row, TupleView(row, &schema).size_bytes());
      out[n + gathered++] = row;
    }
    if (predicate_ == nullptr) {
      n += gathered;
      continue;
    }
    if (vectorized) {
      // LINT: allow-row-decode(leaf: gathered rows, no batch source)
      RowBatchDecoder::Decode(out + n, gathered, schema,
                              compiled_->input_columns(), &vbatch_);
      compiled_->RunFilter(vbatch_, &sel_);
    } else {
      // LINT: allow-scalar-eval(fallback: predicate did not compile)
      SelectRows(*predicate_, out + n, gathered, schema, &sel_);
    }
    // Compact the survivors in place: sel_.idx is ascending, so idx[k] >= k
    // and the store never clobbers a pending source slot.
    for (size_t k = 0; k < sel_.count; ++k) {
      out[n + k] = out[n + sel_.idx[k]];
    }
    n += sel_.count;
  }
  if (n == 0) ctx_->ExecModule(module_id(), hot_funcs_);  // End-of-scan.
  return n;
}

void SeqScanOperator::Close() { range_.Reset(0); }

Status SeqScanOperator::Rescan() {
  range_.Reset(table_->num_rows());
  return Status::OK();
}

std::string SeqScanOperator::label() const {
  std::string out = "Scan(" + table_->name();
  if (predicate_ != nullptr) {
    out += ", ";
    out += predicate_->ToString();
  }
  if (range_.morsel_mode()) out += ", morsel";
  out += ")";
  return out;
}

}  // namespace bufferdb

#include "exec/index_scan.h"

#include <limits>
#include <numeric>

#include "exec/row_batch_decoder.h"
#include "expr/evaluator.h"

namespace bufferdb {

namespace {
// Approximate bytes charged to the data cache per touched B+-tree node.
constexpr size_t kNodeTouchBytes = 512;
}  // namespace

IndexScanOperator::IndexScanOperator(const IndexInfo* index,
                                     std::optional<int64_t> lo_key,
                                     std::optional<int64_t> hi_key,
                                     ExprPtr residual_predicate)
    : index_(index),
      lo_key_(lo_key),
      hi_key_(hi_key),
      residual_predicate_(std::move(residual_predicate)) {
  InitHotFuncs(module_id());
  if (residual_predicate_ != nullptr) {
    AddHotFunc(sim::FuncId::kExprCmp);
    AddHotFunc(sim::FuncId::kExprArith);
    compiled_ = CompiledExpr::CompileFilter(*residual_predicate_,
                                            index_->table->schema());
    if (compiled_ != nullptr) SetVectorBatchFuncs();
  }
}

void IndexScanOperator::BindEqualKey(int64_t key) { equal_key_ = key; }

void IndexScanOperator::Position() {
  touched_nodes_.clear();
  const BTree& tree = *index_->btree;
  if (equal_key_.has_value()) {
    it_ = tree.Seek(*equal_key_, &touched_nodes_);
  } else if (lo_key_.has_value()) {
    it_ = tree.Seek(*lo_key_, &touched_nodes_);
  } else {
    it_ = tree.Begin();
  }
  for (const void* node : touched_nodes_) {
    ctx_->Touch(node, kNodeTouchBytes);
  }
}

Status IndexScanOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  seek_key_.reset();
  forward_seeks_ = 0;
  descents_ = 0;
  Position();
  return Status::OK();
}

const uint8_t* IndexScanOperator::Next() {
  const Schema& schema = index_->table->schema();
  while (it_.Valid()) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    if (equal_key_.has_value() && it_.key() != *equal_key_) break;
    if (hi_key_.has_value() && it_.key() > *hi_key_) break;
    const uint8_t* row = it_.row();
    ctx_->Touch(it_.node_address(), kNodeTouchBytes);
    it_.Next();
    TupleView view(row, &schema);
    ctx_->Touch(row, view.size_bytes());
    if (residual_predicate_ == nullptr ||
        EvaluatePredicate(*residual_predicate_, view)) {
      return row;
    }
  }
  ctx_->ExecModule(module_id(), hot_funcs_);
  return nullptr;
}

void IndexScanOperator::SeekEqual(int64_t key) {
  equal_key_ = key;
  if (seek_key_ == key) {
    it_ = seek_start_;
    return;
  }
  // Every entry before the last key's start is below it, so a larger key
  // can walk on from there; the walk charges the leaf it starts from and
  // the one it lands on.
  it_ = seek_start_;
  const void* leaf = it_.node_address();
  if (seek_key_.has_value() && key > *seek_key_ && it_.SeekForward(key)) {
    ++forward_seeks_;
    if (leaf != nullptr) ctx_->Touch(leaf, kNodeTouchBytes);
    if (it_.Valid() && it_.node_address() != leaf) {
      ctx_->Touch(it_.node_address(), kNodeTouchBytes);
    }
  } else {
    ++descents_;
    Position();
  }
  seek_key_ = key;
  seek_start_ = it_;
}

size_t IndexScanOperator::NextRun(const uint8_t** out, size_t max) {
  const Schema& schema = index_->table->schema();
  constexpr int64_t kNoBound = std::numeric_limits<int64_t>::max();
  const int64_t hi = equal_key_.value_or(hi_key_.value_or(kNoBound));
  size_t n = 0;
  while (n < max && it_.Valid()) {
    // One leaf per run: the node is charged once, each row it yields once.
    const void* leaf = it_.node_address();
    const size_t run = it_.NextRun(hi, out + n, max - n);
    if (run == 0) break;
    ctx_->Touch(leaf, kNodeTouchBytes);
    for (size_t i = n; i < n + run; ++i) {
      ctx_->ExecModule(module_id(), hot_funcs_batched());
      ctx_->Touch(out[i], TupleView(out[i], &schema).size_bytes());
    }
    n += run;
  }
  return n;
}

size_t IndexScanOperator::SelectResidual(const uint8_t* const* rows, size_t n,
                                         SelectionVector* sel) {
  const Schema& schema = index_->table->schema();
  if (compiled_ != nullptr && vectorized_eval_) {
    // LINT: allow-row-decode(leaf: rows the scan gathered, no batch source)
    RowBatchDecoder::Decode(rows, n, schema, compiled_->input_columns(),
                            &vbatch_);
    compiled_->RunFilter(vbatch_, sel);
  } else if (residual_predicate_ != nullptr) {
    // LINT: allow-scalar-eval(fallback: the residual did not compile)
    SelectRows(*residual_predicate_, rows, n, schema, sel);
  } else {
    // LINT: allow-alloc(one-time staging growth; no-op once capacity == n)
    if (sel->idx.size() < n) sel->idx.resize(n);
    std::iota(sel->idx.begin(), sel->idx.begin() + static_cast<ptrdiff_t>(n),
              0u);
    sel->count = n;
  }
  return sel->count;
}

size_t IndexScanOperator::NextBatch(const uint8_t** out, size_t max) {
  for (;;) {
    const size_t n = NextRun(out, max);
    if (n == 0) {
      ctx_->ExecModule(module_id(), hot_funcs_batched());  // End-of-stream.
      return 0;
    }
    if (residual_predicate_ == nullptr) return n;
    // sel_.idx is ascending, so the in-place compaction never overwrites a
    // row it has yet to move.
    const size_t kept = SelectResidual(out, n, &sel_);
    for (size_t k = 0; k < kept; ++k) out[k] = out[sel_.idx[k]];
    if (kept > 0) return kept;
    // The residual rejected the whole run; 0 would mean end of stream.
  }
}

void IndexScanOperator::Close() {}

Status IndexScanOperator::Rescan() {
  Position();
  return Status::OK();
}

std::string IndexScanOperator::label() const {
  return "IndexScan(" + index_->name + ")";
}

}  // namespace bufferdb

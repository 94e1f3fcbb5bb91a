#include "core/buffered_index_join.h"

#include <algorithm>

#include "storage/tuple.h"

namespace bufferdb {

BufferedIndexJoinOperator::BufferedIndexJoinOperator(OperatorPtr outer,
                                                     const IndexInfo* index,
                                                     ExprPtr outer_key_expr,
                                                     size_t batch_size,
                                                     std::vector<int> columns)
    : index_(index),
      outer_key_expr_(std::move(outer_key_expr)),
      batch_size_(batch_size == 0 ? 1 : batch_size),
      columns_(std::move(columns)) {
  output_schema_ = Schema::Concat(outer->output_schema(),
                                  index->table->schema(), columns_);
  AddChild(std::move(outer));
  InitHotFuncs(module_id());
  // Per-tuple hot path: join driver + the buffer bookkeeping. The batch
  // key-sort code runs once per batch, not per tuple, so it lives in a
  // separate function set (keeping the per-tuple footprint within L1-I).
  AddHotFunc(sim::FuncId::kBufferCore);
  sort_funcs_ = {sim::FuncId::kSortCore, sim::FuncId::kExprCmp};
  for (sim::FuncId f : sim::ModuleBaseFuncs(sim::ModuleId::kIndexScan)) {
    probe_funcs_.push_back(f);
  }
}

Status BufferedIndexJoinOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  results_.clear();
  pos_ = 0;
  outer_done_ = false;
  batches_ = 0;
  return child(0)->Open(ctx);
}

bool BufferedIndexJoinOperator::FillBatch() {
  const Schema& outer_schema = child(0)->output_schema();
  const Schema& inner_schema = index_->table->schema();
  results_.clear();
  pos_ = 0;

  // Phase 1: drain a batch of outer tuples (outer code runs in a long run).
  std::vector<std::pair<int64_t, const uint8_t*>> batch;
  batch.reserve(batch_size_);
  while (batch.size() < batch_size_) {
    const uint8_t* row = child(0)->Next();
    if (row == nullptr) {
      outer_done_ = true;
      break;
    }
    ctx_->ExecModule(module_id(), hot_funcs_);
    Value key = outer_key_expr_->Evaluate(TupleView(row, &outer_schema));
    if (key.is_null()) continue;  // NULL keys never join.
    batch.emplace_back(key.int64_value(), row);
    ctx_->Touch(&batch.back(), sizeof(batch.back()));
  }
  if (batch.empty()) return false;
  ++batches_;

  // Phase 2: sort the batch by key so probes walk the tree in order.
  ctx_->ExecModule(sim::ModuleId::kSort, sort_funcs_);
  std::stable_sort(batch.begin(), batch.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  // Phase 3: probe the index for the whole batch back-to-back.
  std::vector<const void*> touched;
  for (const auto& [key, outer_row] : batch) {
    ctx_->ExecModule(sim::ModuleId::kIndexScan, probe_funcs_);
    touched.clear();
    BTree::Iterator it = index_->btree->Seek(key, &touched);
    for (const void* node : touched) ctx_->Touch(node, 512);
    while (it.Valid() && it.key() == key) {
      const uint8_t* inner_row = it.row();
      ctx_->Touch(inner_row, TupleView(inner_row, &inner_schema).size_bytes());
      const uint8_t* combined = TupleBuilder::ConcatRows(
          output_schema_, outer_schema, outer_row, inner_schema, inner_row,
          &ctx_->arena, columns_);
      results_.push_back(combined);
      it.Next();
    }
  }
  return true;
}

const uint8_t* BufferedIndexJoinOperator::Next() {
  while (true) {
    if (pos_ < results_.size()) {
      ctx_->ExecModule(module_id(), hot_funcs_);
      const uint8_t* row = results_[pos_++];
      ctx_->Touch(row, 64);
      return row;
    }
    if (outer_done_) {
      ctx_->ExecModule(module_id(), hot_funcs_);
      return nullptr;
    }
    if (!FillBatch() && results_.empty()) {
      ctx_->ExecModule(module_id(), hot_funcs_);
      return nullptr;
    }
  }
}

void BufferedIndexJoinOperator::Close() {
  results_.clear();
  child(0)->Close();
}

std::string BufferedIndexJoinOperator::label() const {
  return "BufferedIndexJoin(" + index_->name + ", batch=" +
         std::to_string(batch_size_) + ")";
}

}  // namespace bufferdb

#include "exec/distinct.h"

#include "exec/hash_aggregation.h"
#include "storage/tuple.h"

namespace bufferdb {

DistinctOperator::DistinctOperator(OperatorPtr child) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
}

Status DistinctOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  seen_.clear();
  return child(0)->Open(ctx);
}

const uint8_t* DistinctOperator::Next() {
  const Schema& schema = child(0)->output_schema();
  while (const uint8_t* row = child(0)->Next()) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    TupleView view(row, &schema);
    key_.clear();
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      AppendGroupKey(view, c, &key_);
    }
    // LINT: allow-alloc(distinct must materialize the seen-set; one
    // encoded key per unique row, amortized by the hash table)
    auto [it, inserted] = seen_.insert(key_);
    ctx_->Touch(it->data(), it->size());
    if (inserted) return row;
  }
  ctx_->ExecModule(module_id(), hot_funcs_);
  return nullptr;
}

void DistinctOperator::Close() {
  seen_.clear();
  child(0)->Close();
}

}  // namespace bufferdb

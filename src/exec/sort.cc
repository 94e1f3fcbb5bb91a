#include "exec/sort.h"

#include <algorithm>
#include <string_view>

#include "storage/tuple.h"

namespace bufferdb {

RowOrder::RowOrder(const Schema& schema, const std::vector<SortKey>& keys) {
  keys_.reserve(keys.size());
  for (const SortKey& k : keys) {
    keys_.push_back(Key{k.column, schema.column(k.column).type, k.descending});
  }
}

bool RowOrder::Before(const uint8_t* a, const uint8_t* b) const {
  // The accessors used here read only the row, never the schema.
  const TupleView x(a, nullptr);
  const TupleView y(b, nullptr);
  for (const Key& k : keys_) {
    const bool x_null = x.IsNull(k.column);
    const bool y_null = y.IsNull(k.column);
    if (x_null != y_null) return y_null;  // NULLs last.
    if (x_null) continue;
    int c = 0;
    if (k.type == DataType::kString) {
      c = x.GetString(k.column).compare(y.GetString(k.column));
    } else if (k.type == DataType::kDouble) {
      const double u = x.GetDouble(k.column);
      const double v = y.GetDouble(k.column);
      c = u < v ? -1 : (u > v ? 1 : 0);
    } else {
      const int64_t u = x.GetInt64(k.column);
      const int64_t v = y.GetInt64(k.column);
      c = u < v ? -1 : (u > v ? 1 : 0);
    }
    if (c != 0) return k.descending ? c > 0 : c < 0;
  }
  return false;
}

SortOperator::SortOperator(OperatorPtr child, std::vector<SortKey> keys)
    : order_(child->output_schema(), keys) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
}

Status SortOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  BUFFERDB_RETURN_IF_ERROR(child(0)->Open(ctx));
  sorted_.clear();
  pos_ = 0;

  const Schema& schema = child(0)->output_schema();
  DrainInput(child(0), batch_size_, &batch_rows_, [&](const uint8_t* row) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    ctx_->Touch(row, TupleView(row, &schema).size_bytes());
    sorted_.push_back(row);
  });
  std::stable_sort(sorted_.begin(), sorted_.end(),
                   [this](const uint8_t* a, const uint8_t* b) {
                     return order_.Before(a, b);
                   });
  loaded_ = true;
  return Status::OK();
}

const uint8_t* SortOperator::Next() {
  ctx_->ExecModule(module_id(), hot_funcs_);
  if (pos_ >= sorted_.size()) return nullptr;
  const uint8_t* row = sorted_[pos_++];
  ctx_->Touch(row, 64);
  return row;
}

void SortOperator::Close() {
  sorted_.clear();
  loaded_ = false;
  pos_ = 0;
  child(0)->Close();
}

Status SortOperator::Rescan() {
  if (!loaded_) return Open(ctx_);
  pos_ = 0;  // Input unchanged; just replay the sorted output.
  return Status::OK();
}

}  // namespace bufferdb

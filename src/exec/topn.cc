#include "exec/topn.h"

#include <algorithm>

namespace bufferdb {

TopNOperator::TopNOperator(OperatorPtr child, std::vector<SortKey> keys,
                           size_t limit)
    : order_(child->output_schema(), keys), limit_(limit) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
}

Status TopNOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  sorted_.clear();
  pos_ = 0;
  BUFFERDB_RETURN_IF_ERROR(child(0)->Open(ctx));
  if (limit_ == 0) return Status::OK();

  auto before = [this](const uint8_t* a, const uint8_t* b) {
    return order_.Before(a, b);
  };
  DrainInput(child(0), batch_size_, &batch_rows_, [&](const uint8_t* row) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    if (sorted_.size() < limit_) {
      sorted_.push_back(row);
      std::push_heap(sorted_.begin(), sorted_.end(), before);
    } else if (before(row, sorted_.front())) {
      // A row equal to the worst kept row is not taken.
      std::pop_heap(sorted_.begin(), sorted_.end(), before);
      sorted_.back() = row;
      std::push_heap(sorted_.begin(), sorted_.end(), before);
    }
    ctx_->Touch(sorted_.data(),
                sizeof(const uint8_t*) * std::min(sorted_.size(), size_t{8}));
  });
  std::sort_heap(sorted_.begin(), sorted_.end(), before);
  return Status::OK();
}

const uint8_t* TopNOperator::Next() {
  ctx_->ExecModule(module_id(), hot_funcs_);
  if (pos_ >= sorted_.size()) return nullptr;
  const uint8_t* row = sorted_[pos_++];
  ctx_->Touch(row, 64);
  return row;
}

void TopNOperator::Close() {
  sorted_.clear();
  pos_ = 0;
  child(0)->Close();
}

std::string TopNOperator::label() const {
  return "TopN(" + std::to_string(limit_) + ")";
}

}  // namespace bufferdb

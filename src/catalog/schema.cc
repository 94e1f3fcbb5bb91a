#include "catalog/schema.h"

#include <cassert>

namespace bufferdb {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  assert(columns_.size() <= kMaxColumns);
}

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Schema Schema::Concat(const Schema& left, const Schema& right,
                      std::span<const int> columns) {
  std::vector<Column> cols = left.columns_;
  cols.insert(cols.end(), right.columns_.begin(), right.columns_.end());
  if (columns.empty()) return Schema(std::move(cols));
  std::vector<Column> picked;
  picked.reserve(columns.size());
  for (int c : columns) picked.push_back(cols[c]);
  return Schema(std::move(picked));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += ":";
    out += DataTypeName(columns_[i].type);
  }
  out += ")";
  return out;
}

}  // namespace bufferdb

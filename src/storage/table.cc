#include "storage/table.h"

#include <algorithm>
#include <cassert>

#include "storage/column_table.h"

namespace bufferdb {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

Table::~Table() = default;

void Table::AttachColumnar(std::unique_ptr<ColumnarTable> columnar) {
  assert(!columnar || columnar->num_rows() == rows_.size());
  columnar_ = std::move(columnar);
}

const uint8_t* Table::AppendRow(const std::vector<Value>& values) {
  assert(values.size() == schema_.num_columns());
  TupleBuilder builder(&schema_);
  for (size_t i = 0; i < values.size(); ++i) builder.Set(i, values[i]);
  return Append(builder);
}

const uint8_t* Table::Append(const TupleBuilder& builder) {
  const uint8_t* row = builder.Finish(&arena_);
  rows_.push_back(row);
  stats_computed_ = false;
  columnar_.reset();
  return row;
}

const ColumnStats& Table::stats(size_t col) {
  if (!stats_computed_) {
    stats_.assign(schema_.num_columns(), ColumnStats());
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      if (!IsNumeric(schema_.column(c).type)) continue;
      ColumnStats& s = stats_[c];
      bool first = true;
      for (const uint8_t* row : rows_) {
        TupleView v(row, &schema_);
        if (v.IsNull(c)) {
          ++s.null_count;
          continue;
        }
        double x = schema_.column(c).type == DataType::kDouble
                       ? v.GetDouble(c)
                       : static_cast<double>(v.GetInt64(c));
        if (first) {
          s.min = s.max = x;
          first = false;
        } else {
          s.min = std::min(s.min, x);
          s.max = std::max(s.max, x);
        }
      }
      s.valid = !first;
    }
    stats_computed_ = true;
  }
  return stats_[col];
}

}  // namespace bufferdb

#include "storage/tuple.h"

#include <cassert>
#include <utility>

namespace bufferdb {

Value TupleView::GetValue(size_t col) const {
  if (IsNull(col)) return Value::Null(schema_->column(col).type);
  switch (schema_->column(col).type) {
    case DataType::kBool:
      return Value::Bool(GetBool(col));
    case DataType::kInt64:
      return Value::Int64(GetInt64(col));
    case DataType::kDouble:
      return Value::Double(GetDouble(col));
    case DataType::kDate:
      return Value::Date(GetDate(col));
    case DataType::kString:
      return Value::String(std::string(GetString(col)));
  }
  return Value();
}

std::string TupleView::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < schema_->num_columns(); ++i) {
    if (i > 0) out += ", ";
    out += GetValue(i).ToString();
  }
  out += "]";
  return out;
}

const uint8_t* TupleBuilder::Finish(Arena* arena) const {
  size_t fixed = schema_->fixed_bytes();
  size_t var_bytes = 0;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (schema_->column(i).type == DataType::kString && !values_[i].is_null()) {
      var_bytes += values_[i].string_value().size();
    }
  }
  size_t total = fixed + var_bytes;
  assert(total <= UINT32_MAX);
  uint8_t* row = arena->Allocate(total);

  uint32_t total32 = static_cast<uint32_t>(total);
  std::memcpy(row, &total32, 4);
  std::memset(row + 4, 0, 4);
  uint64_t bitmap = 0;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].is_null()) bitmap |= (uint64_t{1} << i);
  }
  std::memcpy(row + 8, &bitmap, 8);

  uint32_t var_offset = static_cast<uint32_t>(fixed);
  for (size_t i = 0; i < values_.size(); ++i) {
    uint8_t* slot = row + Schema::kHeaderBytes + 8 * i;
    const Value& v = values_[i];
    if (v.is_null()) {
      std::memset(slot, 0, 8);
      continue;
    }
    switch (schema_->column(i).type) {
      case DataType::kBool:
      case DataType::kInt64:
      case DataType::kDate: {
        int64_t x = v.int64_value();
        std::memcpy(slot, &x, 8);
        break;
      }
      case DataType::kDouble: {
        double x = v.type() == DataType::kDouble
                       ? v.double_value()
                       : v.AsDouble();  // Allow int-typed values.
        std::memcpy(slot, &x, 8);
        break;
      }
      case DataType::kString: {
        const std::string& s = v.string_value();
        uint64_t packed = (static_cast<uint64_t>(var_offset) << 32) |
                          static_cast<uint32_t>(s.size());
        std::memcpy(slot, &packed, 8);
        std::memcpy(row + var_offset, s.data(), s.size());
        var_offset += static_cast<uint32_t>(s.size());
        break;
      }
    }
  }
  return row;
}

namespace {

// The body of ConcatRows and CopyColumns: output column `out` copies column
// `source(out).second` of the row `*source(out).first`. A template, so that
// each caller's column mapping (for a full-width join row, the identity
// over two rows) compiles to a plain loop.
template <typename Source>
const uint8_t* CopySlots(const Schema& out_schema, Arena* arena,
                         Source source) {
  const size_t n = out_schema.num_columns();
  size_t fixed = out_schema.fixed_bytes();
  size_t var_bytes = 0;
  for (size_t out = 0; out < n; ++out) {
    if (out_schema.column(out).type != DataType::kString) continue;
    const auto [src, col] = source(out);
    if (!src->IsNull(col)) var_bytes += src->GetString(col).size();
  }
  size_t total = fixed + var_bytes;
  assert(total <= UINT32_MAX);
  uint8_t* row = arena->Allocate(total);
  uint32_t total32 = static_cast<uint32_t>(total);
  std::memcpy(row, &total32, 4);
  std::memset(row + 4, 0, 4);

  uint64_t bitmap = 0;
  uint32_t var_offset = static_cast<uint32_t>(fixed);
  for (size_t out = 0; out < n; ++out) {
    const auto [src, col] = source(out);
    uint8_t* slot = row + Schema::kHeaderBytes + 8 * out;
    if (src->IsNull(col)) {
      bitmap |= (uint64_t{1} << out);
      std::memset(slot, 0, 8);
      continue;
    }
    if (out_schema.column(out).type == DataType::kString) {
      std::string_view s = src->GetString(col);
      uint64_t packed = (static_cast<uint64_t>(var_offset) << 32) |
                        static_cast<uint32_t>(s.size());
      std::memcpy(slot, &packed, 8);
      std::memcpy(row + var_offset, s.data(), s.size());
      var_offset += static_cast<uint32_t>(s.size());
    } else {
      int64_t raw = src->GetInt64(col);  // Bit-copy works for all fixed.
      std::memcpy(slot, &raw, 8);
    }
  }
  std::memcpy(row + 8, &bitmap, 8);
  return row;
}

}  // namespace

const uint8_t* TupleBuilder::ConcatRows(const Schema& out_schema,
                                        const Schema& left_schema,
                                        const uint8_t* left,
                                        const Schema& right_schema,
                                        const uint8_t* right, Arena* arena,
                                        std::span<const int> columns) {
  const TupleView lv(left, &left_schema);
  const TupleView rv(right, &right_schema);
  const size_t ln = left_schema.num_columns();
  // Column c of the concatenation, as a (row, column) pair.
  auto side = [&lv, &rv, ln](size_t c) {
    return c < ln ? std::pair{&lv, c} : std::pair{&rv, c - ln};
  };
  if (columns.empty()) {
    assert(out_schema.num_columns() ==
           left_schema.num_columns() + right_schema.num_columns());
    return CopySlots(out_schema, arena, side);
  }
  assert(out_schema.num_columns() == columns.size());
  return CopySlots(out_schema, arena, [side, columns](size_t out) {
    return side(static_cast<size_t>(columns[out]));
  });
}

const uint8_t* TupleBuilder::CopyColumns(const Schema& out_schema,
                                         const Schema& in_schema,
                                         const uint8_t* row, Arena* arena,
                                         std::span<const int> columns) {
  assert(out_schema.num_columns() == columns.size());
  const TupleView view(row, &in_schema);
  return CopySlots(out_schema, arena, [&view, columns](size_t out) {
    return std::pair{&view, static_cast<size_t>(columns[out])};
  });
}

}  // namespace bufferdb

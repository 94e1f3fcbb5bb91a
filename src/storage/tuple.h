#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/arena.h"

namespace bufferdb {

/// Non-owning accessor over a packed row (layout described in
/// catalog/schema.h). Operators pass rows around as `const uint8_t*`; a
/// TupleView pairs a row pointer with its schema for typed access.
class TupleView {
 public:
  TupleView(const uint8_t* data, const Schema* schema)
      : data_(data), schema_(schema) {}

  const uint8_t* data() const { return data_; }
  const Schema& schema() const { return *schema_; }

  uint32_t size_bytes() const {
    uint32_t n;
    std::memcpy(&n, data_, 4);
    return n;
  }

  bool IsNull(size_t col) const {
    uint64_t bitmap;
    std::memcpy(&bitmap, data_ + 8, 8);
    return (bitmap >> col) & 1u;
  }

  int64_t GetInt64(size_t col) const {
    int64_t v;
    std::memcpy(&v, SlotPtr(col), 8);
    return v;
  }

  double GetDouble(size_t col) const {
    double v;
    std::memcpy(&v, SlotPtr(col), 8);
    return v;
  }

  bool GetBool(size_t col) const { return GetInt64(col) != 0; }
  int64_t GetDate(size_t col) const { return GetInt64(col); }

  std::string_view GetString(size_t col) const {
    uint64_t slot;
    std::memcpy(&slot, SlotPtr(col), 8);
    uint32_t offset = static_cast<uint32_t>(slot >> 32);
    uint32_t length = static_cast<uint32_t>(slot & 0xffffffffu);
    return std::string_view(reinterpret_cast<const char*>(data_ + offset),
                            length);
  }

  /// Boxed accessor (slower; used at API boundaries and in tests).
  Value GetValue(size_t col) const;

  std::string ToString() const;

 private:
  const uint8_t* SlotPtr(size_t col) const {
    return data_ + Schema::kHeaderBytes + 8 * col;
  }

  const uint8_t* data_;
  const Schema* schema_;
};

/// Builds packed rows into an arena. Reusable: Reset() between rows.
class TupleBuilder {
 public:
  explicit TupleBuilder(const Schema* schema)
      : schema_(schema), values_(schema->num_columns()) {}

  void Reset() {
    for (Value& v : values_) v = Value();
  }

  void Set(size_t col, Value v) { values_[col] = std::move(v); }
  void SetInt64(size_t col, int64_t v) { values_[col] = Value::Int64(v); }
  void SetDouble(size_t col, double v) { values_[col] = Value::Double(v); }
  void SetBool(size_t col, bool v) { values_[col] = Value::Bool(v); }
  void SetDate(size_t col, int64_t days) { values_[col] = Value::Date(days); }
  void SetString(size_t col, std::string s) {
    values_[col] = Value::String(std::move(s));
  }
  void SetNull(size_t col) {
    values_[col] = Value::Null(schema_->column(col).type);
  }

  /// Serializes the staged values into `arena` and returns the row pointer.
  const uint8_t* Finish(Arena* arena) const;

  /// Serializes the concatenation of two existing rows (join output) without
  /// going through boxed values. `left`/`right` follow `left_schema`/
  /// `right_schema`. With `columns` empty the row carries every column of
  /// both; otherwise output column i is column `columns[i]` of the
  /// concatenation, numbered as in Schema::Concat, and only those slots and
  /// strings are copied. `out_schema` must be
  /// Schema::Concat(left_schema, right_schema, columns). The row is
  /// byte-identical to Finish() over the same values.
  static const uint8_t* ConcatRows(const Schema& out_schema,
                                   const Schema& left_schema,
                                   const uint8_t* left,
                                   const Schema& right_schema,
                                   const uint8_t* right, Arena* arena,
                                   std::span<const int> columns = {});

  /// ConcatRows' column-list copy over one row (a projection of bare
  /// columns): output column i is column `columns[i]` of `row`, which
  /// follows `in_schema`. Byte-identical to Finish() over the same values.
  static const uint8_t* CopyColumns(const Schema& out_schema,
                                    const Schema& in_schema,
                                    const uint8_t* row, Arena* arena,
                                    std::span<const int> columns);

 private:
  const Schema* schema_;
  std::vector<Value> values_;
};

}  // namespace bufferdb


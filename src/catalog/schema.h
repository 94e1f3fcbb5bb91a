#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "catalog/value.h"

namespace bufferdb {

struct Column {
  std::string name;
  DataType type;
};

/// Ordered column list plus the physical row layout it implies.
///
/// Row layout (see storage/tuple.h):
///   [uint32 total_bytes][uint32 pad][uint64 null_bitmap]
///   [8-byte slot per column][var data]
/// Strings store (offset << 32 | length) in their slot; other types store the
/// value inline. At most 64 columns per schema (enforced at construction) —
/// enough for several joined TPC-H tables.
class Schema {
 public:
  static constexpr size_t kMaxColumns = 64;
  static constexpr size_t kHeaderBytes = 16;

  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column named `name`, or -1.
  int FindColumn(const std::string& name) const;

  /// Bytes of the fixed-size part of a row (header + slots).
  size_t fixed_bytes() const { return kHeaderBytes + 8 * columns_.size(); }

  /// Join-output schema: the columns of `left` followed by those of
  /// `right`, names unchanged (a name on both sides appears twice). With
  /// `columns`, only those columns of that concatenation, in that order:
  /// entry c < left.num_columns() is left column c, any other is right
  /// column c - left.num_columns().
  static Schema Concat(const Schema& left, const Schema& right,
                       std::span<const int> columns = {});

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace bufferdb


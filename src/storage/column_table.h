#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "expr/dict_view.h"

namespace bufferdb {

class Table;

/// Rows per zone-map block. Matches the default morsel size so a morsel
/// never straddles more blocks than necessary.
constexpr size_t kZoneBlockRows = 4096;

/// Per-block min/max/null statistics for zone-map pruning (DESIGN.md §12).
/// For string columns min/max live in dictionary-code space; the dictionary
/// is sorted, so code order is string order and the same pruning rules
/// apply.
struct ZoneMap {
  size_t rows = 0;
  uint64_t null_count = 0;
  bool has_nan = false;  // kDouble only: block holds a NaN, min/max unusable.
  int64_t min_i64 = 0;   // kBool/kInt64/kDate/kString(code).
  int64_t max_i64 = 0;
  double min_f64 = 0;  // kDouble.
  double max_f64 = 0;
};

/// One column of a ColumnarTable: a contiguous typed array plus a byte-per-
/// row null vector, with per-block zone maps. Exactly one payload array is
/// populated, selected by `type`:
///   kInt64/kDate  -> i64 (value, NULL rows store 0)
///   kBool         -> i64 (normalized 0/1, NULL rows store 0)
///   kDouble       -> f64 (NULL rows store 0.0)
///   kString       -> codes (int32 index into `dict`, NULL rows store 0)
/// The zero-payload-under-NULL normalization matches the ColumnVector
/// invariant (expr/vector.h), which is what makes zero-copy aliasing of
/// these arrays into the vectorized engine legal.
struct ColumnSegment {
  DataType type = DataType::kInt64;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<int32_t> codes;
  std::vector<uint8_t> nulls;     // 1 = NULL, byte per row.
  std::vector<std::string> dict;  // kString: sorted unique non-NULL values.
  std::vector<ZoneMap> zones;
};

/// Columnar image of a packed-row Table: per-column typed segments built at
/// load time, row-aligned with the table's row vector (segment index i holds
/// the decode of table.row(i)). The row store stays authoritative — the
/// batch currency of the engine is still packed-row pointers — the columnar
/// image exists so ColumnScan can publish SoA vectors by aliasing these
/// arrays instead of re-decoding rows.
class ColumnarTable : public DictView {
 public:
  /// Decodes every row of `table` into typed segments, builds sorted
  /// dictionaries for string columns and zone maps for every column.
  static std::unique_ptr<ColumnarTable> Build(const Table& table);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return segments_.size(); }
  const ColumnSegment& segment(size_t col) const { return segments_[col]; }

  // DictView implementation (string predicate compilation on codes).
  bool HasDict(int col) const override;
  int64_t CodeOf(int col, std::string_view s) const override;
  bool PrefixRange(int col, std::string_view prefix, int64_t* lo,
                   int64_t* hi) const override;
  int64_t LowerBound(int col, std::string_view s) const override;
  int64_t UpperBound(int col, std::string_view s) const override;

 private:
  ColumnarTable() = default;

  size_t num_rows_ = 0;
  std::vector<ColumnSegment> segments_;
};

}  // namespace bufferdb

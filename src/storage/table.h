#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/arena.h"
#include "storage/tuple.h"

namespace bufferdb {

class ColumnarTable;

/// Per-column min/max/count statistics used by the planner's cardinality
/// estimation (numeric columns only).
struct ColumnStats {
  bool valid = false;
  double min = 0;
  double max = 0;
  uint64_t null_count = 0;
};

/// Memory-resident append-only table of packed rows. Rows live in the
/// table's arena for the lifetime of the table (the paper's experiments are
/// all on a memory-resident database).
class Table {
 public:
  // Both out of line: ColumnarTable is incomplete here, and inline
  // definitions would instantiate its unique_ptr destructor.
  Table(std::string name, Schema schema);
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Appends a row of boxed values. Returns the stored row pointer.
  const uint8_t* AppendRow(const std::vector<Value>& values);

  /// Appends an already-staged builder row. Marks the cached stats stale
  /// and drops the columnar image, which no longer covers every row.
  const uint8_t* Append(const TupleBuilder& builder);

  size_t num_rows() const { return rows_.size(); }
  const uint8_t* row(size_t i) const { return rows_[i]; }
  const std::vector<const uint8_t*>& rows() const { return rows_; }

  TupleView view(size_t i) const { return TupleView(rows_[i], &schema_); }

  /// Computes (and caches) column statistics.
  const ColumnStats& stats(size_t col);

  /// Attaches a columnar image of this table (storage/column_table.h),
  /// row-aligned with rows(). Loaders call this once after the last append;
  /// the planner substitutes ColumnScan for SeqScan when an image exists.
  /// A later Append drops the image, so plan after the last append.
  void AttachColumnar(std::unique_ptr<ColumnarTable> columnar);
  const ColumnarTable* columnar() const { return columnar_.get(); }

 private:
  std::string name_;
  Schema schema_;
  Arena arena_;
  std::vector<const uint8_t*> rows_;
  std::vector<ColumnStats> stats_;
  bool stats_computed_ = false;
  std::unique_ptr<ColumnarTable> columnar_;
};

}  // namespace bufferdb


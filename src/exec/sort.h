#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace bufferdb {

/// One ORDER BY key: a column of the sorted input.
struct SortKey {
  int column;
  bool descending = false;
};

/// The order sort keys put on packed rows of one schema, read straight from
/// the rows: BOOL, INT64 and DATE compare as int64 slots, DOUBLE with < and
/// > (as Value::Compare does), STRING as bytes. NULLs sort last in either
/// direction. Sort and TopN share it.
class RowOrder {
 public:
  RowOrder(const Schema& schema, const std::vector<SortKey>& keys);

  /// True if row `a` sorts strictly before row `b`.
  bool Before(const uint8_t* a, const uint8_t* b) const;

 private:
  struct Key {
    int column;
    DataType type;
    bool descending;
  };
  std::vector<Key> keys_;
};

/// Passes every row of `input` to `take`. With `batch_size` > 1 the rows
/// arrive through NextBatch in slices staged in `staging`, otherwise one
/// Next() call at a time.
template <typename Take>
void DrainInput(Operator* input, size_t batch_size,
                std::vector<const uint8_t*>* staging, Take take) {
  if (batch_size <= 1) {
    while (const uint8_t* row = input->Next()) take(row);
    return;
  }
  staging->resize(batch_size);
  while (size_t n = input->NextBatch(staging->data(), batch_size)) {
    for (size_t i = 0; i < n; ++i) take((*staging)[i]);
  }
}

/// Blocking in-memory sort. Drains its child on Open (all experiments are
/// memory-resident), stable-sorts the row pointers by the key columns, then
/// emits. As a pipeline breaker it "already buffers query execution below
/// it" (§6) and is never part of an execution group.
class SortOperator final : public Operator {
 public:
  SortOperator(OperatorPtr child, std::vector<SortKey> keys);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;
  [[nodiscard]] Status Rescan() override;

  /// With `n > 1`, Open drains the child through NextBatch in slices of
  /// `n` rows; otherwise through Next().
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }

  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return sim::ModuleId::kSort; }
  bool BlocksInput(size_t i) const override { return i == 0; }
  std::string label() const override { return "Sort"; }

 private:
  RowOrder order_;
  size_t batch_size_ = 1;
  std::vector<const uint8_t*> batch_rows_;  // NextBatch staging.
  std::vector<const uint8_t*> sorted_;
  size_t pos_ = 0;
  bool loaded_ = false;
};

}  // namespace bufferdb

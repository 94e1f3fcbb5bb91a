#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/sort.h"

namespace bufferdb {

/// ORDER BY ... LIMIT n via a bounded heap: keeps only the current best n
/// rows while consuming the input, then emits them in order. Blocking, but
/// with O(n) memory instead of materializing the whole input like Sort.
class TopNOperator final : public Operator {
 public:
  TopNOperator(OperatorPtr child, std::vector<SortKey> keys, size_t limit);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  /// With `n > 1`, Open drains the child through NextBatch in slices of
  /// `n` rows; otherwise through Next().
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }

  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return sim::ModuleId::kTopN; }
  bool BlocksInput(size_t i) const override { return i == 0; }
  std::string label() const override;

 private:
  RowOrder order_;
  size_t limit_;
  size_t batch_size_ = 1;
  std::vector<const uint8_t*> batch_rows_;  // NextBatch staging.
  // While loading, a max-heap on RowOrder::Before (top = worst kept row);
  // then the kept rows in order.
  std::vector<const uint8_t*> sorted_;
  size_t pos_ = 0;
};

}  // namespace bufferdb

#pragma once

#include <memory>
#include <string>
#include <unordered_set>

#include "exec/operator.h"

namespace bufferdb {

/// Hash-based duplicate elimination over whole rows (SELECT DISTINCT), keyed
/// by the rows' group-key bytes (AppendGroupKey per column). Pipelined:
/// each first occurrence flows through immediately.
class DistinctOperator final : public Operator {
 public:
  explicit DistinctOperator(OperatorPtr child);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return sim::ModuleId::kDistinct; }
  std::string label() const override { return "Distinct"; }

  size_t num_distinct() const { return seen_.size(); }

 private:
  std::unordered_set<std::string> seen_;
  std::string key_;  // The current row's key.
};

}  // namespace bufferdb


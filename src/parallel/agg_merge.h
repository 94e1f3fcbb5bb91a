#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/aggregation.h"
#include "exec/operator.h"

namespace bufferdb::parallel {

/// Decomposes the SELECT-list aggregates into the partial aggregates each
/// worker fragment computes locally (classic two-phase parallel
/// aggregation): every aggregate becomes its input COUNT, and SUM/AVG/MIN/
/// MAX add one value column (AVG its SUM). The returned specs drive a
/// fragment-local AggregationOperator; argument expressions are cloned.
///
/// The column layout is deterministic — AggregateMergeOperator derives the
/// same layout from the final specs to locate its input columns.
std::vector<AggSpec> MakePartialAggSpecs(const std::vector<AggSpec>& specs);

/// Combines the one partial-aggregate row each worker fragment emits (via
/// the Exchange) into the single final row the query reports, with the
/// exact output schema a serial AggregationOperator would produce. Each
/// partial row is read back into an AggAccumulator and folded in through
/// AggAccumulator::Merge, so the merge shares the serial state layout.
/// Summation order over fragments is arrival order, so double-typed SUM/AVG
/// results can differ from the serial plan in the last ulp.
class AggregateMergeOperator final : public Operator {
 public:
  /// `specs` are the *final* SELECT-list aggregates; `child` must produce
  /// rows matching MakePartialAggSpecs(specs).
  AggregateMergeOperator(OperatorPtr child, std::vector<AggSpec> specs);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kAggregation;
  }
  std::string label() const override;

  const std::vector<AggSpec>& specs() const { return specs_; }

 private:
  std::vector<AggSpec> specs_;
  std::vector<size_t> first_col_;  // First partial column of each spec.
  Schema output_schema_;
  bool done_ = false;
};

}  // namespace bufferdb::parallel


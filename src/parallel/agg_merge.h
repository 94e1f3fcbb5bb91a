#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/aggregation.h"
#include "exec/operator.h"

namespace bufferdb::parallel {

/// Decomposes the SELECT-list aggregates into the partial aggregates each
/// worker fragment computes locally (classic two-phase parallel
/// aggregation): every aggregate becomes its input COUNT, and SUM/AVG/MIN/
/// MAX add one value column (AVG its SUM). The returned specs drive a
/// fragment-local AggregationOperator, or a HashAggregationOperator over
/// the query's group keys; argument expressions are cloned.
///
/// The column layout is deterministic — AggregateMergeOperator derives the
/// same layout from the final specs to locate its input columns.
std::vector<AggSpec> MakePartialAggSpecs(const std::vector<AggSpec>& specs);

/// Combines the partial-aggregate rows the worker fragments emit (via the
/// Exchange) into the rows the query reports, with the exact output schema
/// a serial AggregationOperator (no group keys) or HashAggregationOperator
/// would produce. Input rows are `num_keys` group-key columns followed by
/// the partial columns; rows whose keys encode to the same bytes
/// (AppendGroupKey) belong to one group, so NULL keys form one group and
/// distinct doubles never merge. Each partial row is read back into an
/// AggAccumulator and folded into its group through AggAccumulator::Merge,
/// so the merge shares the serial state layout. Groups are emitted in
/// first-seen order; with no group keys there is exactly one, even over an
/// empty input. Summation order over fragments is arrival order, so
/// double-typed SUM/AVG results can differ from the serial plan in the last
/// ulp.
class AggregateMergeOperator final : public Operator {
 public:
  /// `specs` are the *final* SELECT-list aggregates; `child` must produce
  /// rows of `num_keys` key columns followed by MakePartialAggSpecs(specs).
  AggregateMergeOperator(OperatorPtr child, size_t num_keys,
                         std::vector<AggSpec> specs);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kAggregation;
  }
  std::string label() const override;

  size_t num_keys() const { return num_keys_; }
  const std::vector<AggSpec>& specs() const { return specs_; }

 private:
  void Load();
  void Reset();

  size_t num_keys_;
  std::vector<AggSpec> specs_;
  std::vector<size_t> first_col_;  // First partial column of each spec.
  Schema output_schema_;

  std::unordered_map<std::string, uint32_t> groups_;  // Key bytes -> group.
  std::vector<Value> key_values_;       // groups x keys, for emission.
  std::vector<AggAccumulator> states_;  // groups x aggregates.
  size_t emit_pos_ = 0;
  bool loaded_ = false;
};

}  // namespace bufferdb::parallel

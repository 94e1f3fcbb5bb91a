#pragma once

#include <string>
#include <vector>

#include "exec/aggregation.h"
#include "exec/hash_aggregation.h"
#include "exec/operator.h"

namespace bufferdb {

/// Grouped aggregation over input *sorted by the group keys*: emits a group
/// as soon as the key changes. Unlike HashAggregation it needs no hash
/// table and — unlike the blocking Sort that usually feeds it — it is a
/// pipelined operator that participates in execution groups. Output columns
/// are the group keys followed by the aggregates, in SELECT order.
///
/// Tuple-at-a-time only: NextBatch is the base-class loop over Next.
class StreamAggregationOperator final : public Operator {
 public:
  StreamAggregationOperator(OperatorPtr child, std::vector<GroupKeyExpr> groups,
                            std::vector<AggSpec> specs);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kStreamAggregation;
  }
  std::string label() const override;

 private:
  /// Builds the output row for the finished group.
  const uint8_t* EmitGroup();

  std::vector<GroupKeyExpr> groups_;
  std::vector<AggSpec> specs_;
  Schema output_schema_;

  std::vector<Value> current_keys_;
  std::vector<AggAccumulator> accs_;
  bool group_open_ = false;
  bool input_done_ = false;
};

}  // namespace bufferdb

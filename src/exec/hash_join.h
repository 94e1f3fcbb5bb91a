#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/row_batch_decoder.h"
#include "expr/expression.h"
#include "expr/vector_eval.h"

namespace bufferdb {

/// In-memory equi-hash-join. The build phase (child 1) runs during Open and
/// is blocking; the probe phase streams child 0. Build and probe are
/// separate instruction-footprint modules, matching the paper's Table 2
/// ("we treat build and probe phases of a HashJoin operator as two separate
/// modules"). module_id() reports the probe module — the code that runs
/// per pipeline tuple.
///
/// With `set_probe_batch_size(n > 1)` the probe side consumes its input
/// through NextBatch: probe keys and bucket heads for the whole batch are
/// computed up front with software prefetches issued for the buckets (and
/// first chain nodes) of tuples ahead in the batch, so the DRAM misses of
/// independent probes overlap instead of serializing. Default is the
/// paper-faithful tuple-at-a-time probe.
///
/// `columns` (optional) narrows the output row to those columns of
/// Concat(probe, build), numbered as in Schema::Concat; only they are
/// copied. A residual predicate is bound to the output schema.
class HashJoinOperator final : public Operator {
 public:
  HashJoinOperator(OperatorPtr probe, OperatorPtr build, ExprPtr probe_key,
                   ExprPtr build_key, ExprPtr residual_predicate = nullptr,
                   std::vector<int> columns = {});

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kHashJoinProbe;
  }
  bool BlocksInput(size_t i) const override { return i == 1; }
  std::string label() const override { return "HashJoin"; }

  size_t build_size() const { return nodes_.size(); }

  /// Probe-side batch width; <= 1 selects the tuple-at-a-time probe.
  /// Takes effect at the next Open.
  void set_probe_batch_size(size_t n) { probe_batch_size_ = n == 0 ? 1 : n; }
  size_t probe_batch_size() const { return probe_batch_size_; }

  /// Non-null when the respective key expression compiled to a kernel
  /// program (test hooks). Compiled keys are used on the batched probe path
  /// and the batched build; the residual predicate always stays on the
  /// interpreter (it runs per join match, not per input tuple).
  const CompiledExpr* compiled_probe_key() const {
    return probe_compiled_.get();
  }
  const CompiledExpr* compiled_build_key() const {
    return build_compiled_.get();
  }

 private:
  struct Node {
    int64_t key;
    const uint8_t* row;
    int32_t next;  // Index into nodes_, or -1.
  };

  int32_t* BucketFor(int64_t key);
  void FetchProbeBatch();
  void InsertBuildRow(int64_t key, const uint8_t* row);

  ExprPtr probe_key_;
  ExprPtr build_key_;
  ExprPtr residual_predicate_;
  std::vector<int> columns_;
  Schema output_schema_;
  std::vector<sim::FuncId> build_funcs_;
  std::vector<sim::FuncId> build_batch_funcs_;

  // Compiled key programs (plan-time; nullptr -> interpreter). Only
  // programs with an int64-payload result (int64/date/bool) are kept —
  // keys are hashed through int64_value(), exactly like the interpreter.
  std::unique_ptr<CompiledExpr> probe_compiled_;
  std::unique_ptr<CompiledExpr> build_compiled_;
  VectorBatch probe_vbatch_;
  VectorBatch build_vbatch_;
  std::vector<const uint8_t*> build_rows_;  // Batched-build staging.

  std::vector<int32_t> buckets_;
  std::vector<Node> nodes_;
  const uint8_t* probe_row_ = nullptr;
  int64_t probe_key_value_ = 0;
  int32_t chain_ = -1;
  bool built_ = false;

  // Batched probe state (active when probe_batch_size_ > 1).
  size_t probe_batch_size_ = 1;
  std::vector<const uint8_t*> probe_rows_;
  std::vector<int64_t> probe_keys_;
  std::vector<uint64_t> probe_buckets_;  // Bucket index per row (pass 1).
  std::vector<int32_t> probe_chains_;    // Captured bucket head (pass 2).
  std::vector<uint8_t> probe_valid_;     // 0 for NULL probe keys.
  size_t probe_pos_ = 0;
  size_t probe_count_ = 0;
  bool probe_eof_ = false;
};

}  // namespace bufferdb


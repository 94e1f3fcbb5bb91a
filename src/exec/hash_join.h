#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/operator.h"
#include "exec/row_batch_decoder.h"
#include "expr/expression.h"
#include "expr/vector_eval.h"

namespace bufferdb {

namespace parallel {
class SharedJoinBuild;
}

/// A hash join's build side: a power-of-two directory of chain heads over a
/// flat node array. A serial join fills its own table row by row; the
/// fragments of a parallel plan share one table, linked once from the runs
/// their builders collected (parallel::SharedJoinBuild). Either way the
/// probe reads this one layout.
struct JoinHashTable {
  struct Node {
    int64_t key;
    const uint8_t* row;
    int32_t next;  // Index into nodes, or -1.
  };
  /// A build row as a parallel builder collects it, before linking.
  struct Entry {
    int64_t key;
    const uint8_t* row;
  };

  std::vector<int32_t> buckets;  // Chain heads, -1 when empty.
  std::vector<Node> nodes;

  /// Directory slot of `key`.
  size_t Slot(int64_t key) const {
    return SplitMix64(static_cast<uint64_t>(key)) & (buckets.size() - 1);
  }

  /// Replaces the contents with every entry of `runs`, in a directory of
  /// at least twice as many slots (and at least 1024).
  void Link(const std::vector<std::vector<Entry>>& runs);

  void Clear() {
    buckets.clear();
    nodes.clear();
  }
};

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
/// independent probes overlap instead of serializing. The build side is
/// then drained in batches too, and each side requests its compiled key's
/// input columns from its child (RequestColumns). Default is the
/// paper-faithful tuple-at-a-time probe.
///
/// `columns` (optional) narrows the output row to those columns of
/// Concat(probe, build), numbered as in Schema::Concat; only they are
/// copied. A residual predicate is bound to the output schema.
///
/// In a parallel plan every fragment's clone of the join shares one build
/// (ShareBuild): each clone drains its own morsels of the build scan, and
/// all of them probe the one table the builders link.
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

  size_t build_size() const { return table_->nodes.size(); }

  /// Makes this join one of the fragment clones that build and probe
  /// `build`'s table. The build child's scan must be bound to
  /// build->cursor(); the ExchangeOperator owning `build` resets it before
  /// each run. Set at plan time.
  void ShareBuild(parallel::SharedJoinBuild* build) { shared_ = build; }
  const parallel::SharedJoinBuild* shared_build() const { return shared_; }

  /// Probe-side batch width; <= 1 selects the tuple-at-a-time probe.
  /// Takes effect at the next Open.
  void set_probe_batch_size(size_t n) { probe_batch_size_ = n == 0 ? 1 : n; }

 private:
  using Node = JoinHashTable::Node;

  /// Feeds every build row with a non-NULL key to `sink(key, row)`.
  template <typename Sink>
  void DrainBuild(Sink sink);
  /// This clone's part of a shared build; returns once the table is
  /// complete, with the first error any builder handed in.
  [[nodiscard]] Status BuildShared();
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
  std::vector<int64_t> build_keys_;
  std::vector<uint8_t> build_valid_;

  JoinHashTable own_table_;  // Filled by the serial build.
  parallel::SharedJoinBuild* shared_ = nullptr;
  const JoinHashTable* table_ = &own_table_;  // The table the probe reads.
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


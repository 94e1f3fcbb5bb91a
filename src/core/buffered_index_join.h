#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/operator.h"
#include "expr/expression.h"

namespace bufferdb {

/// Extension (Zhou & Ross, "Buffering Accesses to Memory-Resident Index
/// Structures"): an index nested-loop join that *batches* its index probes.
///
/// Instead of probing the B+-tree once per outer tuple — interleaving outer
/// scan, join and index code per tuple — it drains up to `batch_size` outer
/// tuples, sorts the batch by join key, then probes the index for the whole
/// batch back-to-back. This buys the paper's instruction locality (the
/// index code runs in a long run) *plus* data-cache locality in the tree
/// (sorted probes revisit the same upper-level nodes consecutively).
///
/// Output rows within a batch are ordered by join key, not by outer order
/// (the join is still an equi inner join with identical result multiset).
/// `columns` (optional) narrows the output row to those columns of
/// Concat(outer, index table), as in HashJoinOperator.
class BufferedIndexJoinOperator final : public Operator {
 public:
  BufferedIndexJoinOperator(OperatorPtr outer, const IndexInfo* index,
                            ExprPtr outer_key_expr, size_t batch_size = 1000,
                            std::vector<int> columns = {});

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kNestLoopJoin;
  }
  std::string label() const override;

  uint64_t batches() const { return batches_; }

 private:
  /// Fills probe results for the next batch of outer tuples; returns false
  /// at end of input.
  bool FillBatch();

  const IndexInfo* index_;
  ExprPtr outer_key_expr_;
  size_t batch_size_;
  std::vector<int> columns_;
  Schema output_schema_;

  std::vector<sim::FuncId> probe_funcs_;  // Index-descent code.
  std::vector<sim::FuncId> sort_funcs_;   // Once-per-batch key sort.
  std::vector<const uint8_t*> results_;
  size_t pos_ = 0;
  bool outer_done_ = false;
  uint64_t batches_ = 0;
};

}  // namespace bufferdb


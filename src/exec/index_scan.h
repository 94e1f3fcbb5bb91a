#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/operator.h"
#include "expr/expression.h"
#include "expr/vector.h"
#include "expr/vector_eval.h"

namespace bufferdb {

/// B+-tree index scan over a key range [lo, hi], or over a single bound key
/// when used as the inner of an index nested-loop join (BindEqualKey +
/// Rescan, the Volcano "parameterized rescan" idiom).
///
/// Next() is the paper's per-entry walk. NextBatch() copies whole leaf runs
/// of the bound interval and then applies the residual predicate column at
/// a time (the compiled program, the interpreter when it did not compile).
/// Both walk one iterator, so mixing the two calls drains one stream. The
/// index join's batch path probes through SeekEqual, NextRun and
/// SelectResidual, the same descent, leaf walk and residual.
class IndexScanOperator final : public Operator {
 public:
  IndexScanOperator(const IndexInfo* index, std::optional<int64_t> lo_key,
                    std::optional<int64_t> hi_key, ExprPtr residual_predicate);

  /// Switches to equality mode; effective after the next Rescan().
  void BindEqualKey(int64_t key);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  size_t NextBatch(const uint8_t** out, size_t max) override;
  void Close() override;
  [[nodiscard]] Status Rescan() override;

  /// Equality mode positioned at `key`, like BindEqualKey + Rescan. When
  /// `key` is the key of the previous SeekEqual, the walk restarts where
  /// that key's entries begin instead of descending the tree again. A key
  /// above it walks forward from there when its first entry lies in that
  /// leaf or the next one (BTree::Iterator::SeekForward); only a smaller
  /// key, or one further on, descends from the root.
  void SeekEqual(int64_t key);

  /// New SeekEqual keys since Open that walked forward, and that descended
  /// from the root (test and measurement hooks).
  uint64_t forward_seeks() const { return forward_seeks_; }
  uint64_t descents() const { return descents_; }

  /// Copies up to `max` rows of the bound interval's remaining entries into
  /// `out`, whole leaf runs at a time, with no residual applied; 0 when the
  /// interval is exhausted.
  size_t NextRun(const uint8_t** out, size_t max);

  /// Fills `sel` with the ascending indexes of the rows of `rows[0..n)`
  /// that pass the residual predicate and returns their count; without a
  /// residual every row passes.
  size_t SelectResidual(const uint8_t* const* rows, size_t n,
                        SelectionVector* sel);

  const Schema& output_schema() const override {
    return index_->table->schema();
  }
  sim::ModuleId module_id() const override { return sim::ModuleId::kIndexScan; }
  std::string label() const override;

  const IndexInfo* index() const { return index_; }
  std::optional<int64_t> lo_key() const { return lo_key_; }
  std::optional<int64_t> hi_key() const { return hi_key_; }
  /// The predicate applied to the rows of the key range; null when none.
  const Expression* residual() const { return residual_predicate_.get(); }

 private:
  void Position();

  const IndexInfo* index_;
  std::optional<int64_t> lo_key_;
  std::optional<int64_t> hi_key_;
  std::optional<int64_t> equal_key_;
  ExprPtr residual_predicate_;
  std::unique_ptr<CompiledExpr> compiled_;  // Null when none/uncompilable.
  BTree::Iterator it_;
  std::vector<const void*> touched_nodes_;
  // Where the entries of the last SeekEqual key begin.
  std::optional<int64_t> seek_key_;
  BTree::Iterator seek_start_;
  uint64_t forward_seeks_ = 0;
  uint64_t descents_ = 0;
  VectorBatch vbatch_;  // Residual inputs of the rows being filtered.
  SelectionVector sel_;
};

}  // namespace bufferdb

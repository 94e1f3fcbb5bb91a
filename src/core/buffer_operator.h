#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace bufferdb {

/// The paper's light-weight buffer operator (§5, Fig. 6).
///
/// Implements the standard open-next-close interface. On demand it drains up
/// to `buffer_size` tuple *pointers* from its child into an array, then
/// serves subsequent GetNext() calls from the array without executing any
/// child code. This turns the per-tuple parent/child instruction
/// interleaving `PCPCPC...` into `PCC...CPP...P` (Fig. 1), restoring
/// instruction-cache temporal locality below and above it.
///
/// Tuples are not copied — only pointers are stored (copying would "reduce
/// the benefit of buffering instructions"); the tuples live in the query
/// arena / base tables until the query completes. `copy_tuples` enables the
/// copying variant as an ablation.
///
/// Capacity is fixed at construction, as in the paper (Fig. 12 sizes it
/// offline at ~1000 entries).
class BufferOperator final : public Operator {
 public:
  static constexpr size_t kDefaultBufferSize = 1000;

  explicit BufferOperator(OperatorPtr child,
                          size_t buffer_size = kDefaultBufferSize,
                          bool copy_tuples = false);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  /// Batch fast path: hands out a slice of the already-materialized pointer
  /// array. No tuple is touched — only `min(max, remaining)` pointers are
  /// copied out — so a batch-aware parent drains one refill in
  /// ~`buffer_size/max` calls instead of `buffer_size` virtual Next()s,
  /// and the buffer module's per-tuple code is amortized per slice. A
  /// refill it triggers fills the array through the child's NextBatch, so
  /// the batch transfer reaches below the buffer too; a refill triggered by
  /// Next() (the paper's path) and the copying ablation pull per tuple.
  size_t NextBatch(const uint8_t** out, size_t max) override;

  /// Replay optimization: when the child was fully drained into a single
  /// buffer fill, re-positioning just resets the array cursor — the child
  /// is not re-executed. Big win for nested-loop inner sides. Falls back to
  /// the default Close+Open re-execution otherwise.
  [[nodiscard]] Status Rescan() override;

  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return sim::ModuleId::kBuffer; }
  std::string label() const override;

  size_t buffer_size() const { return buffer_size_; }
  /// Number of times the array was (re)filled from the child.
  uint64_t refills() const { return refills_; }
  /// Number of times Rescan() replayed the array instead of re-executing
  /// the child.
  uint64_t replays() const { return replays_; }
  /// Tuples drained into the array since the last Open
  /// (tuples_buffered()/refills() is the mean fill).
  uint64_t tuples_buffered() const { return total_buffered_; }
  /// Debug counter: times the pointer array's storage moved after Open.
  /// The array is reserved once per Open and reused across refills, so this
  /// must stay 0 for the hot loop to be allocation-free.
  uint64_t buffer_reallocs() const { return buffer_reallocs_; }

 private:
  /// Refills the array from the child: through NextBatch when `batch`
  /// (the parent is draining this buffer through NextBatch), else per tuple.
  void Refill(bool batch);

  size_t buffer_size_;
  bool copy_tuples_;
  std::vector<const uint8_t*> buffer_;
  const uint8_t** buffer_base_ = nullptr;  // buffer_.data() at Open.
  size_t pos_ = 0;
  size_t filled_ = 0;
  bool end_of_tuples_ = false;
  uint64_t refills_ = 0;
  uint64_t replays_ = 0;
  uint64_t buffer_reallocs_ = 0;
  uint64_t total_buffered_ = 0;
};

/// Post-run stats for one BufferOperator, for EXPLAIN/bench output.
struct BufferRuntimeStats {
  std::string label;
  size_t capacity = 0;
  uint64_t refills = 0;
  uint64_t tuples_buffered = 0;
};

/// Walks an executed plan and appends one BufferRuntimeStats per
/// BufferOperator found (pre-order). Decorator nodes (profilers, contract
/// checkers) are traversed through via the child links.
void CollectBufferStats(const Operator& root,
                        std::vector<BufferRuntimeStats>* out);

}  // namespace bufferdb

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_buffer.h"
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
/// Capacity is normally fixed at construction; EnableAdaptive() attaches an
/// AdaptiveBufferController that re-sizes the buffer at refill boundaries
/// and can demote it to pass-through (DESIGN.md §14).
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
  /// the default Close+Open re-execution otherwise. A demoted (pass-through)
  /// buffer forwards Rescan to the child.
  [[nodiscard]] Status Rescan() override;

  /// In pass-through mode NextBatch() hands out the child's slices
  /// unmodified, so the child's published columns stay valid for them.
  const VectorBatch* BatchColumns() const override {
    return pass_through_ ? child(0)->BatchColumns() : nullptr;
  }

  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return sim::ModuleId::kBuffer; }
  std::string label() const override;
  std::string AnalyzeDetail() const override;

  /// Attaches a runtime controller (call before Open). The buffer then
  /// starts each refill at the capacity the controller picks, and demotes
  /// to pass-through when the controller says the stream is too short for
  /// buffering to pay off.
  void EnableAdaptive(const AdaptiveBufferOptions& options);
  const AdaptiveBufferController* controller() const {
    return controller_.get();
  }

  /// Changes the refill capacity. Takes effect at the *next* refill (or
  /// Open), never mid-window: in-flight NextBatch slices and a pending
  /// Rescan replay are untouched, so resizing is always stream-transparent.
  /// Growing within the Open-time high-water reservation (the adaptive
  /// sweep's max_capacity) never reallocates; a manual Resize beyond it may,
  /// and buffer_reallocs() counts it.
  void Resize(size_t new_size);

  size_t buffer_size() const { return buffer_size_; }
  /// Capacity configured at construction, before any adaptive re-sizing.
  size_t initial_buffer_size() const { return initial_size_; }
  /// True once the controller demoted this buffer: Next/NextBatch forward
  /// straight to the child (the unbuffered PCPC path).
  bool pass_through() const { return pass_through_; }
  /// Number of times the array was (re)filled from the child.
  uint64_t refills() const { return refills_; }
  /// Number of times Rescan() replayed the array instead of re-executing
  /// the child.
  uint64_t replays() const { return replays_; }
  /// Tuples drained into the array since the last Open (per-refill stats:
  /// tuples_buffered()/refills() is the mean fill, last_refill_tuples() the
  /// final — usually partial — fill).
  uint64_t tuples_buffered() const { return total_buffered_; }
  uint64_t last_refill_tuples() const { return last_refill_tuples_; }
  /// Debug counter: times the pointer array's storage moved after Open.
  /// The array is reserved once per Open and reused across refills, so this
  /// must stay 0 for the hot loop to be allocation-free.
  uint64_t buffer_reallocs() const { return buffer_reallocs_; }

 private:
  /// Refills the array from the child: through NextBatch when `batch`
  /// (the parent is draining this buffer through NextBatch), else per tuple.
  void Refill(bool batch);

  size_t buffer_size_;
  size_t initial_size_;
  bool copy_tuples_;
  std::vector<const uint8_t*> buffer_;
  const uint8_t** buffer_base_ = nullptr;  // buffer_.data() at Open.
  size_t pos_ = 0;
  size_t filled_ = 0;
  size_t pending_resize_ = 0;  // 0 = none; applied at the next refill/Open.
  bool end_of_tuples_ = false;
  bool pass_through_ = false;
  uint64_t refills_ = 0;
  uint64_t replays_ = 0;
  uint64_t buffer_reallocs_ = 0;
  uint64_t total_buffered_ = 0;
  uint64_t last_refill_tuples_ = 0;
  std::unique_ptr<AdaptiveBufferController> controller_;
};

}  // namespace bufferdb

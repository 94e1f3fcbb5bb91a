#pragma once

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "parallel/morsel.h"
#include "parallel/shared_join_build.h"
#include "parallel/thread_pool.h"
#include "parallel/tuple_queue.h"

namespace bufferdb::parallel {

/// Intra-query parallelism behind the open-next-close interface.
///
/// The Exchange owns N structurally identical child pipeline *fragments*
/// (its children in the plan tree) that divide one pipeline's work. Each
/// fragment's driving scan is bound to one shared MorselCursor, so the base
/// table is partitioned dynamically at morsel granularity, and each hash
/// join's clones share one SharedJoinBuild: its own build-side cursor and
/// the one table every clone probes. Open launches one pool task per
/// fragment; every task runs its fragment to completion with a **private
/// ExecContext** (own arena, and no SimCpu unless EnableFragmentSimulation
/// was called — the simulator is not thread-safe, see exec/operator.h),
/// draining it through NextBatch, and pushes the produced row pointers, in
/// batches, into a bounded MPSC TupleQueue.
/// Next() merges the batches in arrival order; parents above the Exchange
/// are ordinary single-threaded operators and need no changes.
///
/// The Exchange owns all shared per-run state (the driving cursor and the
/// joins' builds) and resets it in Open, before any worker starts.
///
/// Buffering composes per worker: the plan refiner treats the Exchange as a
/// group boundary (it is constructed excluded-from-buffering) and inserts
/// BufferOperators *inside* each fragment, so every core gets the paper's
/// PCC...CPP...P instruction locality independently. A fragment root gets
/// no Buffer (DrainsInputAsRoot): its worker already drains it in batches.
///
/// Row lifetime: fragment arenas are kept alive until the next Open (or
/// destruction), not released in Close, because callers read row pointers
/// after draining the plan (see ExecutePlanRows), and a shared hash table
/// points into the arenas of the fragments that built it.
///
/// Output order is nondeterministic across runs; the Exchange must only be
/// placed where parents are order-insensitive (the planner puts it below
/// aggregation / sort / distinct).
class ExchangeOperator final : public Operator {
 public:
  static constexpr size_t kDefaultBatchRows = 1024;
  static constexpr size_t kDefaultQueueBatches = 64;

  /// `cursor` may be null when the fragments partition work by other means;
  /// when set it is Reset on every Open, and so is every one of `builds`
  /// (the fragments' shared hash-join builds). `pool` defaults to
  /// ThreadPool::Global().
  ExchangeOperator(std::vector<OperatorPtr> fragments,
                   std::unique_ptr<MorselCursor> cursor,
                   std::vector<std::unique_ptr<SharedJoinBuild>> builds = {},
                   ThreadPool* pool = nullptr,
                   size_t batch_rows = kDefaultBatchRows,
                   size_t queue_batches = kDefaultQueueBatches);
  ~ExchangeOperator() override;

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  /// Batch fast path: forwards the TupleQueue's already-batched pops as
  /// slices instead of re-serializing them into per-tuple calls — the
  /// worker-side batching survives the thread boundary.
  size_t NextBatch(const uint8_t** out, size_t max) override;

  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return sim::ModuleId::kBuffer; }
  std::string label() const override;
  /// A worker drains its fragment in batches of `batch_rows`, as a Buffer
  /// would.
  bool DrainsInputAsRoot(size_t) const override { return true; }

  /// First error raised by a worker fragment (fragment Open failure, an
  /// error its stream ended on, or an exception). Next() ends the stream
  /// early on error; at the end of the stream the Exchange also records it
  /// into its consumer's ExecContext (ExecContext::error), which
  /// ExecutePlan* return.
  [[nodiscard]] Status error() const;

  /// Gives every fragment its own SimCpu (instead of none) so the simulated
  /// counters can be inspected per worker without racing on the consumer's
  /// simulator. Takes effect at the next Open.
  void EnableFragmentSimulation(const sim::SimConfig& config);
  const sim::SimCpu* fragment_cpu(size_t i) const {
    return fragment_cpus_.size() > i ? fragment_cpus_[i].get() : nullptr;
  }

  size_t degree() const { return num_children(); }
  const MorselCursor* cursor() const { return cursor_.get(); }
  const std::vector<std::unique_ptr<SharedJoinBuild>>& builds() const {
    return builds_;
  }

 private:
  void RunFragment(size_t index);
  /// Pops the next batch into current_; at the end of the stream records
  /// the workers' error into ctx_ and returns false. Consumer thread only.
  bool PopBatch();
  void RecordError(Status status);
  void JoinWorkers();

  std::unique_ptr<MorselCursor> cursor_;
  std::vector<std::unique_ptr<SharedJoinBuild>> builds_;
  ThreadPool* pool_;
  size_t batch_rows_;
  size_t queue_batches_;

  bool simulate_fragments_ = false;
  sim::SimConfig fragment_sim_config_;

  // Per-run state. Contexts outlive Close (see class comment).
  std::vector<std::unique_ptr<ExecContext>> fragment_ctxs_;
  std::vector<std::unique_ptr<sim::SimCpu>> fragment_cpus_;
  std::unique_ptr<TupleQueue> queue_;
  std::vector<std::future<void>> workers_;
  TupleQueue::Batch current_;
  size_t current_pos_ = 0;

  mutable std::mutex error_mu_;
  Status error_ = Status::OK();
};

}  // namespace bufferdb::parallel


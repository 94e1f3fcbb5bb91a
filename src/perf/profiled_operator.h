#pragma once

#include <memory>
#include <string>

#include "exec/operator.h"
#include "perf/perf_region.h"
#include "perf/query_profile.h"

namespace bufferdb::perf {

/// Transparent decorator measuring one operator: every Open/Next/NextBatch/
/// Rescan/Close is bracketed by a PerfRegion accumulating wall time and
/// hardware counters (inclusive of the subtree's work) into the node's
/// OperatorStats, plus call and row counts.
///
/// Counter reads happen on the *calling* thread, so a wrapper inside an
/// Exchange fragment reads the worker thread's counter group (see
/// ThreadCounterGroup) — per-worker attribution needs no extra plumbing.
///
/// The inner operator is owned as child(0), mirroring
/// ContractCheckedOperator, so tree walks still see the real structure.
/// Costs per transfer call: one steady_clock pair always, plus two grouped
/// read(2) syscalls when the PMU is live. That is negligible per batch and
/// a measurable tax per tuple, which is why profiling is opt-in (--hw /
/// EXPLAIN ANALYZE paths), never default-on.
class ProfiledOperator final : public Operator {
 public:
  ProfiledOperator(OperatorPtr inner, OperatorStats* stats)
      : stats_(stats) {
    AddChild(std::move(inner));
  }

  [[nodiscard]] Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    PerfRegion region(&stats_->hw, &stats_->wall_ns);
    ++stats_->opens;
    return child(0)->Open(ctx);
  }

  const uint8_t* Next() override {
    PerfRegion region(&stats_->hw, &stats_->wall_ns);
    ++stats_->next_calls;
    const uint8_t* row = child(0)->Next();
    stats_->rows += row != nullptr ? 1 : 0;
    return row;
  }

  size_t NextBatch(const uint8_t** out, size_t max) override {
    PerfRegion region(&stats_->hw, &stats_->wall_ns);
    ++stats_->batch_calls;
    size_t n = child(0)->NextBatch(out, max);
    stats_->rows += n;
    return n;
  }

  [[nodiscard]] Status Rescan() override {
    PerfRegion region(&stats_->hw, &stats_->wall_ns);
    return child(0)->Rescan();
  }

  void Close() override {
    PerfRegion region(&stats_->hw, &stats_->wall_ns);
    child(0)->Close();
  }

  /// The wrapped operator's published columns, so a traced consumer
  /// aliases what the untraced plan aliases instead of decoding it, and
  /// its answer to a request for batches without rows.
  const VectorBatch* BatchColumns() const override {
    return child(0)->BatchColumns();
  }
  bool OmitRows(std::span<const int> columns) override {
    return child(0)->OmitRows(columns);
  }

  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return child(0)->module_id(); }
  std::string label() const override { return child(0)->label(); }
  bool BlocksInput(size_t i) const override {
    return child(0)->BlocksInput(i);
  }

 private:
  OperatorStats* stats_;
};

/// Recursively wraps every node of a finished physical plan in
/// ProfiledOperator, registering one OperatorStats per node in `profile`
/// (tree shape preserved via parent ids). Subtrees hanging off an
/// ExchangeOperator are tagged with their fragment index so the profile can
/// aggregate per worker. Call this AFTER planning and refinement — the
/// refiner inspects concrete operator types and footprints, which the
/// wrapper deliberately hides.
OperatorPtr ProfilePlan(OperatorPtr root, QueryProfile* profile);

}  // namespace bufferdb::perf

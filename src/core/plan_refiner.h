#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/buffer_operator.h"
#include "core/execution_group.h"
#include "exec/operator.h"

namespace bufferdb {

struct RefinementOptions {
  /// L1 instruction cache (trace cache equivalent) capacity, §6.1.
  uint64_t l1i_capacity_bytes = 16 * 1024;
  /// Minimum estimated output cardinality for a group to be worth
  /// buffering, determined by calibration (§6, §7.3). The default is the
  /// crossover measured by CalibrateCardinalityThreshold on the default
  /// simulator configuration (regenerate with bench_fig11_cardinality).
  double cardinality_threshold = 128.0;
  size_t buffer_size = BufferOperator::kDefaultBufferSize;
  /// Batch width the plan's operators pull their children with. 1 — the
  /// default and the paper's setting — refines a tuple-at-a-time plan. When
  /// > 1 the refiner forms and reports the execution groups of the batched
  /// footprints (Operator::hot_funcs_batched) but buffers none of them: a
  /// batch-draining parent already runs its child a batch at a time, so a
  /// Buffer would only copy pointers, and since it spans several child
  /// batches it would hide the child's published columns (DESIGN.md §8).
  size_t batch_size = 1;
  /// When false (ablation), every eligible operator becomes its own
  /// execution group — the "too much buffering" regime of §6.
  bool merge_execution_groups = true;
  /// Ablation for §6.1: compute footprints the naive *static* way, charging
  /// every operator the cold code its static call graph could reach. The
  /// overestimate makes groups look too big, so plans get buffers they do
  /// not need.
  bool assume_static_footprints = false;
};

struct RefinementReport {
  int buffers_added = 0;
  std::vector<ExecutionGroup> groups;

  std::string ToString() const;
};

/// Post-optimization plan refinement (§6.2).
///
/// Performs a bottom-up pass over a physical plan, partitioning pipeline
/// operators into execution groups whose combined instruction footprint plus
/// a buffer operator's footprint fits in the L1 instruction cache, counting
/// functions shared between operators only once. A Buffer operator is then
/// inserted above every group except the plan root (whose output goes to the
/// client) and an input its parent drains like a root (an Exchange's
/// fragments, Operator::DrainsInputAsRoot) — blocking parents do not
/// suppress buffering of the pipeline below them (compare Fig. 16, where the
/// scan feeding the hash build is buffered).
///
/// Operators never placed in a group: pipeline breakers (Sort, Materialize —
/// they already buffer execution below them) and operators explicitly
/// excluded by the planner (the inner index scan of a foreign-key index
/// nested-loop join). A buffer is only inserted above a group whose output
/// cardinality reaches the calibration threshold (§7.3) — below it the
/// buffering overhead outweighs the locality benefit — and never into a
/// batched plan (RefinementOptions::batch_size > 1).
class PlanRefiner {
 public:
  explicit PlanRefiner(RefinementOptions options = RefinementOptions())
      : options_(options) {
    buffer_funcs_.AddAll(sim::ModuleBaseFuncs(sim::ModuleId::kBuffer));
  }

  /// Returns the refined plan (same tree with Buffer operators spliced in).
  OperatorPtr Refine(OperatorPtr root, RefinementReport* report = nullptr);

  const RefinementOptions& options() const { return options_; }

 private:
  struct OpenGroup {
    FuncSet funcs;
    std::vector<std::string> op_labels;
    double output_rows = -1;
  };
  struct RecResult {
    OperatorPtr op;
    std::optional<OpenGroup> open;
  };

  RecResult RefineRec(OperatorPtr op, RefinementReport* report);
  OperatorPtr CloseGroup(OperatorPtr group_top, OpenGroup group,
                         RefinementReport* report);
  /// Reports `group` as a group with no Buffer above it.
  void LeaveUnbuffered(OpenGroup group, RefinementReport* report);
  bool Eligible(const Operator& op) const;

  RefinementOptions options_;
  FuncSet buffer_funcs_;
};

}  // namespace bufferdb


#pragma once

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "core/plan_refiner.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace bufferdb {

namespace parallel {
class ThreadPool;
}

enum class JoinStrategy : uint8_t {
  kAuto,          // Index nested loop when the right side has a unique
                  // index on the join column, hash join otherwise.
  kIndexNestLoop,
  kHashJoin,
  kMergeJoin,
};

const char* JoinStrategyName(JoinStrategy strategy);

struct PlannerOptions {
  JoinStrategy join_strategy = JoinStrategy::kAuto;
  /// Run the §6.2 plan refinement pass on the produced plan. Composes with
  /// parallel_degree: the refiner inserts buffer operators *inside* each
  /// worker fragment (the Exchange is a group boundary), so every worker
  /// keeps the paper's instruction-cache locality independently.
  bool refine = false;
  RefinementOptions refinement;
  /// Intra-query parallelism: number of cloned pipeline fragments run under
  /// an Exchange operator by pool workers. 1 (the default) plans serially.
  /// The fragments divide the work: the driving table scan is partitioned
  /// at morsel granularity, each hash join builds one table from morsels of
  /// its build scan that every fragment probes, and aggregates (grouped or
  /// not) are pre-aggregated per fragment and combined by an AggregateMerge
  /// above the Exchange.
  size_t parallel_degree = 1;
  /// Rows per morsel of the partitioned driving scan; 0 = library default.
  size_t morsel_rows = 0;
  /// Batch width for the batch-at-a-time fast path: batch-aware consumers
  /// (hash-join probe, scalar and hash aggregation) consume their input
  /// through NextBatch, each ColumnScan publishes the columns its consumer
  /// reads, and the refiner, which gets this width as
  /// RefinementOptions::batch_size, places no Buffer. 1 — the default —
  /// keeps tuple-at-a-time execution everywhere, the paper's setting; set
  /// e.g. Operator::kDefaultBatchSize to enable the batch path.
  size_t batch_size = 1;
  /// Compile operator-owned expressions (filter predicates, project items,
  /// join keys, group keys, aggregate arguments) into flat column-at-a-time
  /// kernel programs at plan time (expr/vector_eval.h). Compilation happens
  /// once per operator and is cached in operator state; batch-path execution
  /// (batch_size > 1) then evaluates expressions vector-at-a-time.
  /// Expressions the compiler does not cover (strings, LIKE) keep the
  /// per-tuple interpreter automatically. Off forces the interpreter
  /// everywhere (A/B measurement hook).
  bool vectorize_expressions = true;
  /// Use ColumnScan (zero-decode columnar scans with zone-map pruning and
  /// dictionary-coded string predicates, exec/column_scan.h) in place of
  /// SeqScan wherever the table carries a columnar image
  /// (Table::columnar()) and the plan is batched (batch_size > 1).
  /// Tuple-at-a-time plans always use SeqScan — the columnar fast path is
  /// batch-native. Off forces SeqScan everywhere (A/B measurement hook).
  bool columnar_scan = true;
  /// Worker pool for Exchange operators; null = the process-global pool.
  parallel::ThreadPool* thread_pool = nullptr;
};

/// Translates a bound LogicalQuery into an executable operator tree.
///
/// Physical conventions (all deterministic, so benches can force the paper's
/// plans): joins run left-deep in FROM order, the plan so far being the
/// outer/probe/left side and the next table the inner/build/right side.
/// In a tuple-at-a-time plan (batch_size 1) every join row carries every
/// column, so the top join's schema is exactly LogicalQuery::input_schema.
/// In a batched plan each join copies only the input_schema columns read
/// above the scans (the select list, cross-table predicates and both ends
/// of every join edge), in input_schema order; the planner rebinds what it
/// places above the joins to that narrower row. The planner annotates every
/// operator with a cardinality estimate and marks the inner index scan of a
/// unique-key index nested-loop join as excluded from buffering (§6).
class PhysicalPlanner {
 public:
  PhysicalPlanner(const Catalog* catalog, PlannerOptions options)
      : catalog_(catalog), options_(options) {}

  /// `report` (optional) receives the refinement report when
  /// options.refine is set.
  Result<OperatorPtr> CreatePlan(const LogicalQuery& query,
                                 RefinementReport* report = nullptr);

 private:
  /// Everything below aggregation/projection: scans, filters, joins and
  /// leftover cross-table predicates. `pos` receives, for each column of
  /// query.input_schema, its column in the returned plan's output (-1 when
  /// no operator above the scans reads it).
  Result<OperatorPtr> BuildInput(const LogicalQuery& query,
                                 std::vector<int>* pos);
  /// The join chain of a multi-table BuildInput.
  Result<OperatorPtr> PlanJoins(const LogicalQuery& query,
                                std::vector<int>* pos);
  Result<OperatorPtr> PlanJoinStep(const LogicalQuery& query, OperatorPtr plan,
                                   size_t k, int outer_key_col,
                                   int inner_key_col, std::vector<int> columns);

  /// The parallel_degree > 1 plan below HAVING: N input fragments, each
  /// ending in the select list (the projection or partial aggregates),
  /// under an Exchange that owns their shared morsel cursors and hash-join
  /// builds, and for aggregate queries an AggregateMerge above it.
  Result<OperatorPtr> PlanParallel(const LogicalQuery& query);

  const Catalog* catalog_;
  PlannerOptions options_;
};

}  // namespace bufferdb


#include "plan/physical_planner.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>

#include "exec/aggregation.h"
#include "exec/column_scan.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/hash_aggregation.h"
#include "exec/hash_join.h"
#include "exec/topn.h"
#include "exec/index_scan.h"
#include "exec/limit.h"
#include "exec/merge_join.h"
#include "exec/nested_loop_join.h"
#include "exec/project.h"
#include "exec/seq_scan.h"
#include "exec/sort.h"
#include "expr/evaluator.h"
#include "parallel/agg_merge.h"
#include "parallel/exchange.h"
#include "parallel/morsel.h"
#include "parallel/shared_join_build.h"
#include "plan/cardinality.h"
#include "storage/column_table.h"

namespace bufferdb {

namespace {

ExprPtr ColRef(const Schema& schema, int col) {
  return MakeColumnRefUnchecked(col, schema.column(col).type,
                                schema.column(col).name);
}

// Propagates PlannerOptions::vectorize_expressions to every operator of a
// finished (sub)tree. Operators compile their expressions at construction
// time either way; the flag gates whether the batch path uses the programs.
void SetVectorizedEval(Operator* op, bool v) {
  op->set_vectorized_eval(v);
  for (size_t i = 0; i < op->num_children(); ++i) {
    SetVectorizedEval(op->child(i), v);
  }
}

// The closed interval [lo, hi] a scan filter's top-level AND puts on an
// indexed INT64/DATE column, the conjuncts that put it there, and the rows
// it is estimated to hold.
struct KeyRange {
  const IndexInfo* index = nullptr;
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  bool has_lo = false;
  bool has_hi = false;
  std::vector<const Expression*> conjuncts = {};  // Narrowed the range.
  double rows = 0;

  // Narrows the range by `column <op> v` in exact integer arithmetic. A
  // strict bound past the end of int64 leaves nothing (`x > INT64_MAX`),
  // so it narrows to lo > hi instead of overflowing.
  void Narrow(BinaryOp op, int64_t v) {
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    if ((op == BinaryOp::kGt && v == kMax) ||
        (op == BinaryOp::kLt && v == kMin)) {
      Narrow(BinaryOp::kGe, kMax);
      Narrow(BinaryOp::kLe, kMin);
      return;
    }
    if (op == BinaryOp::kGt) Narrow(BinaryOp::kGe, v + 1);
    if (op == BinaryOp::kLt) Narrow(BinaryOp::kLe, v - 1);
    if (op == BinaryOp::kEq || op == BinaryOp::kGe) {
      lo = std::max(lo, v);
      has_lo = true;
    }
    if (op == BinaryOp::kEq || op == BinaryOp::kLe) {
      hi = std::min(hi, v);
      has_hi = true;
    }
  }
};

// The key range an index scan could take over `filter`: among the indexed
// INT64/DATE columns the filter's top-level AND bounds on both sides (=,
// <, <=, >, >= against literals of the column's type), the one estimated
// to hold the fewest rows. nullopt when there is none.
std::optional<KeyRange> IndexedKeyRange(const Catalog& catalog, Table* table,
                                        const Expression& filter) {
  std::vector<const Expression*> conjuncts;
  CollectConjuncts(filter, &conjuncts);
  std::vector<KeyRange> ranges;  // One per indexed column met.
  for (const Expression* conjunct : conjuncts) {
    const ColumnRefExpr* column = nullptr;
    const Value* literal = nullptr;
    BinaryOp op = BinaryOp::kEq;
    if (!MatchColumnComparison(*conjunct, &column, &literal, &op) ||
        op == BinaryOp::kNe || literal->is_null() ||
        literal->type() != column->result_type() ||
        (literal->type() != DataType::kInt64 &&
         literal->type() != DataType::kDate)) {
      continue;
    }
    const IndexInfo* index = catalog.FindIndex(table, column->column());
    if (index == nullptr) continue;
    auto it = std::find_if(ranges.begin(), ranges.end(),
                           [&](const KeyRange& r) { return r.index == index; });
    if (it == ranges.end()) {
      ranges.push_back(KeyRange{index});
      it = ranges.end() - 1;
    }
    it->Narrow(op, literal->int64_value());
    it->conjuncts.push_back(conjunct);
  }
  std::optional<KeyRange> best;
  for (KeyRange& r : ranges) {
    if (!r.has_lo || !r.has_hi) continue;
    r.rows = EstimateIntervalSelectivity(table, r.index->column,
                                         static_cast<double>(r.lo),
                                         static_cast<double>(r.hi)) *
             static_cast<double>(table->num_rows());
    if (!best.has_value() || r.rows < best->rows) best = r;
  }
  return best;
}

// The top-level conjuncts of `filter` that `range` does not enforce, cloned
// in their order and AND-combined; null when the range enforces them all.
// The B+-tree holds no NULL key and Narrow converts every bound exactly,
// so [lo, hi] holds exactly the rows that pass the range's conjuncts.
ExprPtr IndexResidual(const Expression& filter, const KeyRange& range) {
  std::vector<const Expression*> conjuncts;
  CollectConjuncts(filter, &conjuncts);
  ExprPtr residual;
  for (const Expression* conjunct : conjuncts) {
    if (std::find(range.conjuncts.begin(), range.conjuncts.end(),
                  conjunct) != range.conjuncts.end()) {
      continue;
    }
    if (residual == nullptr) {
      residual = conjunct->Clone();
    } else {
      residual = std::move(*MakeBinary(BinaryOp::kAnd, std::move(residual),
                                       conjunct->Clone()));
    }
  }
  return residual;
}

// The scan of `table` under `filter` (nullable, bound to the table). A
// ColumnScan publishes `published`, the columns of the table its consumer
// reads.
//
// Batched serial plans read a selective key range through the index: when
// the filter bounds an indexed key on both sides and the range is
// estimated below one zone block, the scan is an IndexScan over the range,
// and its residual is what is left of the filter (IndexResidual). A
// ColumnScan reads at least one zone block, so that is where the two cross
// over. Tuple-at-a-time plans keep their table scans, so the reference
// execution checks each range answer through another access path and the
// whole filter; parallel plans keep them because PartitionScans
// morsel-partitions a table scan at every partitioned leaf.
OperatorPtr MakeScan(const Catalog& catalog, Table* table,
                     const ExprPtr& filter, std::vector<int> published,
                     const PlannerOptions& options) {
  ExprPtr predicate = filter != nullptr ? filter->Clone() : nullptr;
  double selectivity =
      filter != nullptr ? EstimateSelectivity(*filter, table) : 1.0;
  OperatorPtr scan;
  const bool batched = options.batch_size > 1;
  std::optional<KeyRange> range;
  if (batched && options.parallel_degree == 1 && predicate != nullptr) {
    predicate = FoldConstants(std::move(predicate));
    range = IndexedKeyRange(catalog, table, *predicate);
  }
  if (range.has_value() &&
      range->rows < static_cast<double>(kZoneBlockRows)) {
    scan = std::make_unique<IndexScanOperator>(
        range->index, range->lo, range->hi,
        IndexResidual(*predicate, *range));
  } else if (options.columnar_scan && batched &&
             table->columnar() != nullptr) {
    // The columnar fast path is batch-native: substitute it only for
    // batched plans over tables that carry a columnar image.
    auto cscan =
        std::make_unique<ColumnScanOperator>(table, std::move(predicate));
    cscan->set_published_columns(std::move(published));
    scan = std::move(cscan);
  } else {
    scan = std::make_unique<SeqScanOperator>(table, std::move(predicate));
  }
  scan->set_estimated_rows(selectivity *
                           static_cast<double>(table->num_rows()));
  return scan;
}

// The input_schema columns that anything above the scans reads: the select
// list (group keys and aggregate arguments), the cross-table predicates and
// both ends of every join edge. `offsets[t]` is table t's first column.
std::vector<bool> ColumnsReadAboveScans(const LogicalQuery& query,
                                        const std::vector<size_t>& offsets) {
  std::vector<int> cols;
  for (const OutputItem& item : query.items) {
    if (item.expr != nullptr) CollectColumns(*item.expr, &cols);
  }
  for (const ExprPtr& pred : query.cross_predicates) {
    CollectColumns(*pred, &cols);
  }
  for (const LogicalJoinEdge& edge : query.joins) {
    cols.push_back(static_cast<int>(offsets[edge.left_table]) + edge.left_col);
    cols.push_back(static_cast<int>(offsets[edge.right_table]) +
                   edge.right_col);
  }
  std::vector<bool> read(query.input_schema.num_columns(), false);
  for (int c : cols) read[c] = true;
  return read;
}

// The non-string columns of `table` that `read` marks: what the ColumnScan
// of a single-table query publishes for the operator above it.
std::vector<int> PublishedColumns(const Table& table,
                                  const std::vector<bool>& read) {
  const Schema& schema = table.schema();
  std::vector<int> out;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (read[c] && schema.column(c).type != DataType::kString) {
      out.push_back(static_cast<int>(c));
    }
  }
  return out;
}

// What a ColumnScan below a hash join publishes: the join key, the one
// column the join's key loop reads, unless it is a string. A hash join
// publishes no columns of its own, so any other column a scan published
// there would be gathered for nothing.
std::vector<int> PublishedKey(const Table& table, int key_col) {
  if (table.schema().column(static_cast<size_t>(key_col)).type ==
      DataType::kString) {
    return {};
  }
  return {key_col};
}

// `expr` (nullable, bound to input_schema) rebound to a plan whose row
// holds input column c at column pos[c] of `schema`.
ExprPtr Rebind(const ExprPtr& expr, const std::vector<int>& pos,
               const Schema& schema) {
  return expr != nullptr ? RemapColumns(*expr, pos, schema) : nullptr;
}

// The select list of an aggregate query, rebound to a plan whose row holds
// input column c at column pos[c] of `schema`: the group keys (the plain
// items) and the aggregates, each in select-list order.
void SplitSelectList(const LogicalQuery& query, const std::vector<int>& pos,
                     const Schema& schema, std::vector<GroupKeyExpr>* groups,
                     std::vector<AggSpec>* specs) {
  for (const OutputItem& item : query.items) {
    ExprPtr expr = Rebind(item.expr, pos, schema);
    if (item.is_aggregate) {
      specs->push_back(AggSpec{item.agg, std::move(expr), item.name});
    } else {
      groups->push_back(GroupKeyExpr{std::move(expr), item.name});
    }
  }
}

// Crude distinct-groups estimate of a grouped aggregation.
double GroupRows(double input_rows) {
  return std::max(1.0, std::min(input_rows / 10.0, 10000.0));
}

// Scalar aggregation without group keys, hash aggregation with them.
OperatorPtr MakeAggregation(OperatorPtr input, std::vector<GroupKeyExpr> groups,
                            std::vector<AggSpec> specs, size_t batch_size) {
  const double input_rows = input->estimated_rows();
  if (groups.empty()) {
    auto agg = std::make_unique<AggregationOperator>(std::move(input),
                                                     std::move(specs));
    agg->set_batch_size(batch_size);
    agg->set_estimated_rows(1.0);
    return agg;
  }
  auto hash_agg = std::make_unique<HashAggregationOperator>(
      std::move(input), std::move(groups), std::move(specs));
  hash_agg->set_batch_size(batch_size);
  hash_agg->set_estimated_rows(GroupRows(input_rows));
  return hash_agg;
}

// The select list of a query without aggregates, over `input` as in
// SplitSelectList.
OperatorPtr MakeProjection(const LogicalQuery& query, OperatorPtr input,
                           const std::vector<int>& pos) {
  const double input_rows = input->estimated_rows();
  std::vector<ProjectItem> items;
  for (const OutputItem& item : query.items) {
    items.push_back(ProjectItem{
        Rebind(item.expr, pos, input->output_schema()), item.name});
  }
  auto proj =
      std::make_unique<ProjectOperator>(std::move(input), std::move(items));
  proj->set_estimated_rows(input_rows);
  return proj;
}

// Switches the table scan at the leftmost leaf of each of `clones` (alike
// subtrees of the fragments: their driving scans, or one hash join's build
// scans) to morsel mode over one new cursor, which it returns.
Result<std::unique_ptr<parallel::MorselCursor>> PartitionScans(
    const std::vector<Operator*>& clones, size_t morsel_rows) {
  std::unique_ptr<parallel::MorselCursor> cursor;
  for (Operator* op : clones) {
    while (op->num_children() > 0) op = op->child(0);
    auto* scan = dynamic_cast<SeqScanOperator*>(op);
    auto* cscan = dynamic_cast<ColumnScanOperator*>(op);
    if (scan == nullptr && cscan == nullptr) {
      return Status::Internal(
          "parallel plan: partitioned operator is not a table scan");
    }
    if (cursor == nullptr) {
      const Table* table = scan != nullptr ? scan->table() : cscan->table();
      cursor = std::make_unique<parallel::MorselCursor>(table->num_rows(),
                                                        morsel_rows);
    }
    if (scan != nullptr) {
      scan->BindMorselCursor(cursor.get());
    } else {
      cscan->BindMorselCursor(cursor.get());
    }
  }
  return cursor;
}

// The hash joins of `op`'s subtree, in pre-order.
void CollectHashJoins(Operator* op, std::vector<HashJoinOperator*>* out) {
  if (auto* join = dynamic_cast<HashJoinOperator*>(op)) out->push_back(join);
  for (size_t i = 0; i < op->num_children(); ++i) {
    CollectHashJoins(op->child(i), out);
  }
}

// Whether the select list is aggregates alone: the plan's top is a scalar
// AggregationOperator over the joins.
bool ScalarAggregate(const LogicalQuery& query) {
  return query.has_aggregates &&
         std::all_of(query.items.begin(), query.items.end(),
                     [](const OutputItem& item) { return item.is_aggregate; });
}

// The strategy of a join whose inner key column has `inner_index`
// (nullable): `forced` unless it is kAuto, else an index join on a unique
// key and a hash join otherwise.
JoinStrategy ResolveJoinStrategy(JoinStrategy forced,
                                 const IndexInfo* inner_index) {
  if (forced != JoinStrategy::kAuto) return forced;
  return inner_index != nullptr && inner_index->unique
             ? JoinStrategy::kIndexNestLoop
             : JoinStrategy::kHashJoin;
}

}  // namespace

const char* JoinStrategyName(JoinStrategy strategy) {
  switch (strategy) {
    case JoinStrategy::kAuto:
      return "auto";
    case JoinStrategy::kIndexNestLoop:
      return "nestloop";
    case JoinStrategy::kHashJoin:
      return "hash";
    case JoinStrategy::kMergeJoin:
      return "merge";
  }
  return "?";
}

// Builds one join step: joins `plan` (covering the first k FROM tables)
// with query.tables[k]. `outer_key_col` indexes the plan's output schema;
// `inner_key_col` the new table's own schema. `columns` is the join's
// output column list (empty: every column of both sides).
Result<OperatorPtr> PhysicalPlanner::PlanJoinStep(const LogicalQuery& query,
                                                  OperatorPtr plan, size_t k,
                                                  int outer_key_col,
                                                  int inner_key_col,
                                                  std::vector<int> columns) {
  Table* inner_table = query.tables[k];
  const Schema& outer_schema = plan->output_schema();
  const Schema& inner_schema = inner_table->schema();
  const ExprPtr& inner_filter = query.filters[k];

  double outer_rows = plan->estimated_rows();
  double inner_filtered_rows =
      inner_filter != nullptr
          ? EstimateSelectivity(*inner_filter, inner_table) *
                static_cast<double>(inner_table->num_rows())
          : static_cast<double>(inner_table->num_rows());

  const IndexInfo* inner_index =
      catalog_->FindIndex(inner_table, inner_key_col);

  const JoinStrategy strategy =
      ResolveJoinStrategy(options_.join_strategy, inner_index);

  double join_rows = EstimateEquiJoinRows(
      outer_rows, inner_filtered_rows,
      static_cast<double>(inner_table->num_rows()),
      inner_index != nullptr && inner_index->unique);

  OperatorPtr join_op;
  switch (strategy) {
    case JoinStrategy::kIndexNestLoop: {
      if (inner_index == nullptr) {
        return Status::InvalidArgument(
            "no index on the inner join column of " + inner_table->name() +
            "; cannot use index nested loop (reorder FROM)");
      }
      ExprPtr residual =
          inner_filter != nullptr ? inner_filter->Clone() : nullptr;
      auto inner = std::make_unique<IndexScanOperator>(
          inner_index, std::nullopt, std::nullopt, std::move(residual));
      // Foreign-key lookups produce at most one row per probe; the paper
      // excludes such inner scans from buffering entirely (§6, Fig. 15).
      inner->set_excluded_from_buffering(inner_index->unique);
      inner->set_estimated_rows(inner_index->unique ? 1.0
                                                    : inner_filtered_rows);
      join_op = std::make_unique<IndexNestLoopJoinOperator>(
          std::move(plan), std::move(inner),
          ColRef(outer_schema, outer_key_col), std::move(columns));
      break;
    }
    case JoinStrategy::kHashJoin: {
      OperatorPtr build =
          MakeScan(*catalog_, inner_table, inner_filter,
                   PublishedKey(*inner_table, inner_key_col), options_);
      auto hash_join = std::make_unique<HashJoinOperator>(
          std::move(plan), std::move(build),
          ColRef(outer_schema, outer_key_col),
          ColRef(inner_schema, inner_key_col), nullptr, std::move(columns));
      hash_join->set_probe_batch_size(options_.batch_size);
      join_op = std::move(hash_join);
      break;
    }
    case JoinStrategy::kMergeJoin: {
      // Left side: sort the accumulated plan. Right side: an index on the
      // join column provides sorted order without a sort (Fig. 17);
      // otherwise sort a scan.
      auto sorted_left = std::make_unique<SortOperator>(
          std::move(plan), std::vector<SortKey>{{outer_key_col, false}});
      sorted_left->set_batch_size(options_.batch_size);
      sorted_left->set_estimated_rows(outer_rows);

      OperatorPtr right;
      if (inner_index != nullptr && inner_filter == nullptr) {
        auto index_scan = std::make_unique<IndexScanOperator>(
            inner_index, std::nullopt, std::nullopt, nullptr);
        index_scan->set_estimated_rows(inner_filtered_rows);
        right = std::move(index_scan);
      } else {
        // The Sort reads rows, so the scan publishes nothing.
        OperatorPtr scan =
            MakeScan(*catalog_, inner_table, inner_filter, {}, options_);
        auto sorted_right = std::make_unique<SortOperator>(
            std::move(scan), std::vector<SortKey>{{inner_key_col, false}});
        sorted_right->set_batch_size(options_.batch_size);
        sorted_right->set_estimated_rows(inner_filtered_rows);
        right = std::move(sorted_right);
      }
      join_op = std::make_unique<MergeJoinOperator>(
          std::move(sorted_left), std::move(right),
          ColRef(outer_schema, outer_key_col),
          ColRef(inner_schema, inner_key_col), std::move(columns));
      break;
    }
    case JoinStrategy::kAuto:
      return Status::Internal("unresolved join strategy");
  }
  join_op->set_estimated_rows(join_rows);
  return join_op;
}

// Left-deep join chain in FROM order over the binder's equi-join edges.
//
// Each join's row holds the `read` columns (all of them in tuple-at-a-time
// plans). The narrow row keeps input_schema order, so a column keeps its
// position once joined and `pos` only gains entries as tables join. The
// driving scan is built once the first join's edge is known, because what
// it publishes depends on that join: a hash join reads only its outer key,
// a merge join's Sort reads rows, and an index join that is the only join
// under a scalar aggregate is asked for its columns by that aggregate
// (Operator::OmitRows) and gathers them from the scan's published vectors,
// so the scan publishes every read column of its table.
Result<OperatorPtr> PhysicalPlanner::PlanJoins(
    const LogicalQuery& query, const std::vector<size_t>& offsets,
    const std::vector<bool>& read, std::vector<int>* pos) {
  const size_t width = query.input_schema.num_columns();
  OperatorPtr plan;
  // The driving scan emits table 0's whole row.
  pos->assign(width, -1);
  std::iota(pos->begin(),
            pos->begin() + query.tables[0]->schema().num_columns(), 0);
  std::vector<bool> joined(query.tables.size(), false);
  joined[0] = true;
  std::vector<bool> edge_used(query.joins.size(), false);

  for (size_t k = 1; k < query.tables.size(); ++k) {
    int outer_col = -1, inner_key_col = -1;
    for (size_t e = 0; e < query.joins.size(); ++e) {
      if (edge_used[e]) continue;
      const LogicalJoinEdge& edge = query.joins[e];
      if (edge.right_table == static_cast<int>(k) && joined[edge.left_table]) {
        outer_col = static_cast<int>(offsets[edge.left_table]) + edge.left_col;
        inner_key_col = edge.right_col;
        edge_used[e] = true;
        break;
      }
      if (edge.left_table == static_cast<int>(k) && joined[edge.right_table]) {
        outer_col =
            static_cast<int>(offsets[edge.right_table]) + edge.right_col;
        inner_key_col = edge.left_col;
        edge_used[e] = true;
        break;
      }
    }
    if (outer_col < 0) {
      return Status::NotImplemented(
          "table " + query.tables[k]->name() +
          " is not connected to the preceding FROM tables by an equi-join");
    }
    if (k == 1) {
      const Table& driving = *query.tables[0];
      std::vector<int> published;
      switch (ResolveJoinStrategy(
          options_.join_strategy,
          catalog_->FindIndex(query.tables[1], inner_key_col))) {
        case JoinStrategy::kIndexNestLoop:
          published = query.tables.size() == 2 && ScalarAggregate(query)
                          ? PublishedColumns(driving, read)
                          : PublishedKey(driving, outer_col);
          break;
        case JoinStrategy::kMergeJoin:
          break;
        default:
          published = PublishedKey(driving, outer_col);
      }
      plan = MakeScan(*catalog_, query.tables[0], query.filters[0],
                      std::move(published), options_);
    }
    // The join's row: the read columns of tables 0..k, as columns of
    // Concat(plan, tables[k]).
    const size_t outer_width = plan->output_schema().num_columns();
    const size_t inner_width = query.tables[k]->schema().num_columns();
    std::vector<int> columns;
    std::vector<int> next_pos(width, -1);
    for (size_t c = 0; c < offsets[k] + inner_width; ++c) {
      if (!read[c]) continue;
      next_pos[c] = static_cast<int>(columns.size());
      columns.push_back(c < offsets[k]
                            ? (*pos)[c]
                            : static_cast<int>(outer_width + c - offsets[k]));
    }
    // Every column kept, in order: no column list, a full-width row.
    if (columns.size() == outer_width + inner_width) columns.clear();
    BUFFERDB_ASSIGN_OR_RETURN(
        next, PlanJoinStep(query, std::move(plan), k, (*pos)[outer_col],
                           inner_key_col, std::move(columns)));
    plan = std::move(next);
    *pos = std::move(next_pos);
    joined[k] = true;
  }

  // Redundant edges (cycles) and cross-table predicates, bound to
  // input_schema, apply over the final join's row.
  ExprPtr leftover;
  auto and_combine = [&leftover](ExprPtr e) {
    if (leftover == nullptr) {
      leftover = std::move(e);
    } else {
      auto r = MakeBinary(BinaryOp::kAnd, std::move(leftover), std::move(e));
      leftover = std::move(*r);
    }
  };
  for (size_t e = 0; e < query.joins.size(); ++e) {
    if (edge_used[e]) continue;
    const LogicalJoinEdge& edge = query.joins[e];
    auto eq = MakeBinary(
        BinaryOp::kEq,
        ColRef(query.input_schema,
               static_cast<int>(offsets[edge.left_table]) + edge.left_col),
        ColRef(query.input_schema,
               static_cast<int>(offsets[edge.right_table]) + edge.right_col));
    and_combine(std::move(*eq));
  }
  for (const ExprPtr& pred : query.cross_predicates) {
    and_combine(pred->Clone());
  }
  if (leftover != nullptr) {
    double rows = plan->estimated_rows();
    ExprPtr predicate = RemapColumns(*leftover, *pos, plan->output_schema());
    plan = std::make_unique<FilterOperator>(std::move(plan),
                                            std::move(predicate));
    plan->set_estimated_rows(rows / 3.0);
  }
  return plan;
}

// Batched plans carry only the columns read above the scans
// (ColumnsReadAboveScans): a single-table query's ColumnScan publishes them
// and each join copies them into its row. Tuple-at-a-time plans keep
// full-width rows, which leaves the paper's plans and their simulated
// counters as they were.
Result<OperatorPtr> PhysicalPlanner::BuildInput(const LogicalQuery& query,
                                                std::vector<int>* pos) {
  std::vector<size_t> offsets;
  size_t offset = 0;
  for (Table* table : query.tables) {
    offsets.push_back(offset);
    offset += table->schema().num_columns();
  }
  const size_t width = query.input_schema.num_columns();
  const std::vector<bool> read = options_.batch_size > 1
                                     ? ColumnsReadAboveScans(query, offsets)
                                     : std::vector<bool>(width, true);
  if (query.tables.size() == 1) {
    if (!query.cross_predicates.empty()) {
      return Status::Internal("cross predicate on single-table query");
    }
    pos->resize(width);
    std::iota(pos->begin(), pos->end(), 0);
    return MakeScan(*catalog_, query.tables[0], query.filters[0],
                    PublishedColumns(*query.tables[0], read), options_);
  }
  return PlanJoins(query, offsets, read, pos);
}

Result<OperatorPtr> PhysicalPlanner::PlanParallel(const LogicalQuery& query) {
  const size_t degree = options_.parallel_degree;
  const size_t morsel_rows = options_.morsel_rows != 0
                                 ? options_.morsel_rows
                                 : parallel::MorselCursor::kDefaultMorselRows;
  std::vector<OperatorPtr> fragments;
  std::vector<int> pos;  // As BuildInput's; the fragments are alike.
  for (size_t w = 0; w < degree; ++w) {
    BUFFERDB_ASSIGN_OR_RETURN(frag, BuildInput(query, &pos));
    fragments.push_back(std::move(frag));
  }
  const double input_rows = fragments[0]->estimated_rows();

  // The fragments divide the work through state the Exchange owns: one
  // cursor partitions the driving (leftmost) scan, and each hash join gets
  // one build, whose cursor partitions its clones' build scans and whose
  // one table all of them probe.
  std::vector<Operator*> clones;
  for (OperatorPtr& frag : fragments) clones.push_back(frag.get());
  BUFFERDB_ASSIGN_OR_RETURN(cursor, PartitionScans(clones, morsel_rows));
  std::vector<std::vector<HashJoinOperator*>> joins(degree);
  for (size_t w = 0; w < degree; ++w) {
    CollectHashJoins(fragments[w].get(), &joins[w]);
  }
  std::vector<std::unique_ptr<parallel::SharedJoinBuild>> builds;
  for (size_t j = 0; j < joins[0].size(); ++j) {
    clones.clear();
    for (size_t w = 0; w < degree; ++w) clones.push_back(joins[w][j]->child(1));
    BUFFERDB_ASSIGN_OR_RETURN(build_cursor,
                              PartitionScans(clones, morsel_rows));
    builds.push_back(
        std::make_unique<parallel::SharedJoinBuild>(std::move(build_cursor)));
    for (size_t w = 0; w < degree; ++w) {
      joins[w][j]->ShareBuild(builds.back().get());
    }
  }

  // The select list runs in the fragments: the projection, or partial
  // aggregates (grouped or not) that a merge above the Exchange combines.
  std::vector<AggSpec> final_specs;
  size_t num_keys = 0;
  for (size_t w = 0; w < degree; ++w) {
    OperatorPtr& frag = fragments[w];
    if (!query.has_aggregates) {
      frag = MakeProjection(query, std::move(frag), pos);
      continue;
    }
    std::vector<GroupKeyExpr> groups;
    std::vector<AggSpec> specs;
    SplitSelectList(query, pos, frag->output_schema(), &groups, &specs);
    num_keys = groups.size();
    std::vector<AggSpec> partial = parallel::MakePartialAggSpecs(specs);
    if (w == 0) final_specs = std::move(specs);
    frag = MakeAggregation(std::move(frag), std::move(groups),
                           std::move(partial), options_.batch_size);
  }

  auto exchange = std::make_unique<parallel::ExchangeOperator>(
      std::move(fragments), std::move(cursor), std::move(builds),
      options_.thread_pool);
  if (!query.has_aggregates) {
    exchange->set_estimated_rows(input_rows);
    return OperatorPtr(std::move(exchange));
  }
  const double rows = num_keys == 0 ? 1.0 : GroupRows(input_rows);
  exchange->set_estimated_rows(rows * static_cast<double>(degree));
  auto merge = std::make_unique<parallel::AggregateMergeOperator>(
      std::move(exchange), num_keys, std::move(final_specs));
  merge->set_estimated_rows(rows);
  return OperatorPtr(std::move(merge));
}

Result<OperatorPtr> PhysicalPlanner::CreatePlan(const LogicalQuery& query,
                                                RefinementReport* report) {
  if (query.tables.empty()) {
    return Status::InvalidArgument("query has no tables");
  }

  // The select list over the input: in parallel plans inside the fragments.
  OperatorPtr plan;
  if (options_.parallel_degree > 1) {
    BUFFERDB_ASSIGN_OR_RETURN(parallel_plan, PlanParallel(query));
    plan = std::move(parallel_plan);
  } else {
    std::vector<int> pos;
    BUFFERDB_ASSIGN_OR_RETURN(input, BuildInput(query, &pos));
    if (query.has_aggregates) {
      // The select list is bound to input_schema, `input` may be narrower.
      std::vector<GroupKeyExpr> groups;
      std::vector<AggSpec> specs;
      SplitSelectList(query, pos, input->output_schema(), &groups, &specs);
      plan = MakeAggregation(std::move(input), std::move(groups),
                             std::move(specs), options_.batch_size);
    } else {
      plan = MakeProjection(query, std::move(input), pos);
    }
  }

  // HAVING over the aggregate output.
  if (query.having != nullptr) {
    double rows = plan->estimated_rows();
    plan = std::make_unique<FilterOperator>(std::move(plan),
                                            query.having->Clone());
    plan->set_estimated_rows(rows * 0.5);
  }

  if (query.distinct) {
    double rows = plan->estimated_rows();
    plan = std::make_unique<DistinctOperator>(std::move(plan));
    plan->set_estimated_rows(rows * 0.5);
  }

  // ORDER BY over the output schema; fused with LIMIT into a bounded-heap
  // TopN when both are present.
  if (!query.order_by.empty()) {
    double rows = plan->estimated_rows();
    std::vector<SortKey> keys;
    const Schema& out_schema = plan->output_schema();
    for (const auto& [name, desc] : query.order_by) {
      int col = out_schema.FindColumn(name);
      if (col < 0) {
        return Status::NotFound("ORDER BY column not in output: " + name);
      }
      keys.push_back(SortKey{col, desc});
    }
    if (query.limit.has_value()) {
      auto topn = std::make_unique<TopNOperator>(
          std::move(plan), std::move(keys),
          static_cast<size_t>(*query.limit));
      topn->set_batch_size(options_.batch_size);
      topn->set_estimated_rows(
          std::min(rows, static_cast<double>(*query.limit)));
      plan = std::move(topn);
    } else {
      auto sort =
          std::make_unique<SortOperator>(std::move(plan), std::move(keys));
      sort->set_batch_size(options_.batch_size);
      sort->set_estimated_rows(rows);
      plan = std::move(sort);
    }
  } else if (query.limit.has_value()) {
    double rows = plan->estimated_rows();
    plan = std::make_unique<LimitOperator>(
        std::move(plan), static_cast<size_t>(*query.limit));
    plan->set_estimated_rows(
        std::min(rows, static_cast<double>(*query.limit)));
  }

  SetVectorizedEval(plan.get(), options_.vectorize_expressions);

  if (options_.refine) {
    RefinementOptions refinement = options_.refinement;
    // The planner-level batch knob also drives the refiner's accounting,
    // unless the caller pinned a refinement batch size explicitly.
    if (options_.batch_size > 1 && refinement.batch_size <= 1) {
      refinement.batch_size = options_.batch_size;
    }
    PlanRefiner refiner(refinement);
    plan = refiner.Refine(std::move(plan), report);
  }
  return plan;
}

}  // namespace bufferdb

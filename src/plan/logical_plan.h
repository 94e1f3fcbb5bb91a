#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/aggregation.h"
#include "expr/expression.h"
#include "storage/table.h"

namespace bufferdb {

/// Equi-join edge between two FROM tables; table fields index into
/// LogicalQuery::tables and column fields into that table's schema. The
/// binder normalizes edges so left_table < right_table.
struct LogicalJoinEdge {
  int left_table = -1;
  int left_col = -1;
  int right_table = -1;
  int right_col = -1;
};

/// One SELECT-list entry. For aggregate queries, group keys precede
/// aggregates in SELECT order (checked by the binder) so the physical
/// grouped-aggregation output schema matches the SELECT order directly.
struct OutputItem {
  bool is_aggregate = false;
  bool is_group_key = false;
  AggFunc agg = AggFunc::kCountStar;
  ExprPtr expr;  // Bound to input_schema; null for COUNT(*).
  std::string name;
};

/// A bound single-block query — the planner's input. Produced by the SQL
/// binder or constructed directly by tests/benches.
struct LogicalQuery {
  std::vector<Table*> tables;     // Joined left-deep in FROM order.
  std::vector<ExprPtr> filters;   // Parallel to tables; nullable. Bound to
                                  // the respective table schema.
  std::vector<LogicalJoinEdge> joins;
  /// Cross-table predicates that are not equi-join edges, bound to
  /// input_schema; applied once all referenced tables are joined.
  std::vector<ExprPtr> cross_predicates;
  /// Concatenation of all FROM tables' schemas, in FROM order.
  Schema input_schema;
  bool has_aggregates = false;
  std::vector<OutputItem> items;
  /// HAVING predicate, bound to the *output* schema (group keys + aggregate
  /// aliases); nullable.
  ExprPtr having;
  bool distinct = false;
  std::vector<std::pair<std::string, bool>> order_by;  // (name, descending)
  std::optional<int64_t> limit;
};

}  // namespace bufferdb


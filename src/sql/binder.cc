#include "sql/binder.h"

#include <algorithm>
#include <numeric>

#include "expr/evaluator.h"

namespace bufferdb::sql {

namespace {

struct Scope {
  std::vector<Table*> tables;
  std::vector<size_t> offsets;  // Column offset of each table in the
                                // combined schema.
  const Schema* schema = nullptr;
};

// Resolves a (possibly qualified) column name to an index in the combined
// schema.
Result<int> ResolveColumn(const Scope& scope, const std::string& name) {
  size_t dot = name.find('.');
  if (dot != std::string::npos) {
    std::string table_name = name.substr(0, dot);
    std::string column_name = name.substr(dot + 1);
    for (size_t t = 0; t < scope.tables.size(); ++t) {
      if (scope.tables[t]->name() == table_name) {
        int col = scope.tables[t]->schema().FindColumn(column_name);
        if (col < 0) {
          return Status::NotFound("no column " + column_name + " in " +
                                  table_name);
        }
        return static_cast<int>(scope.offsets[t]) + col;
      }
    }
    return Status::NotFound("table not in FROM: " + table_name);
  }
  int found = -1;
  for (size_t c = 0; c < scope.schema->num_columns(); ++c) {
    if (scope.schema->column(c).name == name) {
      if (found >= 0) return Status::InvalidArgument("ambiguous column: " + name);
      found = static_cast<int>(c);
    }
  }
  if (found < 0) return Status::NotFound("no such column: " + name);
  return found;
}

Result<ExprPtr> BindExpr(const ParseExpr& pe, const Scope& scope) {
  switch (pe.kind) {
    case ParseExpr::Kind::kColumn: {
      BUFFERDB_ASSIGN_OR_RETURN(col, ResolveColumn(scope, pe.column_name));
      return ExprPtr(MakeColumnRefUnchecked(
          col, scope.schema->column(col).type, scope.schema->column(col).name));
    }
    case ParseExpr::Kind::kLiteral:
      return ExprPtr(MakeLiteral(pe.literal));
    case ParseExpr::Kind::kBinary: {
      BUFFERDB_ASSIGN_OR_RETURN(left, BindExpr(*pe.left, scope));
      BUFFERDB_ASSIGN_OR_RETURN(right, BindExpr(*pe.right, scope));
      return MakeBinary(pe.binary_op, std::move(left), std::move(right));
    }
    case ParseExpr::Kind::kUnary: {
      BUFFERDB_ASSIGN_OR_RETURN(operand, BindExpr(*pe.left, scope));
      return MakeUnary(pe.unary_op, std::move(operand));
    }
  }
  return Status::Internal("bad parse expr");
}

void FlattenConjuncts(ParseExpr* expr, std::vector<ParseExpr*>* out) {
  if (expr->kind == ParseExpr::Kind::kBinary &&
      expr->binary_op == BinaryOp::kAnd) {
    FlattenConjuncts(expr->left.get(), out);
    FlattenConjuncts(expr->right.get(), out);
  } else {
    out->push_back(expr);
  }
}

ExprPtr AndCombine(ExprPtr a, ExprPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  auto r = MakeBinary(BinaryOp::kAnd, std::move(a), std::move(b));
  return std::move(*r);
}

// Which tables does a bound conjunct reference? Returns a bitmask with one
// bit per FROM table, using the tables' column offsets in the combined
// schema.
unsigned TableMask(const Expression& expr, const std::vector<size_t>& offsets,
                   size_t total_columns) {
  std::vector<int> cols;
  CollectColumns(expr, &cols);
  unsigned mask = 0;
  for (int c : cols) {
    for (size_t t = 0; t < offsets.size(); ++t) {
      size_t end = t + 1 < offsets.size() ? offsets[t + 1] : total_columns;
      if (static_cast<size_t>(c) >= offsets[t] &&
          static_cast<size_t>(c) < end) {
        mask |= 1u << t;
        break;
      }
    }
  }
  return mask;
}

int SingleTableOf(unsigned mask) {
  for (int t = 0; t < 32; ++t) {
    if (mask == (1u << t)) return t;
  }
  return -1;
}

}  // namespace

Result<LogicalQuery> Binder::Bind(const SelectStatement& stmt) {
  LogicalQuery query;
  if (stmt.from_tables.empty() || stmt.from_tables.size() > 6) {
    return Status::NotImplemented("FROM must list between 1 and 6 tables");
  }

  Scope scope;
  for (const std::string& name : stmt.from_tables) {
    Table* table = catalog_->GetTable(name);
    if (table == nullptr) return Status::NotFound("no such table: " + name);
    query.tables.push_back(table);
    scope.tables.push_back(table);
  }
  query.filters.resize(query.tables.size());
  {
    std::vector<Column> cols;
    size_t offset = 0;
    for (Table* table : query.tables) {
      scope.offsets.push_back(offset);
      for (const Column& c : table->schema().columns()) cols.push_back(c);
      offset += table->schema().num_columns();
    }
    if (cols.size() > Schema::kMaxColumns) {
      return Status::NotImplemented("joined schema exceeds 64 columns");
    }
    query.input_schema = Schema(std::move(cols));
  }
  scope.schema = &query.input_schema;

  // WHERE: classify conjuncts into per-table filters, equi-join edges and
  // cross-table predicates.
  if (stmt.where != nullptr) {
    std::vector<ParseExpr*> conjuncts;
    FlattenConjuncts(stmt.where.get(), &conjuncts);
    for (ParseExpr* pe : conjuncts) {
      BUFFERDB_ASSIGN_OR_RETURN(bound_raw, BindExpr(*pe, scope));
      ExprPtr bound = FoldConstants(std::move(bound_raw));
      if (bound->result_type() != DataType::kBool) {
        return Status::TypeError("WHERE clause must be boolean: " +
                                 bound->ToString());
      }
      unsigned mask =
          TableMask(*bound, scope.offsets, query.input_schema.num_columns());
      int single = SingleTableOf(mask);
      if (mask == 0) single = 0;  // Constant predicate: attach to t0.
      if (single >= 0) {
        // Push the conjunct down to its table's scan: combined-schema
        // column c is column c - offset of that table, so the first
        // table's columns are already where its scan has them.
        if (scope.offsets[single] != 0) {
          std::vector<int> pos(query.input_schema.num_columns());
          std::iota(pos.begin(), pos.end(),
                    -static_cast<int>(scope.offsets[single]));
          bound = RemapColumns(*bound, pos, query.tables[single]->schema());
        }
        query.filters[single] =
            AndCombine(std::move(query.filters[single]), std::move(bound));
        continue;
      }
      // Cross-table: an equality between single columns of two tables is a
      // join edge; everything else is a cross predicate.
      bool is_edge = false;
      if (bound->kind() == ExprKind::kBinary) {
        const auto& b = static_cast<const BinaryExpr&>(*bound);
        if (b.op() == BinaryOp::kEq &&
            b.left().kind() == ExprKind::kColumnRef &&
            b.right().kind() == ExprKind::kColumnRef) {
          int lc = static_cast<const ColumnRefExpr&>(b.left()).column();
          int rc = static_cast<const ColumnRefExpr&>(b.right()).column();
          auto table_of = [&scope, &query](int c) {
            for (size_t t = scope.offsets.size(); t-- > 0;) {
              if (static_cast<size_t>(c) >= scope.offsets[t]) {
                return static_cast<int>(t);
              }
            }
            (void)query;
            return 0;
          };
          int lt = table_of(lc), rt = table_of(rc);
          if (lt != rt) {
            LogicalJoinEdge edge;
            edge.left_table = lt;
            edge.left_col = lc - static_cast<int>(scope.offsets[lt]);
            edge.right_table = rt;
            edge.right_col = rc - static_cast<int>(scope.offsets[rt]);
            if (edge.left_table > edge.right_table) {
              std::swap(edge.left_table, edge.right_table);
              std::swap(edge.left_col, edge.right_col);
            }
            query.joins.push_back(edge);
            is_edge = true;
          }
        }
      }
      if (!is_edge) query.cross_predicates.push_back(std::move(bound));
    }
  }
  // Every table after the first must be reachable through join edges; the
  // planner verifies connectivity in FROM order, but catch the obvious
  // no-join case here for a better message.
  if (query.tables.size() > 1 && query.joins.empty()) {
    return Status::NotImplemented(
        "multi-table queries require equi-join predicates");
  }

  // SELECT list.
  for (const ParsedSelectItem& item : stmt.items) {
    if (item.is_aggregate) query.has_aggregates = true;
  }
  bool seen_aggregate = false;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const ParsedSelectItem& item = stmt.items[i];
    OutputItem out;
    out.is_aggregate = item.is_aggregate;
    out.agg = item.agg_func;
    if (item.expr != nullptr) {
      BUFFERDB_ASSIGN_OR_RETURN(bound, BindExpr(*item.expr, scope));
      out.expr = std::move(bound);
    }
    if (!item.alias.empty()) {
      out.name = item.alias;
    } else if (item.is_aggregate) {
      std::string base = AggFuncName(item.agg_func);
      std::transform(base.begin(), base.end(), base.begin(), ::tolower);
      base.erase(std::remove_if(base.begin(), base.end(),
                                [](char c) { return c == '(' || c == ')' ||
                                                    c == '*'; }),
                 base.end());
      out.name = base + "_" + std::to_string(i);
    } else if (out.expr->kind() == ExprKind::kColumnRef) {
      out.name = static_cast<const ColumnRefExpr&>(*out.expr).name();
    } else {
      out.name = "expr_" + std::to_string(i);
    }

    if (query.has_aggregates && !item.is_aggregate) {
      if (seen_aggregate) {
        return Status::NotImplemented(
            "group-by columns must precede aggregates in SELECT");
      }
      if (out.expr->kind() != ExprKind::kColumnRef) {
        return Status::NotImplemented(
            "non-aggregate SELECT items must be plain columns");
      }
      const std::string& col_name =
          static_cast<const ColumnRefExpr&>(*out.expr).name();
      bool in_group = std::any_of(
          stmt.group_by.begin(), stmt.group_by.end(),
          [&](const std::string& g) {
            size_t dot = g.find('.');
            return (dot == std::string::npos ? g : g.substr(dot + 1)) ==
                   col_name;
          });
      if (!in_group) {
        return Status::InvalidArgument("column " + col_name +
                                       " must appear in GROUP BY");
      }
      out.is_group_key = true;
    }
    if (item.is_aggregate) seen_aggregate = true;
    query.items.push_back(std::move(out));
  }

  // Every GROUP BY column must be selected (subset restriction).
  size_t selected_groups = 0;
  for (const OutputItem& item : query.items) {
    if (item.is_group_key) ++selected_groups;
  }
  if (query.has_aggregates && selected_groups != stmt.group_by.size()) {
    return Status::NotImplemented(
        "every GROUP BY column must appear in SELECT");
  }

  // HAVING binds to the output schema (group keys + aggregate aliases).
  if (stmt.having != nullptr) {
    std::vector<Column> out_cols;
    for (const OutputItem& item : query.items) {
      DataType type;
      if (item.is_aggregate) {
        DataType arg = item.expr != nullptr ? item.expr->result_type()
                                            : DataType::kInt64;
        type = AggOutputType(item.agg, arg);
      } else {
        type = item.expr->result_type();
      }
      out_cols.push_back(Column{item.name, type});
    }
    Schema output_schema(std::move(out_cols));
    Scope output_scope;
    output_scope.schema = &output_schema;
    BUFFERDB_ASSIGN_OR_RETURN(having, BindExpr(*stmt.having, output_scope));
    if (having->result_type() != DataType::kBool) {
      return Status::TypeError("HAVING must be boolean");
    }
    if (!query.has_aggregates) {
      return Status::InvalidArgument("HAVING requires aggregation");
    }
    query.having = std::move(having);
  }
  query.distinct = stmt.distinct;

  for (const ParsedOrderBy& ob : stmt.order_by) {
    size_t dot = ob.column.find('.');
    query.order_by.emplace_back(
        dot == std::string::npos ? ob.column : ob.column.substr(dot + 1),
        ob.descending);
  }
  query.limit = stmt.limit;
  return query;
}

Result<LogicalQuery> Binder::BindSql(const std::string& sql) {
  BUFFERDB_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
  return Bind(stmt);
}

}  // namespace bufferdb::sql

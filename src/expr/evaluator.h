#pragma once

#include <span>

#include "expr/expression.h"

namespace bufferdb {

/// SQL predicate semantics: true iff the expression evaluates to non-NULL
/// true.
bool EvaluatePredicate(const Expression& expr, const TupleView& row);

/// True if `expr` references no columns (usable before any row exists).
bool IsConstantExpr(const Expression& expr);

/// True if every column referenced by `expr` is < num_columns (sanity check
/// when binding an expression to a schema).
bool ExprBoundTo(const Expression& expr, size_t num_columns);

/// Collects the distinct column indexes referenced by `expr`.
void CollectColumns(const Expression& expr, std::vector<int>* columns);

/// Appends the conjuncts of `expr`'s top-level AND chain, left to right
/// (`expr` itself when it is no AND).
void CollectConjuncts(const Expression& expr,
                      std::vector<const Expression*>* out);

/// Matches a comparison between a column reference and a literal, in
/// either orientation, as `*column <*op> *literal`: the operator is
/// mirrored when the column is on the right (`5 < x` is `x > 5`).
bool MatchColumnComparison(const Expression& expr,
                           const ColumnRefExpr** column, const Value** literal,
                           BinaryOp* op);

/// Clones `expr` with every column reference `c` rebound to column `pos[c]`
/// of `schema` (type and name taken from there). Every referenced `c` must
/// have `pos[c] >= 0`.
ExprPtr RemapColumns(const Expression& expr, std::span<const int> pos,
                     const Schema& schema);

/// Recursively evaluates constant subtrees into literals, including the
/// boolean short-circuits (FALSE AND x -> FALSE, TRUE AND x -> x, and the
/// OR duals). Division by zero folds to a NULL literal, matching runtime
/// semantics. The result is semantically equivalent to the input.
///
/// Folds in place: only the folded subtrees are replaced, a short-circuit
/// returns the deciding child's own node, and a tree with nothing to fold
/// comes back as the same nodes, so folding a folded tree allocates
/// nothing.
ExprPtr FoldConstants(ExprPtr expr);

}  // namespace bufferdb


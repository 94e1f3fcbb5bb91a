#include "plan/cardinality.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "expr/evaluator.h"

namespace bufferdb {

namespace {

constexpr double kDefaultSelectivity = 1.0 / 3.0;
constexpr double kEqualitySelectivity = 0.05;

double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

// Handles `col <op> literal` (either orientation) using column stats.
double EstimateComparison(const BinaryExpr& cmp, Table* table) {
  const ColumnRefExpr* col = nullptr;
  const Value* lit = nullptr;
  BinaryOp op = cmp.op();
  if (!MatchColumnComparison(cmp, &col, &lit, &op)) {
    return op == BinaryOp::kEq ? kEqualitySelectivity : kDefaultSelectivity;
  }
  if (lit->is_null()) return 0.0;

  const ColumnStats& stats = table->stats(col->column());
  if (!stats.valid || !IsNumeric(lit->type())) {
    switch (op) {
      case BinaryOp::kEq:
        return kEqualitySelectivity;
      case BinaryOp::kNe:
        return 1.0 - kEqualitySelectivity;
      default:
        return kDefaultSelectivity;
    }
  }
  double v = lit->AsDouble();
  double lo = stats.min, hi = stats.max;
  double width = hi - lo;
  switch (op) {
    case BinaryOp::kEq:
      if (v < lo || v > hi) return 0.0;
      return width <= 0 ? 1.0 : Clamp01(1.0 / (width + 1.0));
    case BinaryOp::kNe:
      return 1.0 - (width <= 0 ? 1.0 : Clamp01(1.0 / (width + 1.0)));
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      if (v <= lo) return 0.0;
      if (v >= hi) return 1.0;
      return Clamp01((v - lo) / width);
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      if (v >= hi) return 0.0;
      if (v <= lo) return 1.0;
      return Clamp01((hi - v) / width);
    default:
      return kDefaultSelectivity;
  }
}

// The values a column may take under the range conjuncts on it.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  // Narrows the interval by `column <op> v` (=, <, <=, >, >=).
  void Apply(BinaryOp op, double v) {
    const bool open = op == BinaryOp::kLt || op == BinaryOp::kGt;
    if (op != BinaryOp::kLt && op != BinaryOp::kLe &&
        (v > lo || (v == lo && open))) {
      lo = v;
      lo_open = open;
    }
    if (op != BinaryOp::kGt && op != BinaryOp::kGe &&
        (v < hi || (v == hi && open))) {
      hi = v;
      hi_open = open;
    }
  }
  bool empty() const { return lo > hi || (lo == hi && (lo_open || hi_open)); }
};

// Fraction of rows inside `iv` under a uniform model over [min, max]; a
// single point is estimated as an equality is.
double IntervalSelectivity(const ColumnStats& stats, const Interval& iv) {
  if (iv.empty()) return 0.0;
  const double width = stats.max - stats.min;
  if (iv.lo == iv.hi) {
    if (iv.lo < stats.min || iv.lo > stats.max) return 0.0;
    return width <= 0 ? 1.0 : Clamp01(1.0 / (width + 1.0));
  }
  const double lo = std::max(iv.lo, stats.min);
  const double hi = std::min(iv.hi, stats.max);
  if (lo > hi) return 0.0;
  return width <= 0 ? 1.0 : Clamp01((hi - lo) / width);
}

// `e` as a range conjunct `column <op> numeric literal` (=, <, <=, >, >=,
// either orientation) on a column with statistics: returns the column and
// sets `op` and `v`, or returns -1.
int RangeColumn(const Expression& e, Table* table, BinaryOp* op, double* v) {
  const ColumnRefExpr* col = nullptr;
  const Value* lit = nullptr;
  if (!MatchColumnComparison(e, &col, &lit, op) || *op == BinaryOp::kNe ||
      lit->is_null() || !IsNumeric(lit->type()) ||
      !table->stats(col->column()).valid) {
    return -1;
  }
  *v = lit->AsDouble();
  return col->column();
}

// An AND chain: the range conjuncts on one column bound one interval, so
// `x >= a AND x < b` is estimated as P(a <= x < b), not P(x >= a) *
// P(x < b). The columns stay independent of each other. A chain with no
// column bounded twice keeps the plain product, bit for bit.
double EstimateConjunction(const BinaryExpr& conj, Table* table) {
  std::vector<const Expression*> terms;
  CollectConjuncts(conj, &terms);
  std::vector<int> cols(terms.size());
  std::vector<BinaryOp> ops(terms.size());
  std::vector<double> vals(terms.size());
  bool folds = false;
  for (size_t i = 0; i < terms.size(); ++i) {
    cols[i] = RangeColumn(*terms[i], table, &ops[i], &vals[i]);
    for (size_t j = 0; j < i; ++j) folds |= cols[i] >= 0 && cols[j] == cols[i];
  }
  if (!folds) {
    return EstimateSelectivity(conj.left(), table) *
           EstimateSelectivity(conj.right(), table);
  }
  double selectivity = 1.0;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (cols[i] < 0) {
      selectivity *= EstimateSelectivity(*terms[i], table);
      continue;
    }
    if (std::find(cols.begin(), cols.begin() + i, cols[i]) !=
        cols.begin() + i) {
      continue;  // Folded into the column's first conjunct.
    }
    Interval iv;
    for (size_t j = i; j < terms.size(); ++j) {
      if (cols[j] == cols[i]) iv.Apply(ops[j], vals[j]);
    }
    selectivity *= IntervalSelectivity(table->stats(cols[i]), iv);
  }
  return selectivity;
}

}  // namespace

double EstimateSelectivity(const Expression& predicate, Table* table) {
  switch (predicate.kind()) {
    case ExprKind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(predicate);
      if (lit.value().is_null()) return 0.0;
      return lit.value().bool_value() ? 1.0 : 0.0;
    }
    case ExprKind::kColumnRef:
      return kDefaultSelectivity;
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(predicate);
      if (u.op() == UnaryOp::kNot) {
        return Clamp01(1.0 - EstimateSelectivity(u.operand(), table));
      }
      if (u.op() == UnaryOp::kIsNull) return 0.01;
      if (u.op() == UnaryOp::kIsNotNull) return 0.99;
      return kDefaultSelectivity;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(predicate);
      if (b.op() == BinaryOp::kAnd) return EstimateConjunction(b, table);
      if (b.op() == BinaryOp::kOr) {
        double s1 = EstimateSelectivity(b.left(), table);
        double s2 = EstimateSelectivity(b.right(), table);
        return Clamp01(s1 + s2 - s1 * s2);
      }
      if (b.op() == BinaryOp::kLike) return 0.1;
      if (IsComparison(b.op())) return EstimateComparison(b, table);
      return kDefaultSelectivity;
    }
  }
  return kDefaultSelectivity;
}

double EstimateIntervalSelectivity(Table* table, int column, double lo,
                                   double hi) {
  const ColumnStats& stats = table->stats(column);
  if (!stats.valid) return kDefaultSelectivity;
  Interval iv;
  iv.Apply(BinaryOp::kGe, lo);
  iv.Apply(BinaryOp::kLe, hi);
  return IntervalSelectivity(stats, iv);
}

double EstimateEquiJoinRows(double left_rows, double right_rows,
                            double right_table_rows, bool right_unique) {
  if (right_unique) {
    // Foreign-key join: each left row matches at most one right row; if the
    // right side is filtered, scale by the surviving fraction.
    double fraction =
        right_table_rows > 0 ? right_rows / right_table_rows : 1.0;
    return left_rows * std::min(1.0, fraction);
  }
  double denom = std::max(left_rows, right_rows);
  if (denom <= 0) return 0;
  return left_rows * right_rows / denom;
}

}  // namespace bufferdb

#include "expr/evaluator.h"

#include <algorithm>
#include <utility>

namespace bufferdb {

bool EvaluatePredicate(const Expression& expr, const TupleView& row) {
  Value v = expr.Evaluate(row);
  return !v.is_null() && v.bool_value();
}

size_t SelectRows(const Expression& predicate, const uint8_t* const* rows,
                  size_t n, const Schema& schema, SelectionVector* sel) {
  if (sel->idx.size() < n) sel->idx.resize(n);
  uint32_t* idx = sel->idx.data();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    // The store always happens and the cursor advances by the result.
    idx[kept] = static_cast<uint32_t>(i);
    kept += EvaluatePredicate(predicate, TupleView(rows[i], &schema)) ? 1 : 0;
  }
  sel->count = kept;
  return kept;
}

bool IsConstantExpr(const Expression& expr) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef:
      return false;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return IsConstantExpr(b.left()) && IsConstantExpr(b.right());
    }
    case ExprKind::kUnary:
      return IsConstantExpr(static_cast<const UnaryExpr&>(expr).operand());
  }
  return false;
}

bool ExprBoundTo(const Expression& expr, size_t num_columns) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef: {
      int col = static_cast<const ColumnRefExpr&>(expr).column();
      return col >= 0 && static_cast<size_t>(col) < num_columns;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return ExprBoundTo(b.left(), num_columns) &&
             ExprBoundTo(b.right(), num_columns);
    }
    case ExprKind::kUnary:
      return ExprBoundTo(static_cast<const UnaryExpr&>(expr).operand(),
                         num_columns);
  }
  return false;
}

namespace {

// Constant expressions never touch the row, so a null view is safe.
Value EvaluateConstant(const Expression& expr) {
  static const Schema* empty = new Schema();
  return expr.Evaluate(TupleView(nullptr, empty));
}

bool IsLiteralBool(const Expression& expr, bool value) {
  if (expr.kind() != ExprKind::kLiteral) return false;
  const Value& v = static_cast<const LiteralExpr&>(expr).value();
  return !v.is_null() && v.type() == DataType::kBool &&
         v.bool_value() == value;
}

}  // namespace

ExprPtr FoldConstants(ExprPtr expr) {
  switch (expr->kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      return expr;
    case ExprKind::kBinary: {
      auto& b = static_cast<BinaryExpr&>(*expr);
      ExprPtr& left = b.mutable_left();
      ExprPtr& right = b.mutable_right();
      left = FoldConstants(std::move(left));
      right = FoldConstants(std::move(right));
      // Boolean short-circuits with one constant side hand out the child
      // that decides: the constant, or the other side.
      if (b.op() == BinaryOp::kAnd) {
        if (IsLiteralBool(*left, false)) return std::move(left);
        if (IsLiteralBool(*right, false)) return std::move(right);
        if (IsLiteralBool(*left, true)) return std::move(right);
        if (IsLiteralBool(*right, true)) return std::move(left);
      }
      if (b.op() == BinaryOp::kOr) {
        if (IsLiteralBool(*left, true)) return std::move(left);
        if (IsLiteralBool(*right, true)) return std::move(right);
        if (IsLiteralBool(*left, false)) return std::move(right);
        if (IsLiteralBool(*right, false)) return std::move(left);
      }
      if (left->kind() == ExprKind::kLiteral &&
          right->kind() == ExprKind::kLiteral) {
        return MakeLiteral(EvaluateConstant(*expr));
      }
      return expr;
    }
    case ExprKind::kUnary: {
      ExprPtr& operand = static_cast<UnaryExpr&>(*expr).mutable_operand();
      operand = FoldConstants(std::move(operand));
      if (operand->kind() == ExprKind::kLiteral) {
        return MakeLiteral(EvaluateConstant(*expr));
      }
      return expr;
    }
  }
  return expr;
}

void CollectConjuncts(const Expression& expr,
                      std::vector<const Expression*>* out) {
  if (expr.kind() == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(expr);
    if (b.op() == BinaryOp::kAnd) {
      CollectConjuncts(b.left(), out);
      CollectConjuncts(b.right(), out);
      return;
    }
  }
  out->push_back(&expr);
}

bool MatchColumnComparison(const Expression& expr,
                           const ColumnRefExpr** column, const Value** literal,
                           BinaryOp* op) {
  if (expr.kind() != ExprKind::kBinary) return false;
  const auto& b = static_cast<const BinaryExpr&>(expr);
  if (!IsComparison(b.op())) return false;
  const Expression* col_side = &b.left();
  const Expression* lit_side = &b.right();
  *op = b.op();
  if (col_side->kind() != ExprKind::kColumnRef) {
    std::swap(col_side, lit_side);
    switch (*op) {
      case BinaryOp::kLt:
        *op = BinaryOp::kGt;
        break;
      case BinaryOp::kLe:
        *op = BinaryOp::kGe;
        break;
      case BinaryOp::kGt:
        *op = BinaryOp::kLt;
        break;
      case BinaryOp::kGe:
        *op = BinaryOp::kLe;
        break;
      default:
        break;
    }
  }
  if (col_side->kind() != ExprKind::kColumnRef ||
      lit_side->kind() != ExprKind::kLiteral) {
    return false;
  }
  *column = static_cast<const ColumnRefExpr*>(col_side);
  *literal = &static_cast<const LiteralExpr*>(lit_side)->value();
  return true;
}

void CollectColumns(const Expression& expr, std::vector<int>* columns) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return;
    case ExprKind::kColumnRef: {
      int col = static_cast<const ColumnRefExpr&>(expr).column();
      if (std::find(columns->begin(), columns->end(), col) == columns->end()) {
        columns->push_back(col);
      }
      return;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      CollectColumns(b.left(), columns);
      CollectColumns(b.right(), columns);
      return;
    }
    case ExprKind::kUnary:
      CollectColumns(static_cast<const UnaryExpr&>(expr).operand(), columns);
      return;
  }
}

ExprPtr RemapColumns(const Expression& expr, std::span<const int> pos,
                     const Schema& schema) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return expr.Clone();
    case ExprKind::kColumnRef: {
      int col = pos[static_cast<const ColumnRefExpr&>(expr).column()];
      return MakeColumnRefUnchecked(col, schema.column(col).type,
                                    schema.column(col).name);
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      auto out = MakeBinary(b.op(), RemapColumns(b.left(), pos, schema),
                            RemapColumns(b.right(), pos, schema));
      return std::move(*out);
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      auto out = MakeUnary(u.op(), RemapColumns(u.operand(), pos, schema));
      return std::move(*out);
    }
  }
  return nullptr;
}

}  // namespace bufferdb

#include "expr/expression.h"

namespace bufferdb {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

// Iterative wildcard match: '%' matches any run, '_' any single character.
bool LikeMatch(std::string_view text, std::string_view pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

Value ColumnRefExpr::Evaluate(const TupleView& row) const {
  if (row.IsNull(column_)) return Value::Null(result_type());
  switch (result_type()) {
    case DataType::kBool:
      return Value::Bool(row.GetBool(column_));
    case DataType::kInt64:
      return Value::Int64(row.GetInt64(column_));
    case DataType::kDouble:
      return Value::Double(row.GetDouble(column_));
    case DataType::kDate:
      return Value::Date(row.GetDate(column_));
    case DataType::kString:
      return Value::String(std::string(row.GetString(column_)));
  }
  return Value();
}

namespace {

Value EvalArithmetic(BinaryOp op, const Value& l, const Value& r,
                     DataType result_type) {
  if (l.is_null() || r.is_null()) return Value::Null(result_type);
  if (result_type == DataType::kDouble) {
    double a = l.AsDouble(), b = r.AsDouble();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Double(a + b);
      case BinaryOp::kSub:
        return Value::Double(a - b);
      case BinaryOp::kMul:
        return Value::Double(a * b);
      case BinaryOp::kDiv:
        return b == 0 ? Value::Null(DataType::kDouble) : Value::Double(a / b);
      default:
        break;
    }
  } else {
    int64_t a = l.int64_value(), b = r.int64_value();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int64(WrappingAdd(a, b));
      case BinaryOp::kSub:
        return Value::Int64(WrappingSub(a, b));
      case BinaryOp::kMul:
        return Value::Int64(WrappingMul(a, b));
      case BinaryOp::kDiv:
        if (b == 0) return Value::Null(DataType::kInt64);
        // INT64_MIN / -1 overflows (hardware trap on x86); define it as
        // INT64_MIN, matching the vectorized kernels (expr/vector_eval.cc).
        if (a == INT64_MIN && b == -1) return Value::Int64(INT64_MIN);
        return Value::Int64(a / b);
      default:
        break;
    }
  }
  return Value::Null(result_type);
}

Value EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null(DataType::kBool);
  int c = Value::Compare(l, r);
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(c == 0);
    case BinaryOp::kNe:
      return Value::Bool(c != 0);
    case BinaryOp::kLt:
      return Value::Bool(c < 0);
    case BinaryOp::kLe:
      return Value::Bool(c <= 0);
    case BinaryOp::kGt:
      return Value::Bool(c > 0);
    case BinaryOp::kGe:
      return Value::Bool(c >= 0);
    default:
      return Value::Null(DataType::kBool);
  }
}

}  // namespace

Value BinaryExpr::Evaluate(const TupleView& row) const {
  // Short-circuiting three-valued logic for AND/OR.
  if (op_ == BinaryOp::kAnd) {
    Value l = left_->Evaluate(row);
    if (!l.is_null() && !l.bool_value()) return Value::Bool(false);
    Value r = right_->Evaluate(row);
    if (!r.is_null() && !r.bool_value()) return Value::Bool(false);
    if (l.is_null() || r.is_null()) return Value::Null(DataType::kBool);
    return Value::Bool(true);
  }
  if (op_ == BinaryOp::kOr) {
    Value l = left_->Evaluate(row);
    if (!l.is_null() && l.bool_value()) return Value::Bool(true);
    Value r = right_->Evaluate(row);
    if (!r.is_null() && r.bool_value()) return Value::Bool(true);
    if (l.is_null() || r.is_null()) return Value::Null(DataType::kBool);
    return Value::Bool(false);
  }

  Value l = left_->Evaluate(row);
  Value r = right_->Evaluate(row);
  if (op_ == BinaryOp::kLike) {
    if (l.is_null() || r.is_null()) return Value::Null(DataType::kBool);
    return Value::Bool(LikeMatch(l.string_value(), r.string_value()));
  }
  if (IsComparison(op_)) return EvalComparison(op_, l, r);
  return EvalArithmetic(op_, l, r, result_type());
}

std::string BinaryExpr::ToString() const {
  // Built via append rather than operator+ chains: gcc 12's -Wrestrict
  // false-fires on `const char* + std::string&&` at -O3 (GCC PR105651),
  // and CI promotes warnings to errors.
  std::string out = "(";
  out += left_->ToString();
  out += " ";
  out += BinaryOpName(op_);
  out += " ";
  out += right_->ToString();
  out += ")";
  return out;
}

Value UnaryExpr::Evaluate(const TupleView& row) const {
  Value v = operand_->Evaluate(row);
  switch (op_) {
    case UnaryOp::kNot:
      if (v.is_null()) return Value::Null(DataType::kBool);
      return Value::Bool(!v.bool_value());
    case UnaryOp::kNegate:
      if (v.is_null()) return Value::Null(result_type());
      if (result_type() == DataType::kDouble) return Value::Double(-v.AsDouble());
      return Value::Int64(WrappingNeg(v.int64_value()));
    case UnaryOp::kIsNull:
      return Value::Bool(v.is_null());
    case UnaryOp::kIsNotNull:
      return Value::Bool(!v.is_null());
  }
  return Value();
}

std::string UnaryExpr::ToString() const {
  switch (op_) {
    case UnaryOp::kNot: {
      // Append form for the same -Wrestrict reason as BinaryExpr::ToString.
      std::string out = "NOT ";
      out += operand_->ToString();
      return out;
    }
    case UnaryOp::kNegate: {
      std::string out = "-";
      out += operand_->ToString();
      return out;
    }
    case UnaryOp::kIsNull:
      return operand_->ToString() + " IS NULL";
    case UnaryOp::kIsNotNull:
      return operand_->ToString() + " IS NOT NULL";
  }
  return "?";
}

ExprPtr MakeLiteral(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }

Result<ExprPtr> MakeColumnRef(const Schema& schema, const std::string& name) {
  int col = schema.FindColumn(name);
  if (col < 0) return Status::NotFound("no such column: " + name);
  return ExprPtr(std::make_unique<ColumnRefExpr>(
      col, schema.column(col).type, name));
}

ExprPtr MakeColumnRefUnchecked(int column, DataType type, std::string name) {
  return std::make_unique<ColumnRefExpr>(column, type, std::move(name));
}

Result<ExprPtr> MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right) {
  DataType lt = left->result_type();
  DataType rt = right->result_type();
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    if (lt != DataType::kBool || rt != DataType::kBool) {
      return Status::TypeError("AND/OR require boolean operands");
    }
    return ExprPtr(std::make_unique<BinaryExpr>(op, std::move(left),
                                                std::move(right),
                                                DataType::kBool));
  }
  if (op == BinaryOp::kLike) {
    if (lt != DataType::kString || rt != DataType::kString) {
      return Status::TypeError("LIKE requires string operands");
    }
    return ExprPtr(std::make_unique<BinaryExpr>(op, std::move(left),
                                                std::move(right),
                                                DataType::kBool));
  }
  if (IsComparison(op)) {
    bool both_strings = lt == DataType::kString && rt == DataType::kString;
    bool both_numeric = IsNumeric(lt) && IsNumeric(rt);
    if (!both_strings && !both_numeric) {
      return Status::TypeError(std::string("cannot compare ") +
                               DataTypeName(lt) + " with " + DataTypeName(rt));
    }
    return ExprPtr(std::make_unique<BinaryExpr>(op, std::move(left),
                                                std::move(right),
                                                DataType::kBool));
  }
  // Arithmetic.
  if (!IsNumeric(lt) || !IsNumeric(rt) || lt == DataType::kBool ||
      rt == DataType::kBool) {
    return Status::TypeError("arithmetic requires numeric operands");
  }
  DataType out =
      (lt == DataType::kDouble || rt == DataType::kDouble) ? DataType::kDouble
      : (lt == DataType::kDate || rt == DataType::kDate)   ? DataType::kInt64
                                                           : DataType::kInt64;
  return ExprPtr(std::make_unique<BinaryExpr>(op, std::move(left),
                                              std::move(right), out));
}

Result<ExprPtr> MakeUnary(UnaryOp op, ExprPtr operand) {
  DataType t = operand->result_type();
  switch (op) {
    case UnaryOp::kNot:
      if (t != DataType::kBool) return Status::TypeError("NOT requires bool");
      return ExprPtr(
          std::make_unique<UnaryExpr>(op, std::move(operand), DataType::kBool));
    case UnaryOp::kNegate:
      if (!IsNumeric(t) || t == DataType::kBool) {
        return Status::TypeError("negation requires numeric operand");
      }
      return ExprPtr(std::make_unique<UnaryExpr>(op, std::move(operand), t));
    case UnaryOp::kIsNull:
    case UnaryOp::kIsNotNull:
      return ExprPtr(
          std::make_unique<UnaryExpr>(op, std::move(operand), DataType::kBool));
  }
  return Status::InvalidArgument("bad unary op");
}

}  // namespace bufferdb

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/status.h"
#include "storage/tuple.h"

namespace bufferdb {

enum class ExprKind : uint8_t {
  kColumnRef,
  kLiteral,
  kBinary,
  kUnary,
};

enum class BinaryOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kLike,  // SQL LIKE with % and _ wildcards (strings only).
};

enum class UnaryOp : uint8_t {
  kNot,
  kNegate,
  kIsNull,
  kIsNotNull,
};

/// INT64 arithmetic wraps around in two's complement, in the interpreter
/// and the vector kernels alike: an overflowing constant such as
/// `9223372036854775807 + 1` folds to a value, not to undefined behaviour.
inline int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingNeg(int64_t a) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(a));
}

const char* BinaryOpName(BinaryOp op);
bool IsComparison(BinaryOp op);

/// SQL LIKE wildcard matching ('%' = any run, '_' = one character).
bool LikeMatch(std::string_view text, std::string_view pattern);

/// Typed scalar expression tree evaluated tuple-at-a-time, PostgreSQL-style.
/// Every node carries its result type; construction via the Make* factories
/// performs type checking. NULL semantics follow SQL (three-valued logic for
/// AND/OR, NULL propagation for arithmetic and comparisons).
class Expression {
 public:
  virtual ~Expression() = default;

  ExprKind kind() const { return kind_; }
  DataType result_type() const { return result_type_; }

  virtual Value Evaluate(const TupleView& row) const = 0;
  virtual std::string ToString() const = 0;
  virtual std::unique_ptr<Expression> Clone() const = 0;

 protected:
  Expression(ExprKind kind, DataType result_type)
      : kind_(kind), result_type_(result_type) {}

 private:
  ExprKind kind_;
  DataType result_type_;
};

using ExprPtr = std::unique_ptr<Expression>;

class ColumnRefExpr final : public Expression {
 public:
  ColumnRefExpr(int column, DataType type, std::string name)
      : Expression(ExprKind::kColumnRef, type),
        column_(column),
        name_(std::move(name)) {}

  int column() const { return column_; }
  const std::string& name() const { return name_; }

  Value Evaluate(const TupleView& row) const override;
  std::string ToString() const override { return name_; }
  ExprPtr Clone() const override {
    return std::make_unique<ColumnRefExpr>(column_, result_type(), name_);
  }

 private:
  int column_;
  std::string name_;
};

class LiteralExpr final : public Expression {
 public:
  explicit LiteralExpr(Value value)
      : Expression(ExprKind::kLiteral, value.type()),
        value_(std::move(value)) {}

  const Value& value() const { return value_; }

  Value Evaluate(const TupleView&) const override { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  ExprPtr Clone() const override {
    return std::make_unique<LiteralExpr>(value_);
  }

 private:
  Value value_;
};

class BinaryExpr final : public Expression {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right, DataType result_type)
      : Expression(ExprKind::kBinary, result_type),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  BinaryOp op() const { return op_; }
  const Expression& left() const { return *left_; }
  const Expression& right() const { return *right_; }
  /// The owned children, for rewrites that replace a child in place. The
  /// node keeps its result type, so a replacement must leave it what
  /// MakeBinary would give the new children.
  ExprPtr& mutable_left() { return left_; }
  ExprPtr& mutable_right() { return right_; }

  Value Evaluate(const TupleView& row) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<BinaryExpr>(op_, left_->Clone(), right_->Clone(),
                                        result_type());
  }

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class UnaryExpr final : public Expression {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand, DataType result_type)
      : Expression(ExprKind::kUnary, result_type),
        op_(op),
        operand_(std::move(operand)) {}

  UnaryOp op() const { return op_; }
  const Expression& operand() const { return *operand_; }
  /// The owned operand, under BinaryExpr::mutable_left's rule (MakeUnary).
  ExprPtr& mutable_operand() { return operand_; }

  Value Evaluate(const TupleView& row) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<UnaryExpr>(op_, operand_->Clone(), result_type());
  }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

/// Factories (type-checked).
ExprPtr MakeLiteral(Value v);
Result<ExprPtr> MakeColumnRef(const Schema& schema, const std::string& name);
ExprPtr MakeColumnRefUnchecked(int column, DataType type, std::string name);
Result<ExprPtr> MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right);
Result<ExprPtr> MakeUnary(UnaryOp op, ExprPtr operand);

}  // namespace bufferdb


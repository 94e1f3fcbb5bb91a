#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/arena.h"
#include "expr/evaluator.h"
#include "expr/expression.h"
#include "storage/tuple.h"

namespace bufferdb {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprTest()
      : schema_({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString},
                 {"n", DataType::kInt64}}) {
    TupleBuilder builder(&schema_);
    builder.SetInt64(0, 10);
    builder.SetDouble(1, 2.5);
    builder.SetBool(2, true);
    builder.SetString(3, "abc");
    builder.SetNull(4);
    row_ = builder.Finish(&arena_);
  }

  ExprPtr Col(const std::string& name) {
    auto r = MakeColumnRef(schema_, name);
    EXPECT_TRUE(r.ok());
    return std::move(*r);
  }
  ExprPtr Lit(Value v) { return MakeLiteral(std::move(v)); }
  ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
    auto res = MakeBinary(op, std::move(l), std::move(r));
    EXPECT_TRUE(res.ok()) << res.status();
    return std::move(*res);
  }
  Value Eval(const ExprPtr& e) { return e->Evaluate(TupleView(row_, &schema_)); }

  Schema schema_;
  Arena arena_;
  const uint8_t* row_;
};

TEST_F(ExprTest, ColumnRefReadsTypedValues) {
  EXPECT_EQ(Eval(Col("i")), Value::Int64(10));
  EXPECT_EQ(Eval(Col("d")), Value::Double(2.5));
  EXPECT_EQ(Eval(Col("b")), Value::Bool(true));
  EXPECT_EQ(Eval(Col("s")), Value::String("abc"));
  EXPECT_TRUE(Eval(Col("n")).is_null());
}

TEST_F(ExprTest, UnknownColumnFails) {
  EXPECT_FALSE(MakeColumnRef(schema_, "zzz").ok());
}

TEST_F(ExprTest, IntegerArithmetic) {
  EXPECT_EQ(Eval(Bin(BinaryOp::kAdd, Col("i"), Lit(Value::Int64(5)))),
            Value::Int64(15));
  EXPECT_EQ(Eval(Bin(BinaryOp::kSub, Col("i"), Lit(Value::Int64(3)))),
            Value::Int64(7));
  EXPECT_EQ(Eval(Bin(BinaryOp::kMul, Col("i"), Lit(Value::Int64(4)))),
            Value::Int64(40));
  EXPECT_EQ(Eval(Bin(BinaryOp::kDiv, Col("i"), Lit(Value::Int64(3)))),
            Value::Int64(3));
}

TEST_F(ExprTest, MixedArithmeticWidensToDouble) {
  ExprPtr e = Bin(BinaryOp::kMul, Col("i"), Col("d"));
  EXPECT_EQ(e->result_type(), DataType::kDouble);
  EXPECT_EQ(Eval(e), Value::Double(25.0));
}

TEST_F(ExprTest, DivisionByZeroYieldsNull) {
  EXPECT_TRUE(Eval(Bin(BinaryOp::kDiv, Col("i"), Lit(Value::Int64(0))))
                  .is_null());
  EXPECT_TRUE(Eval(Bin(BinaryOp::kDiv, Col("d"), Lit(Value::Double(0.0))))
                  .is_null());
}

TEST_F(ExprTest, NullPropagatesThroughArithmetic) {
  EXPECT_TRUE(Eval(Bin(BinaryOp::kAdd, Col("n"), Lit(Value::Int64(1))))
                  .is_null());
}

TEST_F(ExprTest, Comparisons) {
  EXPECT_EQ(Eval(Bin(BinaryOp::kLt, Col("i"), Lit(Value::Int64(11)))),
            Value::Bool(true));
  EXPECT_EQ(Eval(Bin(BinaryOp::kGe, Col("i"), Lit(Value::Int64(11)))),
            Value::Bool(false));
  EXPECT_EQ(Eval(Bin(BinaryOp::kEq, Col("s"), Lit(Value::String("abc")))),
            Value::Bool(true));
  EXPECT_EQ(Eval(Bin(BinaryOp::kNe, Col("s"), Lit(Value::String("abd")))),
            Value::Bool(true));
}

TEST_F(ExprTest, ComparisonWithNullIsNull) {
  EXPECT_TRUE(Eval(Bin(BinaryOp::kEq, Col("n"), Lit(Value::Int64(0))))
                  .is_null());
}

TEST_F(ExprTest, ThreeValuedAnd) {
  ExprPtr null_cmp = Bin(BinaryOp::kEq, Col("n"), Lit(Value::Int64(0)));
  // NULL AND FALSE = FALSE.
  EXPECT_EQ(Eval(Bin(BinaryOp::kAnd, null_cmp->Clone(),
                     Lit(Value::Bool(false)))),
            Value::Bool(false));
  // NULL AND TRUE = NULL.
  EXPECT_TRUE(Eval(Bin(BinaryOp::kAnd, null_cmp->Clone(),
                       Lit(Value::Bool(true))))
                  .is_null());
}

TEST_F(ExprTest, ThreeValuedOr) {
  ExprPtr null_cmp = Bin(BinaryOp::kEq, Col("n"), Lit(Value::Int64(0)));
  // NULL OR TRUE = TRUE.
  EXPECT_EQ(Eval(Bin(BinaryOp::kOr, null_cmp->Clone(), Lit(Value::Bool(true)))),
            Value::Bool(true));
  // NULL OR FALSE = NULL.
  EXPECT_TRUE(Eval(Bin(BinaryOp::kOr, null_cmp->Clone(),
                       Lit(Value::Bool(false))))
                  .is_null());
}

TEST_F(ExprTest, NotAndIsNull) {
  auto not_b = MakeUnary(UnaryOp::kNot, Col("b"));
  ASSERT_TRUE(not_b.ok());
  EXPECT_EQ(Eval(*not_b), Value::Bool(false));

  auto is_null = MakeUnary(UnaryOp::kIsNull, Col("n"));
  ASSERT_TRUE(is_null.ok());
  EXPECT_EQ(Eval(*is_null), Value::Bool(true));

  auto is_not_null = MakeUnary(UnaryOp::kIsNotNull, Col("n"));
  ASSERT_TRUE(is_not_null.ok());
  EXPECT_EQ(Eval(*is_not_null), Value::Bool(false));
}

TEST_F(ExprTest, Negate) {
  auto neg = MakeUnary(UnaryOp::kNegate, Col("d"));
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(Eval(*neg), Value::Double(-2.5));
}

TEST_F(ExprTest, TypeCheckingRejectsBadCombinations) {
  EXPECT_FALSE(MakeBinary(BinaryOp::kAdd, Col("s"), Lit(Value::Int64(1))).ok());
  EXPECT_FALSE(MakeBinary(BinaryOp::kEq, Col("s"), Lit(Value::Int64(1))).ok());
  EXPECT_FALSE(MakeBinary(BinaryOp::kAnd, Col("i"), Col("b")).ok());
  EXPECT_FALSE(MakeUnary(UnaryOp::kNot, Col("i")).ok());
  EXPECT_FALSE(MakeUnary(UnaryOp::kNegate, Col("s")).ok());
}

TEST_F(ExprTest, CloneIsDeepAndEquivalent) {
  ExprPtr e = Bin(BinaryOp::kMul, Col("i"),
                  Bin(BinaryOp::kAdd, Col("d"), Lit(Value::Double(1.0))));
  ExprPtr clone = e->Clone();
  EXPECT_EQ(e->ToString(), clone->ToString());
  EXPECT_EQ(Eval(e), Eval(clone));
}

TEST_F(ExprTest, ToStringIsReadable) {
  ExprPtr e = Bin(BinaryOp::kLe, Col("i"), Lit(Value::Int64(5)));
  EXPECT_EQ(e->ToString(), "(i <= 5)");
}

TEST_F(ExprTest, EvaluatePredicateTreatsNullAsFalse) {
  ExprPtr null_cmp = Bin(BinaryOp::kEq, Col("n"), Lit(Value::Int64(0)));
  EXPECT_FALSE(EvaluatePredicate(*null_cmp, TupleView(row_, &schema_)));
  ExprPtr true_cmp = Bin(BinaryOp::kGt, Col("i"), Lit(Value::Int64(0)));
  EXPECT_TRUE(EvaluatePredicate(*true_cmp, TupleView(row_, &schema_)));
}

TEST_F(ExprTest, CollectColumnsFindsDistinctRefs) {
  ExprPtr e = Bin(BinaryOp::kAdd, Col("i"),
                  Bin(BinaryOp::kMul, Col("d"), Col("i")));
  std::vector<int> cols;
  CollectColumns(*e, &cols);
  EXPECT_EQ(cols.size(), 2u);
}

TEST_F(ExprTest, ConstantAndBoundChecks) {
  EXPECT_TRUE(IsConstantExpr(*Lit(Value::Int64(1))));
  EXPECT_FALSE(IsConstantExpr(*Col("i")));
  EXPECT_TRUE(ExprBoundTo(*Col("i"), schema_.num_columns()));
  EXPECT_FALSE(ExprBoundTo(*MakeColumnRefUnchecked(99, DataType::kInt64, "x"),
                           schema_.num_columns()));
}

}  // namespace
}  // namespace bufferdb

namespace bufferdb {
namespace {

TEST(LikeMatchTest, ExactAndWildcards) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_FALSE(LikeMatch("hello", "hell"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%o"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_FALSE(LikeMatch("hello", "h_go"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "%%%"));
  EXPECT_TRUE(LikeMatch("PROMO PLATED STEEL", "PROMO%"));
  EXPECT_FALSE(LikeMatch("STANDARD PLATED", "PROMO%"));
  EXPECT_TRUE(LikeMatch("aXbXc", "a%b%c"));
  EXPECT_FALSE(LikeMatch("acb", "a%b%c"));
}

TEST(LikeMatchTest, BacktrackingAcrossRepeats) {
  EXPECT_TRUE(LikeMatch("aaab", "%ab"));
  EXPECT_TRUE(LikeMatch("mississippi", "%iss%pi"));
  EXPECT_FALSE(LikeMatch("mississippi", "%issx%"));
}

class LikeExprTest : public ::testing::Test {
 protected:
  LikeExprTest() : schema_({{"s", DataType::kString}}) {
    TupleBuilder b(&schema_);
    b.SetString(0, "PROMO BRUSHED");
    row_ = b.Finish(&arena_);
  }
  Schema schema_;
  Arena arena_;
  const uint8_t* row_;
};

TEST_F(LikeExprTest, EvaluatesThroughExpressionTree) {
  auto col = MakeColumnRef(schema_, "s");
  ASSERT_TRUE(col.ok());
  auto like = MakeBinary(BinaryOp::kLike, std::move(*col),
                         MakeLiteral(Value::String("PROMO%")));
  ASSERT_TRUE(like.ok());
  EXPECT_EQ((*like)->Evaluate(TupleView(row_, &schema_)), Value::Bool(true));
  EXPECT_EQ((*like)->ToString(), "(s LIKE PROMO%)");
}

TEST_F(LikeExprTest, TypeCheckedToStrings) {
  auto col = MakeColumnRef(schema_, "s");
  ASSERT_TRUE(col.ok());
  EXPECT_FALSE(
      MakeBinary(BinaryOp::kLike, std::move(*col),
                 MakeLiteral(Value::Int64(1)))
          .ok());
}

TEST_F(LikeExprTest, NullPropagates) {
  auto like = MakeBinary(BinaryOp::kLike,
                         MakeLiteral(Value::Null(DataType::kString)),
                         MakeLiteral(Value::String("%")));
  ASSERT_TRUE(like.ok());
  EXPECT_TRUE((*like)->Evaluate(TupleView(row_, &schema_)).is_null());
}

}  // namespace
}  // namespace bufferdb

namespace bufferdb {
namespace {

class FoldTest : public ::testing::Test {
 protected:
  FoldTest() : schema_({{"x", DataType::kInt64}}) {}
  ExprPtr Col() {
    return MakeColumnRefUnchecked(0, DataType::kInt64, "x");
  }
  ExprPtr Lit(Value v) { return MakeLiteral(std::move(v)); }
  ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
    auto res = MakeBinary(op, std::move(l), std::move(r));
    EXPECT_TRUE(res.ok());
    return std::move(*res);
  }
  Schema schema_;
};

TEST_F(FoldTest, FoldsConstantArithmetic) {
  ExprPtr e = FoldConstants(Bin(
      BinaryOp::kMul, Lit(Value::Int64(6)),
      Bin(BinaryOp::kAdd, Lit(Value::Int64(3)), Lit(Value::Int64(4)))));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(static_cast<const LiteralExpr&>(*e).value(), Value::Int64(42));
}

TEST_F(FoldTest, FoldsComparisonsToBool) {
  ExprPtr e = FoldConstants(
      Bin(BinaryOp::kLt, Lit(Value::Int64(1)), Lit(Value::Int64(2))));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(static_cast<const LiteralExpr&>(*e).value(), Value::Bool(true));
}

TEST_F(FoldTest, ShortCircuitsBooleans) {
  // FALSE AND x -> FALSE even with a non-constant side.
  ExprPtr e = FoldConstants(
      Bin(BinaryOp::kAnd, Lit(Value::Bool(false)),
          Bin(BinaryOp::kGt, Col(), Lit(Value::Int64(0)))));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(static_cast<const LiteralExpr&>(*e).value(), Value::Bool(false));

  // TRUE AND x -> x.
  ExprPtr kept = FoldConstants(
      Bin(BinaryOp::kAnd, Lit(Value::Bool(true)),
          Bin(BinaryOp::kGt, Col(), Lit(Value::Int64(0)))));
  EXPECT_EQ(kept->kind(), ExprKind::kBinary);

  // x OR TRUE -> TRUE.
  ExprPtr t = FoldConstants(
      Bin(BinaryOp::kOr, Bin(BinaryOp::kGt, Col(), Lit(Value::Int64(0))),
          Lit(Value::Bool(true))));
  ASSERT_EQ(t->kind(), ExprKind::kLiteral);
  EXPECT_EQ(static_cast<const LiteralExpr&>(*t).value(), Value::Bool(true));
}

TEST_F(FoldTest, NonConstantSubtreesPreserved) {
  ExprPtr e = FoldConstants(
      Bin(BinaryOp::kAdd, Col(),
          Bin(BinaryOp::kMul, Lit(Value::Int64(2)), Lit(Value::Int64(3)))));
  ASSERT_EQ(e->kind(), ExprKind::kBinary);
  const auto& b = static_cast<const BinaryExpr&>(*e);
  EXPECT_EQ(b.right().kind(), ExprKind::kLiteral);  // 2*3 folded to 6.
  EXPECT_EQ(b.left().kind(), ExprKind::kColumnRef);

  // Semantics preserved when evaluated.
  Arena arena;
  TupleBuilder builder(&schema_);
  builder.SetInt64(0, 10);
  const uint8_t* row = builder.Finish(&arena);
  EXPECT_EQ(e->Evaluate(TupleView(row, &schema_)), Value::Int64(16));
}

TEST_F(FoldTest, DivisionByZeroFoldsToNull) {
  ExprPtr e = FoldConstants(
      Bin(BinaryOp::kDiv, Lit(Value::Int64(1)), Lit(Value::Int64(0))));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_TRUE(static_cast<const LiteralExpr&>(*e).value().is_null());
}

// Every node of `expr`, in pre-order.
void Nodes(const Expression& expr, std::vector<const Expression*>* out) {
  out->push_back(&expr);
  if (expr.kind() == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(expr);
    Nodes(b.left(), out);
    Nodes(b.right(), out);
  } else if (expr.kind() == ExprKind::kUnary) {
    Nodes(static_cast<const UnaryExpr&>(expr).operand(), out);
  }
}

std::vector<DataType> ResultTypes(const Expression& expr) {
  std::vector<const Expression*> nodes;
  Nodes(expr, &nodes);
  std::vector<DataType> types;
  for (const Expression* node : nodes) types.push_back(node->result_type());
  return types;
}

TEST_F(FoldTest, NothingToFoldKeepsEveryNode) {
  auto neg = MakeUnary(UnaryOp::kNegate, Col());
  ASSERT_TRUE(neg.ok());
  auto is_null = MakeUnary(UnaryOp::kIsNotNull, Col());
  ASSERT_TRUE(is_null.ok());
  ExprPtr e = Bin(
      BinaryOp::kOr,
      Bin(BinaryOp::kAnd, Bin(BinaryOp::kGt, Col(), Lit(Value::Int64(5))),
          std::move(*is_null)),
      Bin(BinaryOp::kEq, std::move(*neg), Lit(Value::Int64(3))));
  std::vector<const Expression*> before;
  Nodes(*e, &before);
  ExprPtr folded = FoldConstants(std::move(e));
  std::vector<const Expression*> after;
  Nodes(*folded, &after);
  EXPECT_EQ(after, before);
}

TEST_F(FoldTest, FoldingTwiceEqualsFoldingOnce) {
  std::vector<ExprPtr> trees;
  trees.push_back(Bin(BinaryOp::kAdd, Col(),
                      Bin(BinaryOp::kMul, Lit(Value::Int64(2)),
                          Lit(Value::Int64(3)))));
  trees.push_back(Bin(
      BinaryOp::kAnd, Lit(Value::Bool(true)),
      Bin(BinaryOp::kOr, Bin(BinaryOp::kLt, Col(), Lit(Value::Int64(1))),
          Bin(BinaryOp::kEq, Lit(Value::Int64(1)), Lit(Value::Int64(2))))));
  trees.push_back(Bin(BinaryOp::kGt, Col(),
                      Bin(BinaryOp::kDiv, Lit(Value::Int64(1)),
                          Lit(Value::Int64(0)))));
  // Negating a DATE yields an INT64 value under a DATE-typed node.
  auto neg_date = MakeUnary(UnaryOp::kNegate, Lit(Value::Date(9000)));
  ASSERT_TRUE(neg_date.ok());
  trees.push_back(Bin(BinaryOp::kSub, Col(), std::move(*neg_date)));
  for (ExprPtr& tree : trees) {
    ExprPtr once = FoldConstants(std::move(tree));
    const std::string text = once->ToString();
    const std::vector<DataType> types = ResultTypes(*once);
    const Expression* root = once.get();
    ExprPtr twice = FoldConstants(std::move(once));
    EXPECT_EQ(twice.get(), root) << text;
    EXPECT_EQ(twice->ToString(), text);
    EXPECT_EQ(ResultTypes(*twice), types) << text;
  }
}

TEST_F(FoldTest, ShortCircuitReturnsTheSurvivingChildsNode) {
  ExprPtr kept = Bin(BinaryOp::kGt, Col(), Lit(Value::Int64(0)));
  const Expression* kept_node = kept.get();
  ExprPtr e = FoldConstants(
      Bin(BinaryOp::kAnd, Lit(Value::Bool(true)), std::move(kept)));
  EXPECT_EQ(e.get(), kept_node);

  kept = Bin(BinaryOp::kLt, Col(), Lit(Value::Int64(9)));
  kept_node = kept.get();
  e = FoldConstants(Bin(BinaryOp::kOr, std::move(kept),
                        Bin(BinaryOp::kEq, Lit(Value::Int64(1)),
                            Lit(Value::Int64(2)))));  // FALSE once folded.
  EXPECT_EQ(e.get(), kept_node);
  EXPECT_EQ(e->ToString(), "(x < 9)");
}

TEST_F(FoldTest, Int64OverflowWrapsAround) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  ExprPtr sum = FoldConstants(
      Bin(BinaryOp::kAdd, Lit(Value::Int64(kMax)), Lit(Value::Int64(1))));
  ASSERT_EQ(sum->kind(), ExprKind::kLiteral);
  EXPECT_EQ(static_cast<const LiteralExpr&>(*sum).value(), Value::Int64(kMin));
  ExprPtr difference = FoldConstants(
      Bin(BinaryOp::kSub, Lit(Value::Int64(kMin)), Lit(Value::Int64(1))));
  EXPECT_EQ(static_cast<const LiteralExpr&>(*difference).value(),
            Value::Int64(kMax));
  ExprPtr product = FoldConstants(
      Bin(BinaryOp::kMul, Lit(Value::Int64(kMax)), Lit(Value::Int64(2))));
  EXPECT_EQ(static_cast<const LiteralExpr&>(*product).value(),
            Value::Int64(-2));
  auto neg = MakeUnary(UnaryOp::kNegate, Lit(Value::Int64(kMin)));
  ASSERT_TRUE(neg.ok());
  ExprPtr negated = FoldConstants(std::move(*neg));
  EXPECT_EQ(static_cast<const LiteralExpr&>(*negated).value(),
            Value::Int64(kMin));
}

TEST_F(FoldTest, FoldsUnary) {
  auto neg = MakeUnary(UnaryOp::kNegate, Lit(Value::Int64(5)));
  ASSERT_TRUE(neg.ok());
  ExprPtr e = FoldConstants(std::move(*neg));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(static_cast<const LiteralExpr&>(*e).value(), Value::Int64(-5));
}

}  // namespace
}  // namespace bufferdb

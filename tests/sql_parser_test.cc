#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string_view>

#include "common/date.h"
#include "sql/parser.h"

namespace bufferdb::sql {
namespace {

SelectStatement MustParse(const std::string& sql) {
  auto r = ParseSelect(sql);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? std::move(*r) : SelectStatement{};
}

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT x, 42, 3.5, 'str' <= <> !=");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "SELECT");  // As written.
  EXPECT_EQ((*tokens)[2].type, TokenType::kSymbol);
  EXPECT_EQ((*tokens)[3].int_value, 42);
  EXPECT_DOUBLE_EQ((*tokens)[5].float_value, 3.5);
  EXPECT_EQ((*tokens)[7].text, "str");
  EXPECT_EQ((*tokens)[8].text, "<=");
  EXPECT_EQ((*tokens)[9].text, "<>");
  EXPECT_EQ((*tokens)[10].text, "<>");  // != normalized.
  EXPECT_EQ(tokens->back().type, TokenType::kEnd);
}

TEST(LexerTest, PinsKindsTextsValuesAndOffsets) {
  // Every symbol, both spellings of <>, mixed-case keywords and
  // identifiers, an integer, a float, a mixed-case string literal and a
  // trailing ';'.
  constexpr std::string_view kSql =
      "sElEcT T.Ab,(x+42)*3.5-y/2 FROM tAb WHERE a=b<c>d<=e>=f<>g!='MiXeD';";
  constexpr TokenType kId = TokenType::kIdentifier;
  constexpr TokenType kSym = TokenType::kSymbol;
  const struct {
    TokenType type;
    std::string_view text;
    size_t offset;
  } kExpected[] = {
      {kId, "sElEcT", 0},  {kId, "T", 7},       {kSym, ".", 8},
      {kId, "Ab", 9},      {kSym, ",", 11},     {kSym, "(", 12},
      {kId, "x", 13},      {kSym, "+", 14},     {TokenType::kInteger, "42", 15},
      {kSym, ")", 17},     {kSym, "*", 18},     {TokenType::kFloat, "3.5", 19},
      {kSym, "-", 22},     {kId, "y", 23},      {kSym, "/", 24},
      {TokenType::kInteger, "2", 25},           {kId, "FROM", 27},
      {kId, "tAb", 32},    {kId, "WHERE", 36},  {kId, "a", 42},
      {kSym, "=", 43},     {kId, "b", 44},      {kSym, "<", 45},
      {kId, "c", 46},      {kSym, ">", 47},     {kId, "d", 48},
      {kSym, "<=", 49},    {kId, "e", 51},      {kSym, ">=", 52},
      {kId, "f", 54},      {kSym, "<>", 55},    {kId, "g", 57},
      {kSym, "<>", 58},    {TokenType::kString, "MiXeD", 60},
      {kSym, ";", 67},     {TokenType::kEnd, "", 68},
  };
  auto tokens = Tokenize(kSql);
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  ASSERT_EQ(tokens->size(), std::size(kExpected));
  for (size_t i = 0; i < tokens->size(); ++i) {
    const Token& token = (*tokens)[i];
    EXPECT_EQ(token.type, kExpected[i].type) << i;
    EXPECT_EQ(token.text, kExpected[i].text) << i;
    EXPECT_EQ(token.offset, kExpected[i].offset) << i;
    // Each text is a view of the statement, except "<>" for "!=".
    if (i != 32 && !token.text.empty()) {
      EXPECT_EQ(token.text.data(), kSql.data() + token.offset +
                                       (token.type == TokenType::kString))
          << i;
    }
  }
  EXPECT_EQ((*tokens)[8].int_value, 42);
  EXPECT_EQ((*tokens)[15].int_value, 2);
  EXPECT_DOUBLE_EQ((*tokens)[11].float_value, 3.5);
}

TEST(LexerTest, NumbersKeepTheirValues) {
  auto tokens = Tokenize("007 9223372036854775807 99999999999999999999 1. "
                         "1.2.3 0.1");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  ASSERT_EQ(tokens->size(), 7u);
  EXPECT_EQ((*tokens)[0].int_value, 7);
  EXPECT_EQ((*tokens)[1].int_value, INT64_MAX);
  EXPECT_EQ((*tokens)[2].int_value, INT64_MAX);  // Saturates.
  EXPECT_EQ((*tokens)[3].type, TokenType::kFloat);
  EXPECT_EQ((*tokens)[3].float_value, 1.0);
  EXPECT_EQ((*tokens)[4].text, "1.2.3");
  EXPECT_EQ((*tokens)[4].float_value, 1.2);  // The longest number prefix.
  EXPECT_EQ((*tokens)[5].float_value, 0.1);
}

TEST(LexerTest, RejectsBadInput) {
  auto unterminated = Tokenize("SELECT 'unterminated");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_EQ(unterminated.status().message(), "unterminated string literal");
  auto bad = Tokenize("SELECT @");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "unexpected character '@' at offset 7");
}

TEST(ParserTest, Query1FromThePaper) {
  SelectStatement stmt = MustParse(R"(
      SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax))
               AS sum_charge,
             AVG(l_quantity) AS avg_qty,
             COUNT(*) AS count_order
      FROM lineitem
      WHERE l_shipdate <= DATE '1998-09-02';)");
  ASSERT_EQ(stmt.items.size(), 3u);
  EXPECT_TRUE(stmt.items[0].is_aggregate);
  EXPECT_EQ(stmt.items[0].agg_func, AggFunc::kSum);
  EXPECT_EQ(stmt.items[0].alias, "sum_charge");
  EXPECT_EQ(stmt.items[2].agg_func, AggFunc::kCountStar);
  EXPECT_EQ(stmt.items[2].expr, nullptr);
  ASSERT_EQ(stmt.from_tables.size(), 1u);
  EXPECT_EQ(stmt.from_tables[0], "lineitem");
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->binary_op, BinaryOp::kLe);
  EXPECT_EQ(stmt.where->right->literal.type(), DataType::kDate);
  EXPECT_EQ(stmt.where->right->literal.date_value(),
            bufferdb::MakeDate(1998, 9, 2));
}

TEST(ParserTest, Query3FromThePaper) {
  SelectStatement stmt = MustParse(R"(
      SELECT SUM(o_totalprice), COUNT(*), AVG(l_discount)
      FROM lineitem, orders
      WHERE l_orderkey = o_orderkey
        AND l_shipdate <= DATE '1998-09-02')");
  EXPECT_EQ(stmt.from_tables.size(), 2u);
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, GroupByOrderByLimit) {
  SelectStatement stmt = MustParse(
      "SELECT l_returnflag, COUNT(*) FROM lineitem "
      "GROUP BY l_returnflag ORDER BY l_returnflag DESC LIMIT 10");
  ASSERT_EQ(stmt.group_by.size(), 1u);
  EXPECT_EQ(stmt.group_by[0], "l_returnflag");
  ASSERT_EQ(stmt.order_by.size(), 1u);
  EXPECT_TRUE(stmt.order_by[0].descending);
  EXPECT_EQ(stmt.limit, 10);
}

TEST(ParserTest, OperatorPrecedence) {
  SelectStatement stmt =
      MustParse("SELECT a FROM t WHERE a + b * 2 < 10 AND c = 1 OR d = 2");
  // OR at the root.
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->binary_op, BinaryOp::kOr);
  EXPECT_EQ(stmt.where->left->binary_op, BinaryOp::kAnd);
  const ParseExpr& cmp = *stmt.where->left->left;
  EXPECT_EQ(cmp.binary_op, BinaryOp::kLt);
  // a + (b * 2).
  EXPECT_EQ(cmp.left->binary_op, BinaryOp::kAdd);
  EXPECT_EQ(cmp.left->right->binary_op, BinaryOp::kMul);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  SelectStatement stmt = MustParse("SELECT (a + b) * 2 FROM t");
  EXPECT_EQ(stmt.items[0].expr->binary_op, BinaryOp::kMul);
  EXPECT_EQ(stmt.items[0].expr->left->binary_op, BinaryOp::kAdd);
}

TEST(ParserTest, UnaryConstructs) {
  SelectStatement stmt =
      MustParse("SELECT a FROM t WHERE NOT a = 1 AND b IS NOT NULL AND -c < 0");
  EXPECT_EQ(stmt.where->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, QualifiedColumnNames) {
  SelectStatement stmt =
      MustParse("SELECT lineitem.l_orderkey FROM lineitem");
  EXPECT_EQ(stmt.items[0].expr->column_name, "lineitem.l_orderkey");
}

TEST(ParserTest, KeywordsMatchInAnyCaseAndNamesAreStoredLowercase) {
  SelectStatement stmt = MustParse(
      "sElEcT DiStInCt T.Col_A, CoUnT(*) As Total FrOm Tab "
      "WhErE Col_B NoT LiKe 'AbC%' AnD d = DaTe '1998-09-02' "
      "GrOuP bY T.Col_A oRdEr By Total DeSc LiMiT 3");
  EXPECT_TRUE(stmt.distinct);
  ASSERT_EQ(stmt.items.size(), 2u);
  EXPECT_EQ(stmt.items[0].expr->column_name, "t.col_a");
  EXPECT_EQ(stmt.items[1].agg_func, AggFunc::kCountStar);
  EXPECT_EQ(stmt.items[1].alias, "total");
  ASSERT_EQ(stmt.from_tables.size(), 1u);
  EXPECT_EQ(stmt.from_tables[0], "tab");
  ASSERT_NE(stmt.where, nullptr);
  const ParseExpr& like = *stmt.where->left->left;
  EXPECT_EQ(like.binary_op, BinaryOp::kLike);
  EXPECT_EQ(like.left->column_name, "col_b");
  EXPECT_EQ(like.right->literal, Value::String("AbC%"));  // Case kept.
  EXPECT_EQ(stmt.where->right->right->literal.date_value(),
            bufferdb::MakeDate(1998, 9, 2));
  ASSERT_EQ(stmt.group_by.size(), 1u);
  EXPECT_EQ(stmt.group_by[0], "t.col_a");
  ASSERT_EQ(stmt.order_by.size(), 1u);
  EXPECT_EQ(stmt.order_by[0].column, "total");
  EXPECT_TRUE(stmt.order_by[0].descending);
  EXPECT_EQ(stmt.limit, 3);
}

TEST(ParserTest, CountColumnVsCountStar) {
  SelectStatement stmt = MustParse("SELECT COUNT(a), COUNT(*) FROM t");
  EXPECT_EQ(stmt.items[0].agg_func, AggFunc::kCount);
  ASSERT_NE(stmt.items[0].expr, nullptr);
  EXPECT_EQ(stmt.items[1].agg_func, AggFunc::kCountStar);
}

TEST(ParserTest, ErrorMessagesNameTheOffset) {
  auto unexpected = ParseSelect("SELECT a FROM t WHERE a = )");
  ASSERT_FALSE(unexpected.ok());
  EXPECT_EQ(unexpected.status().message(),
            "unexpected token ')' (at offset 26)");
  auto trailing = ParseSelect("SELECT a FROM t extra_tokens");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().message(), "trailing input (at offset 16)");
}

TEST(ParserTest, ErrorsAreDiagnosed) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT").ok());
  EXPECT_FALSE(ParseSelect("SELECT a").ok());             // No FROM.
  EXPECT_FALSE(ParseSelect("SELECT a FROM").ok());        // No table.
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT SUM(a FROM t").ok());  // Missing ')'.
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP x").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra_tokens").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE d = DATE '1998-99-99'").ok());
}

TEST(ParserTest, ToStringRendersTree) {
  SelectStatement stmt = MustParse("SELECT a FROM t WHERE a * 2 <= 10");
  EXPECT_EQ(stmt.where->ToString(), "((a * 2) <= 10)");
}

}  // namespace
}  // namespace bufferdb::sql

namespace bufferdb::sql {
namespace {

TEST(ParserExtensionsTest, BetweenDesugarsToRange) {
  auto r = ParseSelect("SELECT a FROM t WHERE a BETWEEN 2 AND 5");
  ASSERT_TRUE(r.ok()) << r.status();
  const ParseExpr& w = *r->where;
  EXPECT_EQ(w.binary_op, BinaryOp::kAnd);
  EXPECT_EQ(w.left->binary_op, BinaryOp::kGe);
  EXPECT_EQ(w.right->binary_op, BinaryOp::kLe);
  EXPECT_EQ(w.left->left->column_name, "a");
  EXPECT_EQ(w.right->left->column_name, "a");
}

TEST(ParserExtensionsTest, InDesugarsToDisjunction) {
  auto r = ParseSelect("SELECT a FROM t WHERE m IN ('MAIL', 'SHIP', 'AIR')");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->where->binary_op, BinaryOp::kOr);
  EXPECT_EQ(r->where->right->binary_op, BinaryOp::kEq);
}

TEST(ParserExtensionsTest, NotInWrapsNot) {
  auto r = ParseSelect("SELECT a FROM t WHERE m NOT IN (1, 2)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->where->kind, ParseExpr::Kind::kUnary);
  EXPECT_EQ(r->where->unary_op, UnaryOp::kNot);
}

TEST(ParserExtensionsTest, LikeAndNotLike) {
  auto r = ParseSelect("SELECT a FROM t WHERE p LIKE 'PROMO%'");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->where->binary_op, BinaryOp::kLike);

  auto n = ParseSelect("SELECT a FROM t WHERE p NOT LIKE 'PROMO%'");
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(n->where->kind, ParseExpr::Kind::kUnary);
  EXPECT_EQ(n->where->left->binary_op, BinaryOp::kLike);
}

TEST(ParserExtensionsTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE a BETWEEN 1").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE a IN 1, 2").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE a NOT 5").ok());
}

}  // namespace
}  // namespace bufferdb::sql

#include "sql/parser.h"

#include <algorithm>
#include <cctype>

#include "common/date.h"

namespace bufferdb::sql {

namespace {

ParseExprPtr CloneParseExpr(const ParseExpr& e) {
  auto out = std::make_unique<ParseExpr>();
  out->kind = e.kind;
  out->column_name = e.column_name;
  out->literal = e.literal;
  out->binary_op = e.binary_op;
  out->unary_op = e.unary_op;
  if (e.left != nullptr) out->left = CloneParseExpr(*e.left);
  if (e.right != nullptr) out->right = CloneParseExpr(*e.right);
  return out;
}

// True when `token` is the identifier `kw` (lowercase) in any case.
bool IsKeyword(const Token& token, std::string_view kw) {
  return token.type == TokenType::kIdentifier &&
         token.text.size() == kw.size() &&
         std::equal(kw.begin(), kw.end(), token.text.begin(),
                    [](char k, char c) {
                      return std::tolower(static_cast<unsigned char>(c)) == k;
                    });
}

// Appends `token`'s text to a name; identifiers are case-insensitive and
// stored lowercase.
void AppendName(const Token& token, std::string* out) {
  if (token.type != TokenType::kIdentifier) {
    out->append(token.text);
    return;
  }
  for (char c : token.text) {
    out->push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
}

ParseExprPtr MakeParseBinary(BinaryOp op, ParseExprPtr l, ParseExprPtr r) {
  auto node = std::make_unique<ParseExpr>();
  node->kind = ParseExpr::Kind::kBinary;
  node->binary_op = op;
  node->left = std::move(l);
  node->right = std::move(r);
  return node;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> Parse() {
    SelectStatement stmt;
    if (!MatchKeyword("select")) return Error("expected SELECT");
    stmt.distinct = MatchKeyword("distinct");
    BUFFERDB_RETURN_IF_ERROR(ParseSelectList(&stmt));
    if (!MatchKeyword("from")) return Error("expected FROM");
    BUFFERDB_RETURN_IF_ERROR(ParseFromList(&stmt));
    if (MatchKeyword("where")) {
      auto expr = ParseExprOr();
      if (!expr.ok()) return expr.status();
      stmt.where = std::move(*expr);
    }
    if (MatchKeyword("group")) {
      if (!MatchKeyword("by")) return Error("expected BY after GROUP");
      do {
        if (Peek().type != TokenType::kIdentifier) {
          return Error("expected column in GROUP BY");
        }
        stmt.group_by.push_back(ParseQualifiedName());
      } while (MatchSymbol(","));
    }
    if (MatchKeyword("having")) {
      auto expr = ParseExprOr();
      if (!expr.ok()) return expr.status();
      stmt.having = std::move(*expr);
    }
    if (MatchKeyword("order")) {
      if (!MatchKeyword("by")) return Error("expected BY after ORDER");
      do {
        if (Peek().type != TokenType::kIdentifier) {
          return Error("expected column in ORDER BY");
        }
        ParsedOrderBy ob;
        ob.column = ParseQualifiedName();
        if (MatchKeyword("desc")) {
          ob.descending = true;
        } else {
          MatchKeyword("asc");
        }
        stmt.order_by.push_back(std::move(ob));
      } while (MatchSymbol(","));
    }
    if (MatchKeyword("limit")) {
      if (Peek().type != TokenType::kInteger) {
        return Error("expected integer after LIMIT");
      }
      stmt.limit = Peek().int_value;
      Advance();
    }
    MatchSymbol(";");
    if (Peek().type != TokenType::kEnd) return Error("trailing input");
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool MatchKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    return IsKeyword(Peek(ahead), kw);
  }
  bool MatchSymbol(std::string_view s) {
    if (PeekSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  bool PeekSymbol(std::string_view s, size_t ahead = 0) const {
    return Peek(ahead).type == TokenType::kSymbol && Peek(ahead).text == s;
  }
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " (at offset " +
                              std::to_string(Peek().offset) + ")");
  }

  // name | name.name
  std::string ParseQualifiedName() {
    std::string name;
    AppendName(Peek(), &name);
    Advance();
    if (PeekSymbol(".")) {
      Advance();
      name += ".";
      AppendName(Peek(), &name);
      Advance();
    }
    return name;
  }

  Status ParseSelectList(SelectStatement* stmt) {
    do {
      ParsedSelectItem item;
      std::optional<AggFunc> agg = PeekAggFunc();
      if (agg.has_value() && PeekSymbol("(", 1)) {
        Advance();  // Function name.
        Advance();  // '('.
        item.is_aggregate = true;
        item.agg_func = *agg;
        if (*agg == AggFunc::kCountStar || (*agg == AggFunc::kCount &&
                                            PeekSymbol("*"))) {
          if (!MatchSymbol("*")) return Error("expected * in COUNT(*)");
          item.agg_func = AggFunc::kCountStar;
        } else {
          auto expr = ParseExprAdd();
          if (!expr.ok()) return expr.status();
          item.expr = std::move(*expr);
        }
        if (!MatchSymbol(")")) return Error("expected ) after aggregate");
      } else {
        auto expr = ParseExprAdd();
        if (!expr.ok()) return expr.status();
        item.expr = std::move(*expr);
      }
      if (MatchKeyword("as")) {
        if (Peek().type != TokenType::kIdentifier) {
          return Error("expected alias after AS");
        }
        AppendName(Peek(), &item.alias);
        Advance();
      }
      stmt->items.push_back(std::move(item));
    } while (MatchSymbol(","));
    return Status::OK();
  }

  std::optional<AggFunc> PeekAggFunc() const {
    if (PeekKeyword("count")) return AggFunc::kCount;
    if (PeekKeyword("sum")) return AggFunc::kSum;
    if (PeekKeyword("avg")) return AggFunc::kAvg;
    if (PeekKeyword("min")) return AggFunc::kMin;
    if (PeekKeyword("max")) return AggFunc::kMax;
    return std::nullopt;
  }

  Status ParseFromList(SelectStatement* stmt) {
    do {
      if (Peek().type != TokenType::kIdentifier) {
        return Error("expected table name");
      }
      AppendName(Peek(), &stmt->from_tables.emplace_back());
      Advance();
    } while (MatchSymbol(","));
    return Status::OK();
  }

  // Expression grammar: or -> and -> not -> comparison -> add -> mul -> unary
  // -> primary.
  Result<ParseExprPtr> ParseExprOr() {
    auto left = ParseExprAnd();
    if (!left.ok()) return left;
    while (MatchKeyword("or")) {
      auto right = ParseExprAnd();
      if (!right.ok()) return right;
      auto node = std::make_unique<ParseExpr>();
      node->kind = ParseExpr::Kind::kBinary;
      node->binary_op = BinaryOp::kOr;
      node->left = std::move(*left);
      node->right = std::move(*right);
      *left = std::move(node);
    }
    return left;
  }

  Result<ParseExprPtr> ParseExprAnd() {
    auto left = ParseExprNot();
    if (!left.ok()) return left;
    while (MatchKeyword("and")) {
      auto right = ParseExprNot();
      if (!right.ok()) return right;
      auto node = std::make_unique<ParseExpr>();
      node->kind = ParseExpr::Kind::kBinary;
      node->binary_op = BinaryOp::kAnd;
      node->left = std::move(*left);
      node->right = std::move(*right);
      *left = std::move(node);
    }
    return left;
  }

  Result<ParseExprPtr> ParseExprNot() {
    if (MatchKeyword("not")) {
      auto operand = ParseExprNot();
      if (!operand.ok()) return operand;
      auto node = std::make_unique<ParseExpr>();
      node->kind = ParseExpr::Kind::kUnary;
      node->unary_op = UnaryOp::kNot;
      node->left = std::move(*operand);
      return node;
    }
    return ParseComparison();
  }

  Result<ParseExprPtr> ParseComparison() {
    auto left = ParseExprAdd();
    if (!left.ok()) return left;
    static const struct {
      const char* sym;
      BinaryOp op;
    } kOps[] = {{"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe},
                {"<>", BinaryOp::kNe}, {"=", BinaryOp::kEq},
                {"<", BinaryOp::kLt},  {">", BinaryOp::kGt}};
    for (const auto& candidate : kOps) {
      if (PeekSymbol(candidate.sym)) {
        Advance();
        auto right = ParseExprAdd();
        if (!right.ok()) return right;
        auto node = std::make_unique<ParseExpr>();
        node->kind = ParseExpr::Kind::kBinary;
        node->binary_op = candidate.op;
        node->left = std::move(*left);
        node->right = std::move(*right);
        return Result<ParseExprPtr>(std::move(node));
      }
    }
    // x BETWEEN a AND b  ->  x >= a AND x <= b.
    if (PeekKeyword("between")) {
      Advance();
      auto lo = ParseExprAdd();
      if (!lo.ok()) return lo;
      if (!MatchKeyword("and")) return Error("expected AND in BETWEEN");
      auto hi = ParseExprAdd();
      if (!hi.ok()) return hi;
      auto ge = MakeParseBinary(BinaryOp::kGe, CloneParseExpr(**left),
                                std::move(*lo));
      auto le = MakeParseBinary(BinaryOp::kLe, std::move(*left),
                                std::move(*hi));
      return Result<ParseExprPtr>(
          MakeParseBinary(BinaryOp::kAnd, std::move(ge), std::move(le)));
    }
    // x [NOT] LIKE 'pattern'.
    bool negated_like = false;
    if (PeekKeyword("not") && PeekKeyword("like", 1)) {
      Advance();
      negated_like = true;
    }
    if (PeekKeyword("like")) {
      Advance();
      auto pattern = ParseExprAdd();
      if (!pattern.ok()) return pattern;
      auto like = MakeParseBinary(BinaryOp::kLike, std::move(*left),
                                  std::move(*pattern));
      if (!negated_like) return Result<ParseExprPtr>(std::move(like));
      auto node = std::make_unique<ParseExpr>();
      node->kind = ParseExpr::Kind::kUnary;
      node->unary_op = UnaryOp::kNot;
      node->left = std::move(like);
      return Result<ParseExprPtr>(std::move(node));
    }
    if (negated_like) return Error("expected LIKE after NOT");
    // x [NOT] IN (v1, v2, ...)  ->  [NOT] (x = v1 OR x = v2 OR ...).
    bool negated_in = false;
    if (PeekKeyword("not") && PeekKeyword("in", 1)) {
      Advance();
      negated_in = true;
    }
    if (PeekKeyword("in")) {
      Advance();
      if (!MatchSymbol("(")) return Error("expected ( after IN");
      ParseExprPtr disjunction;
      do {
        auto v = ParseExprAdd();
        if (!v.ok()) return v;
        auto eq = MakeParseBinary(BinaryOp::kEq, CloneParseExpr(**left),
                                  std::move(*v));
        disjunction = disjunction == nullptr
                          ? std::move(eq)
                          : MakeParseBinary(BinaryOp::kOr,
                                            std::move(disjunction),
                                            std::move(eq));
      } while (MatchSymbol(","));
      if (!MatchSymbol(")")) return Error("expected ) after IN list");
      if (!negated_in) return Result<ParseExprPtr>(std::move(disjunction));
      auto node = std::make_unique<ParseExpr>();
      node->kind = ParseExpr::Kind::kUnary;
      node->unary_op = UnaryOp::kNot;
      node->left = std::move(disjunction);
      return Result<ParseExprPtr>(std::move(node));
    }
    if (negated_in) return Error("expected IN after NOT");
    // IS NULL / IS NOT NULL.
    if (PeekKeyword("is")) {
      Advance();
      bool negated = MatchKeyword("not");
      if (!MatchKeyword("null")) return Error("expected NULL after IS");
      auto node = std::make_unique<ParseExpr>();
      node->kind = ParseExpr::Kind::kUnary;
      node->unary_op = negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull;
      node->left = std::move(*left);
      return Result<ParseExprPtr>(std::move(node));
    }
    return left;
  }

  Result<ParseExprPtr> ParseExprAdd() {
    auto left = ParseExprMul();
    if (!left.ok()) return left;
    while (PeekSymbol("+") || PeekSymbol("-")) {
      BinaryOp op = PeekSymbol("+") ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      auto right = ParseExprMul();
      if (!right.ok()) return right;
      auto node = std::make_unique<ParseExpr>();
      node->kind = ParseExpr::Kind::kBinary;
      node->binary_op = op;
      node->left = std::move(*left);
      node->right = std::move(*right);
      *left = std::move(node);
    }
    return left;
  }

  Result<ParseExprPtr> ParseExprMul() {
    auto left = ParseUnary();
    if (!left.ok()) return left;
    while (PeekSymbol("*") || PeekSymbol("/")) {
      BinaryOp op = PeekSymbol("*") ? BinaryOp::kMul : BinaryOp::kDiv;
      Advance();
      auto right = ParseUnary();
      if (!right.ok()) return right;
      auto node = std::make_unique<ParseExpr>();
      node->kind = ParseExpr::Kind::kBinary;
      node->binary_op = op;
      node->left = std::move(*left);
      node->right = std::move(*right);
      *left = std::move(node);
    }
    return left;
  }

  Result<ParseExprPtr> ParseUnary() {
    if (PeekSymbol("-")) {
      Advance();
      auto operand = ParseUnary();
      if (!operand.ok()) return operand;
      auto node = std::make_unique<ParseExpr>();
      node->kind = ParseExpr::Kind::kUnary;
      node->unary_op = UnaryOp::kNegate;
      node->left = std::move(*operand);
      return Result<ParseExprPtr>(std::move(node));
    }
    return ParsePrimary();
  }

  Result<ParseExprPtr> ParsePrimary() {
    auto node = std::make_unique<ParseExpr>();
    const Token& token = Peek();
    switch (token.type) {
      case TokenType::kInteger:
        node->kind = ParseExpr::Kind::kLiteral;
        node->literal = Value::Int64(token.int_value);
        Advance();
        return Result<ParseExprPtr>(std::move(node));
      case TokenType::kFloat:
        node->kind = ParseExpr::Kind::kLiteral;
        node->literal = Value::Double(token.float_value);
        Advance();
        return Result<ParseExprPtr>(std::move(node));
      case TokenType::kString:
        node->kind = ParseExpr::Kind::kLiteral;
        node->literal = Value::String(std::string(token.text));
        Advance();
        return Result<ParseExprPtr>(std::move(node));
      case TokenType::kIdentifier: {
        if (IsKeyword(token, "date") && Peek(1).type == TokenType::kString) {
          Advance();
          auto days = ParseDate(std::string(Peek().text));
          if (!days.ok()) return days.status();
          node->kind = ParseExpr::Kind::kLiteral;
          node->literal = Value::Date(*days);
          Advance();
          return Result<ParseExprPtr>(std::move(node));
        }
        node->kind = ParseExpr::Kind::kColumn;
        node->column_name = ParseQualifiedName();
        return Result<ParseExprPtr>(std::move(node));
      }
      case TokenType::kSymbol:
        if (token.text == "(") {
          Advance();
          auto inner = ParseExprOr();
          if (!inner.ok()) return inner;
          if (!MatchSymbol(")")) return Error("expected )");
          return inner;
        }
        break;
      case TokenType::kEnd:
        break;
    }
    return Error("unexpected token '" + std::string(token.text) + "'");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

std::string ParseExpr::ToString() const {
  // Append-form throughout (not `"(" + s + ...`) to dodge gcc 12's -O3
  // -Wrestrict false positive (PR105651).
  std::string out;
  switch (kind) {
    case Kind::kColumn:
      return column_name;
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kBinary:
      out += "(";
      out += left->ToString();
      out += " ";
      out += BinaryOpName(binary_op);
      out += " ";
      out += right->ToString();
      out += ")";
      return out;
    case Kind::kUnary:
      out += "(";
      out += unary_op == UnaryOp::kNot ? "NOT " : "-";
      out += left->ToString();
      out += ")";
      return out;
  }
  return "?";
}

Result<SelectStatement> ParseSelect(const std::string& sql) {
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.Parse();
}

}  // namespace bufferdb::sql

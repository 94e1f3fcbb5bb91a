#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <string>

namespace bufferdb::sql {

Result<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<Token> tokens;
  tokens.reserve(sql.size() / 2 + 2);
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      token.type = TokenType::kIdentifier;
      token.text = sql.substr(start, i - start);
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '.')) {
        if (sql[i] == '.') is_float = true;
        ++i;
      }
      token.text = sql.substr(start, i - start);
      if (is_float) {
        token.type = TokenType::kFloat;
        token.float_value =
            std::strtod(std::string(token.text).c_str(), nullptr);
      } else {
        token.type = TokenType::kInteger;
        // The digits carry no sign, so the only failure is overflow, which
        // saturates as strtoll does.
        const char* first = token.text.data();
        const char* last = first + token.text.size();
        if (std::from_chars(first, last, token.int_value).ec != std::errc()) {
          token.int_value = std::numeric_limits<int64_t>::max();
        }
      }
    } else if (c == '\'') {
      ++i;
      size_t start = i;
      while (i < n && sql[i] != '\'') ++i;
      if (i >= n) {
        return Status::ParseError("unterminated string literal");
      }
      token.type = TokenType::kString;
      token.text = sql.substr(start, i - start);
      ++i;  // Closing quote.
    } else {
      // Two-character operators first.
      std::string_view two = sql.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
        token.type = TokenType::kSymbol;
        token.text = two == "!=" ? std::string_view("<>") : two;
        tokens.push_back(token);
        i += 2;
        continue;
      }
      constexpr std::string_view kSingles = "(),*+-/=<>.;";
      if (kSingles.find(c) == std::string_view::npos) {
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(i));
      }
      token.type = TokenType::kSymbol;
      token.text = sql.substr(i, 1);
      ++i;
    }
    tokens.push_back(token);
  }
  Token end;
  end.type = TokenType::kEnd;
  end.offset = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace bufferdb::sql

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace bufferdb::sql {

enum class TokenType : uint8_t {
  kIdentifier,  // May be a keyword; parser matches case-insensitively.
  kInteger,
  kFloat,
  kString,     // 'quoted'
  kSymbol,     // One of ( ) , * + - / = < > <= >= <> . ;
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  // The token's bytes in the statement, case as written; a string literal's
  // without its quotes, and "<>" for "!=".
  std::string_view text;
  int64_t int_value = 0;
  double float_value = 0;
  size_t offset = 0;  // For error messages.
};

/// Tokenizes a SQL string. Keywords are just identifiers, matched
/// case-insensitively by the parser. Each token's `text` points into `sql`,
/// so the caller keeps `sql` alive while it reads the tokens.
Result<std::vector<Token>> Tokenize(std::string_view sql);

}  // namespace bufferdb::sql

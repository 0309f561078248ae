// SQL tokenizer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rocks::sqldb {

enum class TokenKind {
  kKeywordOrIdent,  // unquoted word; keyword-ness decided by the parser
  kInt,
  kReal,
  kString,  // quoted literal, quotes stripped, escapes resolved
  kSymbol,  // punctuation / operators: ( ) , . = != <> < <= > >= + - * / % ?
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;        // identifier/keyword (original case), symbol, or string body
  std::int64_t int_value = 0;
  double real_value = 0.0;
  std::size_t offset = 0;  // byte offset, for error messages
};

/// Tokenizes a SQL statement; throws rocks::ParseError on bad input
/// (unterminated string, stray character).
[[nodiscard]] std::vector<Token> lex(std::string_view sql);

}  // namespace rocks::sqldb

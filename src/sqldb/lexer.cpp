#include "sqldb/lexer.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::sqldb {

std::vector<Token> lex(std::string_view sql) {
  std::vector<Token> out;
  std::size_t i = 0;
  const auto fail = [&](const std::string& what) {
    throw ParseError(strings::cat("SQL lex error at offset ", i, ": ", what));
  };

  while (i < sql.size()) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.offset = i;

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < sql.size() &&
             (std::isalnum(static_cast<unsigned char>(sql[i])) || sql[i] == '_'))
        ++i;
      token.kind = TokenKind::kKeywordOrIdent;
      token.text = std::string(sql.substr(start, i - start));
      out.push_back(std::move(token));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i;
      bool is_real = false;
      while (i < sql.size() && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < sql.size() && sql[i] == '.' && i + 1 < sql.size() &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        is_real = true;
        ++i;
        while (i < sql.size() && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      const std::string text(sql.substr(start, i - start));
      // A literal past INT64_MAX reads as REAL rather than saturating.
      if (!is_real) {
        const auto [end, ec] =
            std::from_chars(text.data(), text.data() + text.size(), token.int_value);
        is_real = ec == std::errc::result_out_of_range;
      }
      if (is_real) {
        token.kind = TokenKind::kReal;
        token.real_value = std::strtod(text.c_str(), nullptr);
      } else {
        token.kind = TokenKind::kInt;
      }
      token.text = text;
      out.push_back(std::move(token));
      continue;
    }

    if (c == '\'' || c == '"') {
      const char quote = c;
      ++i;
      std::string body;
      bool closed = false;
      while (i < sql.size()) {
        if (sql[i] == '\\' && i + 1 < sql.size()) {
          body += sql[i + 1];
          i += 2;
          continue;
        }
        if (sql[i] == quote) {
          if (i + 1 < sql.size() && sql[i + 1] == quote) {  // doubled quote escape
            body += quote;
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        body += sql[i++];
      }
      if (!closed) fail("unterminated string literal");
      token.kind = TokenKind::kString;
      token.text = std::move(body);
      out.push_back(std::move(token));
      continue;
    }

    // Multi-character operators first.
    const std::string_view rest = sql.substr(i);
    for (std::string_view op : {"<=", ">=", "!=", "<>"}) {
      if (strings::starts_with(rest, op)) {
        token.kind = TokenKind::kSymbol;
        token.text = std::string(op);
        out.push_back(std::move(token));
        i += op.size();
        goto next;
      }
    }
    if (std::string_view("(),.=<>+-*/%;?").find(c) != std::string_view::npos) {
      token.kind = TokenKind::kSymbol;
      token.text = std::string(1, c);
      out.push_back(std::move(token));
      ++i;
      continue;
    }
    fail(strings::cat("unexpected character '", std::string(1, c), "'"));
  next:;
  }

  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = sql.size();
  out.push_back(std::move(end));
  return out;
}

}  // namespace rocks::sqldb

#include "sqldb/parser.hpp"

#include "sqldb/lexer.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::sqldb {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view sql) : tokens_(lex(sql)) {}

  ParsedStatement parse() {
    ParsedStatement out{parse_statement_body()};
    accept_symbol(";");
    expect_end();
    out.params = params_;
    out.column_refs = column_refs_;
    return out;
  }

 private:
  // --- token helpers -------------------------------------------------------
  [[nodiscard]] const Token& peek() const { return tokens_[pos_]; }

  const Token& advance() { return tokens_[pos_++]; }

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(strings::cat("SQL parse error near offset ", peek().offset, ": ", what));
  }

  [[nodiscard]] bool peek_keyword(std::string_view kw) const {
    return peek().kind == TokenKind::kKeywordOrIdent && strings::iequals(peek().text, kw);
  }

  bool accept_keyword(std::string_view kw) {
    if (!peek_keyword(kw)) return false;
    ++pos_;
    return true;
  }

  void expect_keyword(std::string_view kw) {
    if (!accept_keyword(kw)) fail(strings::cat("expected ", std::string(kw)));
  }

  [[nodiscard]] bool peek_symbol(std::string_view sym) const {
    return peek().kind == TokenKind::kSymbol && peek().text == sym;
  }

  bool accept_symbol(std::string_view sym) {
    if (!peek_symbol(sym)) return false;
    ++pos_;
    return true;
  }

  void expect_symbol(std::string_view sym) {
    if (!accept_symbol(sym)) fail(strings::cat("expected '", std::string(sym), "'"));
  }

  std::string expect_identifier(std::string_view what) {
    if (peek().kind != TokenKind::kKeywordOrIdent)
      fail(strings::cat("expected ", std::string(what)));
    return advance().text;
  }

  void expect_end() {
    if (peek().kind != TokenKind::kEnd) fail("unexpected trailing tokens");
  }

  [[nodiscard]] static bool is_reserved(std::string_view word) {
    static const char* kReserved[] = {
        "select", "from",  "where", "order", "by",     "limit",  "insert", "into",
        "values", "update", "set",  "delete", "create", "table",  "drop",   "join",
        "inner",  "on",    "and",   "or",    "not",    "like",   "in",     "is",
        "null",   "asc",   "desc",  "as",    "if",     "exists", "primary", "key",
        "auto_increment",
    };
    for (const char* kw : kReserved)
      if (strings::iequals(word, kw)) return true;
    return false;
  }

  // --- statements ----------------------------------------------------------
  Statement parse_statement_body() {
    if (accept_keyword("select")) return parse_select();
    if (accept_keyword("insert")) return parse_insert();
    if (accept_keyword("update")) return parse_update();
    if (accept_keyword("delete")) return parse_delete();
    if (accept_keyword("create")) return parse_create();
    if (accept_keyword("drop")) return parse_drop();
    fail("expected SELECT, INSERT, UPDATE, DELETE, CREATE, or DROP");
  }

  SelectStmt parse_select() {
    SelectStmt stmt;
    // Select list.
    do {
      SelectItem item;
      if (accept_symbol("*")) {
        item.star = true;
      } else if (peek().kind == TokenKind::kKeywordOrIdent && !is_reserved(peek().text) &&
                 tokens_[pos_ + 1].kind == TokenKind::kSymbol && tokens_[pos_ + 1].text == "." &&
                 tokens_[pos_ + 2].kind == TokenKind::kSymbol && tokens_[pos_ + 2].text == "*") {
        item.star = true;
        item.star_table = advance().text;
        pos_ += 2;  // ". *"
      } else {
        item.expr = parse_expr();
        if (accept_keyword("as")) item.alias = expect_identifier("alias");
      }
      stmt.items.push_back(std::move(item));
    } while (accept_symbol(","));

    expect_keyword("from");
    do {
      stmt.from.push_back(parse_table_ref());
    } while (accept_symbol(","));

    // JOIN ... ON desugars into the FROM list + WHERE conjuncts.
    ExprPtr join_filter;
    while (peek_keyword("join") || peek_keyword("inner")) {
      accept_keyword("inner");
      expect_keyword("join");
      stmt.from.push_back(parse_table_ref());
      expect_keyword("on");
      ExprPtr condition = parse_expr();
      join_filter = join_filter
                        ? Expr::binary(BinaryOp::kAnd, std::move(join_filter),
                                       std::move(condition))
                        : std::move(condition);
    }

    if (accept_keyword("where")) stmt.where = parse_expr();
    if (join_filter) {
      stmt.where = stmt.where ? Expr::binary(BinaryOp::kAnd, std::move(join_filter),
                                             std::move(stmt.where))
                              : std::move(join_filter);
    }

    if (accept_keyword("order")) {
      expect_keyword("by");
      do {
        OrderKey key;
        key.expr = parse_expr();
        if (accept_keyword("desc"))
          key.descending = true;
        else
          accept_keyword("asc");
        stmt.order_by.push_back(std::move(key));
      } while (accept_symbol(","));
    }

    if (accept_keyword("limit")) {
      if (peek().kind != TokenKind::kInt) fail("expected integer after LIMIT");
      stmt.limit = static_cast<std::size_t>(advance().int_value);
    }
    return stmt;
  }

  TableRef parse_table_ref() {
    TableRef ref;
    ref.table = expect_identifier("table name");
    if (peek().kind == TokenKind::kKeywordOrIdent && !is_reserved(peek().text))
      ref.alias = advance().text;
    if (ref.alias.empty()) ref.alias = ref.table;
    return ref;
  }

  InsertStmt parse_insert() {
    InsertStmt stmt;
    expect_keyword("into");
    stmt.table = expect_identifier("table name");
    if (accept_symbol("(")) {
      do {
        stmt.columns.push_back(expect_identifier("column name"));
      } while (accept_symbol(","));
      expect_symbol(")");
    }
    expect_keyword("values");
    do {
      expect_symbol("(");
      std::vector<ExprPtr> row;
      do {
        row.push_back(parse_expr());
      } while (accept_symbol(","));
      expect_symbol(")");
      stmt.rows.push_back(std::move(row));
    } while (accept_symbol(","));
    return stmt;
  }

  UpdateStmt parse_update() {
    UpdateStmt stmt;
    stmt.table = expect_identifier("table name");
    expect_keyword("set");
    do {
      std::string column = expect_identifier("column name");
      expect_symbol("=");
      stmt.assignments.emplace_back(std::move(column), parse_expr());
    } while (accept_symbol(","));
    if (accept_keyword("where")) stmt.where = parse_expr();
    return stmt;
  }

  DeleteStmt parse_delete() {
    DeleteStmt stmt;
    expect_keyword("from");
    stmt.table = expect_identifier("table name");
    if (accept_keyword("where")) stmt.where = parse_expr();
    return stmt;
  }

  Statement parse_create() {
    if (accept_keyword("index")) return parse_create_index();
    expect_keyword("table");
    CreateTableStmt stmt;
    if (accept_keyword("if")) {
      expect_keyword("not");
      expect_keyword("exists");
      stmt.if_not_exists = true;
    }
    stmt.table = expect_identifier("table name");
    expect_symbol("(");
    do {
      ColumnDef col;
      col.name = expect_identifier("column name");
      const std::string type = strings::to_lower(expect_identifier("column type"));
      if (type == "int" || type == "integer" || type == "bigint") {
        col.type = Type::kInt;
      } else if (type == "real" || type == "double" || type == "float") {
        col.type = Type::kReal;
      } else if (type == "text" || type == "varchar" || type == "char") {
        col.type = Type::kText;
      } else {
        fail(strings::cat("unknown column type '", type, "'"));
      }
      if (accept_symbol("(")) {  // VARCHAR(64) style size, ignored
        if (peek().kind != TokenKind::kInt) fail("expected size in type");
        advance();
        expect_symbol(")");
      }
      while (true) {
        if (accept_keyword("primary")) {
          expect_keyword("key");
          col.primary_key = true;
        } else if (accept_keyword("auto_increment")) {
          col.auto_increment = true;
        } else {
          break;
        }
      }
      stmt.columns.push_back(std::move(col));
    } while (accept_symbol(","));
    expect_symbol(")");
    return stmt;
  }

  CreateIndexStmt parse_create_index() {
    CreateIndexStmt stmt;
    if (accept_keyword("if")) {
      expect_keyword("not");
      expect_keyword("exists");
      stmt.if_not_exists = true;
    }
    stmt.name = expect_identifier("index name");
    expect_keyword("on");
    stmt.table = expect_identifier("table name");
    expect_symbol("(");
    stmt.column = expect_identifier("column name");
    expect_symbol(")");
    return stmt;
  }

  DropTableStmt parse_drop() {
    expect_keyword("table");
    DropTableStmt stmt;
    if (accept_keyword("if")) {
      expect_keyword("exists");
      stmt.if_exists = true;
    }
    stmt.table = expect_identifier("table name");
    return stmt;
  }

  // --- expressions (precedence climbing) -----------------------------------
  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (accept_keyword("or")) lhs = Expr::binary(BinaryOp::kOr, std::move(lhs), parse_and());
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_not();
    while (accept_keyword("and")) lhs = Expr::binary(BinaryOp::kAnd, std::move(lhs), parse_not());
    return lhs;
  }

  ExprPtr parse_not() {
    if (accept_keyword("not")) return Expr::unary(UnaryOp::kNot, parse_not());
    return parse_comparison();
  }

  ExprPtr parse_comparison() {
    ExprPtr lhs = parse_additive();
    while (true) {
      if (accept_symbol("=")) {
        lhs = Expr::binary(BinaryOp::kEq, std::move(lhs), parse_additive());
      } else if (accept_symbol("!=") || accept_symbol("<>")) {
        lhs = Expr::binary(BinaryOp::kNe, std::move(lhs), parse_additive());
      } else if (accept_symbol("<=")) {
        lhs = Expr::binary(BinaryOp::kLe, std::move(lhs), parse_additive());
      } else if (accept_symbol(">=")) {
        lhs = Expr::binary(BinaryOp::kGe, std::move(lhs), parse_additive());
      } else if (accept_symbol("<")) {
        lhs = Expr::binary(BinaryOp::kLt, std::move(lhs), parse_additive());
      } else if (accept_symbol(">")) {
        lhs = Expr::binary(BinaryOp::kGt, std::move(lhs), parse_additive());
      } else if (peek_keyword("like")) {
        advance();
        lhs = Expr::binary(BinaryOp::kLike, std::move(lhs), parse_additive());
      } else if (peek_keyword("not") && tokens_[pos_ + 1].kind == TokenKind::kKeywordOrIdent &&
                 strings::iequals(tokens_[pos_ + 1].text, "in")) {
        pos_ += 2;
        lhs = parse_in_tail(std::move(lhs), /*negated=*/true);
      } else if (peek_keyword("not") && tokens_[pos_ + 1].kind == TokenKind::kKeywordOrIdent &&
                 strings::iequals(tokens_[pos_ + 1].text, "like")) {
        pos_ += 2;
        lhs = Expr::unary(UnaryOp::kNot,
                          Expr::binary(BinaryOp::kLike, std::move(lhs), parse_additive()));
      } else if (peek_keyword("in")) {
        advance();
        lhs = parse_in_tail(std::move(lhs), /*negated=*/false);
      } else if (peek_keyword("is")) {
        advance();
        const bool negated = accept_keyword("not");
        expect_keyword("null");
        lhs = Expr::is_null(std::move(lhs), negated);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_in_tail(ExprPtr needle, bool negated) {
    expect_symbol("(");
    std::vector<ExprPtr> list;
    do {
      list.push_back(parse_expr());
    } while (accept_symbol(","));
    expect_symbol(")");
    return Expr::in(std::move(needle), std::move(list), negated);
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (true) {
      if (accept_symbol("+")) {
        lhs = Expr::binary(BinaryOp::kAdd, std::move(lhs), parse_multiplicative());
      } else if (accept_symbol("-")) {
        lhs = Expr::binary(BinaryOp::kSub, std::move(lhs), parse_multiplicative());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    while (true) {
      if (accept_symbol("*")) {
        lhs = Expr::binary(BinaryOp::kMul, std::move(lhs), parse_unary());
      } else if (accept_symbol("/")) {
        lhs = Expr::binary(BinaryOp::kDiv, std::move(lhs), parse_unary());
      } else if (accept_symbol("%")) {
        lhs = Expr::binary(BinaryOp::kMod, std::move(lhs), parse_unary());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_unary() {
    if (accept_symbol("-")) return Expr::unary(UnaryOp::kNeg, parse_unary());
    if (accept_symbol("+")) return parse_unary();
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& token = peek();
    switch (token.kind) {
      case TokenKind::kInt: {
        advance();
        return Expr::literal(Value(token.int_value));
      }
      case TokenKind::kReal: {
        advance();
        return Expr::literal(Value(token.real_value));
      }
      case TokenKind::kString: {
        advance();
        return Expr::literal(Value(token.text));
      }
      case TokenKind::kSymbol:
        if (token.text == "(") {
          advance();
          ExprPtr inner = parse_expr();
          expect_symbol(")");
          return inner;
        }
        if (token.text == "?") {
          advance();
          return Expr::param(params_++);
        }
        fail(strings::cat("unexpected symbol '", token.text, "'"));
      case TokenKind::kKeywordOrIdent: {
        if (strings::iequals(token.text, "null")) {
          advance();
          return Expr::literal(Value::null());
        }
        if (is_reserved(token.text))
          fail(strings::cat("unexpected keyword '", token.text, "'"));
        std::string first = advance().text;
        if (accept_symbol(".")) {
          std::string second = expect_identifier("column name");
          return Expr::column(std::move(first), std::move(second), column_refs_++);
        }
        return Expr::column("", std::move(first), column_refs_++);
      }
      case TokenKind::kEnd: fail("unexpected end of statement");
    }
    fail("unexpected token");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t params_ = 0;       // `?` placeholders numbered so far
  std::size_t column_refs_ = 0;  // column references numbered so far
};

}  // namespace

ParsedStatement parse_statement(std::string_view sql) { return Parser(sql).parse(); }

}  // namespace rocks::sqldb

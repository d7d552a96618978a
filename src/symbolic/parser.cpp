#include "dmv/symbolic/parser.hpp"

#include <cctype>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace dmv::symbolic {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Expr run() {
    Expr result = parse_expr();
    skip_whitespace();
    if (pos_ != text_.size()) {
      throw ParseError("trailing characters after expression", pos_);
    }
    return result;
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool peek(char c) {
    skip_whitespace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool consume(char c) {
    if (!peek(c)) return false;
    ++pos_;
    return true;
  }

  // Consumes "**" only as a unit, never a single '*' of it.
  bool consume_pow() {
    skip_whitespace();
    if (pos_ + 1 < text_.size() && text_[pos_] == '*' &&
        text_[pos_ + 1] == '*') {
      pos_ += 2;
      return true;
    }
    return false;
  }

  bool consume_mul() {
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == '*' &&
        (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '*')) {
      ++pos_;
      return true;
    }
    return false;
  }

  Expr parse_expr() {
    Expr left = parse_term();
    for (;;) {
      if (consume('+')) {
        left = left + parse_term();
      } else if (consume('-')) {
        left = left - parse_term();
      } else {
        return left;
      }
    }
  }

  Expr parse_term() {
    Expr left = parse_unary();
    for (;;) {
      if (consume_mul()) {
        left = left * parse_unary();
      } else if (consume('/')) {
        left = left / parse_unary();
      } else if (consume('%')) {
        left = left % parse_unary();
      } else {
        return left;
      }
    }
  }

  Expr parse_unary() {
    if (!consume('-')) return parse_power();
    // 2^63 is a literal only as unary minus's direct operand, where it
    // reads as INT64_MIN: the form the printer writes for that constant.
    constexpr std::string_view kMinMagnitude = "9223372036854775808";
    skip_whitespace();
    const std::size_t start = pos_;
    if (text_.substr(pos_, kMinMagnitude.size()) == kMinMagnitude) {
      pos_ += kMinMagnitude.size();
      if ((pos_ == text_.size() ||
           !std::isdigit(static_cast<unsigned char>(text_[pos_]))) &&
          !consume_pow()) {
        return Expr(std::numeric_limits<std::int64_t>::min());
      }
      pos_ = start;
    }
    return -parse_unary();
  }

  Expr parse_power() {
    Expr base = parse_primary();
    if (consume_pow()) {
      // Right-associative, like Python.
      return pow(base, parse_unary());
    }
    return base;
  }

  Expr parse_primary() {
    skip_whitespace();
    if (pos_ >= text_.size()) {
      throw ParseError("unexpected end of expression", pos_);
    }
    const char c = text_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c))) return parse_integer();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return parse_identifier_or_call();
    }
    if (consume('(')) {
      Expr inner = parse_expr();
      if (!consume(')')) throw ParseError("expected ')'", pos_);
      return inner;
    }
    throw ParseError(std::string("unexpected character '") + c + "'", pos_);
  }

  Expr parse_integer() {
    std::int64_t value = 0;
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      const int digit = text_[pos_] - '0';
      if (value > (std::numeric_limits<std::int64_t>::max() - digit) / 10) {
        throw ParseError("integer literal exceeds int64", start);
      }
      value = value * 10 + digit;
      ++pos_;
    }
    if (pos_ == start) throw ParseError("expected integer", pos_);
    return Expr(value);
  }

  Expr parse_identifier_or_call() {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    std::string name(text_.substr(start, pos_ - start));
    if (!peek('(')) return Expr::symbol(std::move(name));

    consume('(');
    std::vector<Expr> args;
    if (!peek(')')) {
      args.push_back(parse_expr());
      while (consume(',')) args.push_back(parse_expr());
    }
    if (!consume(')')) throw ParseError("expected ')' after arguments", pos_);

    auto expect_arity = [&](std::size_t n) {
      if (args.size() != n) {
        throw ParseError("function '" + name + "' expects " +
                             std::to_string(n) + " arguments",
                         start);
      }
    };
    if (name == "min") {
      expect_arity(2);
      return min(args[0], args[1]);
    }
    if (name == "max") {
      expect_arity(2);
      return max(args[0], args[1]);
    }
    if (name == "ceil_div" || name == "ceiling") {
      expect_arity(2);
      return ceil_div(args[0], args[1]);
    }
    if (name == "pow") {
      expect_arity(2);
      return pow(args[0], args[1]);
    }
    throw ParseError("unknown function '" + name + "'", start);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Expr parse(std::string_view text) { return Parser(text).run(); }

}  // namespace dmv::symbolic

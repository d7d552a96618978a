#include "dmv/util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace dmv::json {

Value Value::null() { return Value{}; }

Value Value::of(bool value) {
  Value v;
  v.type = Type::Bool;
  v.boolean = value;
  return v;
}

Value Value::of(double value) {
  Value v;
  v.type = Type::Number;
  v.number = value;
  return v;
}

Value Value::of(std::int64_t value) {
  Value v;
  v.type = Type::Number;
  v.number = static_cast<double>(value);
  return v;
}

Value Value::of(std::string value) {
  Value v;
  v.type = Type::String;
  v.text = std::move(value);
  return v;
}

Value Value::make_array() {
  Value v;
  v.type = Type::Array;
  return v;
}

Value Value::make_object() {
  Value v;
  v.type = Type::Object;
  return v;
}

const Value& Value::at(const std::string& key) const {
  if (!has(key)) throw ParseError("missing key '" + key + "'");
  return object.at(key);
}

Value& Value::operator[](const std::string& key) {
  if (type == Type::Null) type = Type::Object;
  if (type != Type::Object) throw ParseError("expected object");
  return object[key];
}

void Value::push(Value value) {
  if (type == Type::Null) type = Type::Array;
  if (type != Type::Array) throw ParseError("expected array");
  array.push_back(std::move(value));
}

const std::string& Value::as_string() const {
  if (type != Type::String) throw ParseError("expected string");
  return text;
}

double Value::as_number() const {
  if (type != Type::Number) throw ParseError("expected number");
  return number;
}

std::int64_t Value::as_int() const {
  // Both bounds are exact doubles: -2^63 is INT64_MIN, and 2^63 is the
  // first value past INT64_MAX (which itself parses to 2^63).
  const double value = as_number();
  if (std::floor(value) != value || value < -0x1p63 || value >= 0x1p63) {
    throw ParseError("expected integer");
  }
  return static_cast<std::int64_t>(value);
}

bool Value::as_bool() const {
  if (type != Type::Bool) throw ParseError("expected boolean");
  return boolean;
}

const std::vector<Value>& Value::as_array() const {
  if (type != Type::Array) throw ParseError("expected array");
  return array;
}

namespace {

/// UTF-8 encoding of a code point below 0x110000: a lead byte that
/// counts the sequence's bytes, then six bits per continuation byte.
void append_utf8(std::string& out, std::uint32_t code_point) {
  if (code_point < 0x80) {
    out += static_cast<char>(code_point);
    return;
  }
  const int tail = code_point < 0x800 ? 1 : code_point < 0x10000 ? 2 : 3;
  constexpr std::uint32_t kLead[] = {0, 0xC0, 0xE0, 0xF0};
  out += static_cast<char>(kLead[tail] | (code_point >> (6 * tail)));
  for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
    out += static_cast<char>(0x80 | ((code_point >> shift) & 0x3F));
  }
}

// Arrays and objects nest at most this deep. The parser recurses once
// per level, so without a cap one request line of nested '[' would
// overflow the stack.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value value = parse_value();
    skip_whitespace();
    if (position_ != text_.size()) {
      fail("trailing characters after document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("JSON parse error at offset " +
                     std::to_string(position_) + ": " + message);
  }

  void skip_whitespace() {
    while (position_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[position_]))) {
      ++position_;
    }
  }

  char peek() {
    skip_whitespace();
    if (position_ >= text_.size()) fail("unexpected end of input");
    return text_[position_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++position_;
  }

  bool try_consume(char c) {
    skip_whitespace();
    if (position_ < text_.size() && text_[position_] == c) {
      ++position_;
      return true;
    }
    return false;
  }

  bool consume_keyword(std::string_view keyword) {
    skip_whitespace();
    if (text_.substr(position_, keyword.size()) == keyword) {
      position_ += keyword.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      ++depth_;
      Value value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (c == '"') return parse_string();
    if (consume_keyword("true")) return Value::of(true);
    if (consume_keyword("false")) return Value::of(false);
    if (consume_keyword("null")) return Value{};
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    Value value = Value::make_object();
    if (try_consume('}')) return value;
    for (;;) {
      Value key = parse_string();
      expect(':');
      value.object.emplace(std::move(key.text), parse_value());
      if (try_consume('}')) return value;
      expect(',');
    }
  }

  Value parse_array() {
    expect('[');
    Value value = Value::make_array();
    if (try_consume(']')) return value;
    for (;;) {
      value.array.push_back(parse_value());
      if (try_consume(']')) return value;
      expect(',');
    }
  }

  Value parse_string() {
    expect('"');
    Value value;
    value.type = Value::Type::String;
    while (position_ < text_.size() && text_[position_] != '"') {
      char c = text_[position_++];
      if (c == '\\') {
        if (position_ >= text_.size()) fail("unterminated escape");
        const char escape = text_[position_++];
        if (escape == 'u') {
          append_utf8(value.text, parse_code_point());
          continue;
        }
        // JSON's two-character escapes and what each one stands for.
        constexpr std::string_view kEscapes = "\"\\/bfnrt";
        constexpr std::string_view kEscaped = "\"\\/\b\f\n\r\t";
        const std::size_t at = kEscapes.find(escape);
        if (at == std::string_view::npos) {
          fail(std::string("unsupported escape '\\") + escape + "'");
        }
        c = kEscaped[at];
      }
      value.text += c;
    }
    if (position_ >= text_.size()) fail("unterminated string");
    ++position_;  // Closing quote.
    return value;
  }

  /// The four hex digits of a \u escape.
  std::uint32_t parse_hex4() {
    std::uint32_t unit = 0;
    const char* digits = text_.data() + position_;
    if (text_.size() - position_ < 4 ||
        std::from_chars(digits, digits + 4, unit, 16).ptr != digits + 4) {
      fail("\\u needs four hex digits");
    }
    position_ += 4;
    return unit;
  }

  /// The code point of a \u escape whose `u` was just read. A high
  /// surrogate must be followed by an escaped low one; an unpaired
  /// surrogate has no UTF-8 encoding and is refused.
  std::uint32_t parse_code_point() {
    const std::uint32_t unit = parse_hex4();
    if (unit >= 0xDC00 && unit <= 0xDFFF) fail("lone low surrogate");
    if (unit < 0xD800 || unit > 0xDBFF) return unit;
    if (text_.substr(position_, 2) != "\\u") fail("lone high surrogate");
    position_ += 2;
    const std::uint32_t low = parse_hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
    return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
  }

  Value parse_number() {
    skip_whitespace();
    const std::size_t start = position_;
    while (position_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[position_])) ||
            text_[position_] == '-' || text_[position_] == '+' ||
            text_[position_] == '.' || text_[position_] == 'e' ||
            text_[position_] == 'E')) {
      ++position_;
    }
    if (position_ == start) fail("expected a value");
    Value value;
    value.type = Value::Type::Number;
    try {
      value.number =
          std::stod(std::string(text_.substr(start, position_ - start)));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return value;
  }

  std::string_view text_;
  std::size_t position_ = 0;
  int depth_ = 0;
};

void append_number(std::string& out, double value) {
  // Integers inside the double-exact range print without a fraction so
  // counts stay greppable; everything else round-trips via %.17g.
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (std::floor(value) == value && value >= -kExact && value <= kExact) {
    out += std::to_string(static_cast<std::int64_t>(value));
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

void append(std::string& out, const Value& value) {
  switch (value.type) {
    case Value::Type::Null:
      out += "null";
      return;
    case Value::Type::Bool:
      out += value.boolean ? "true" : "false";
      return;
    case Value::Type::Number:
      append_number(out, value.number);
      return;
    case Value::Type::String:
      out += escape(value.text);
      return;
    case Value::Type::Array: {
      out += '[';
      bool first = true;
      for (const Value& element : value.array) {
        if (!std::exchange(first, false)) out += ',';
        append(out, element);
      }
      out += ']';
      return;
    }
    case Value::Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, element] : value.object) {
        if (!std::exchange(first, false)) out += ',';
        out += escape(key);
        out += ':';
        append(out, element);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

std::string dump(const Value& value) {
  std::string out;
  append(out, value);
  return out;
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace dmv::json

#pragma once

// Minimal generic JSON value, parser, and writer.
//
// One JSON implementation serves every consumer in the repo: the SDFG
// reader (ir/json_reader.cpp) parses program documents through it, and
// the serving layer (serve/) parses requests and writes responses with
// it. Only what those schemas need: objects, arrays, strings, numbers,
// booleans, null.
//
// Precision note: numbers are stored as double, so integers above 2^53
// do not round-trip. Protocol fields that carry full 64-bit values
// (checksums, content hashes) are therefore encoded as decimal or hex
// STRINGS by their producers — see docs/serving.md.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dmv::json {

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Value {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<Value> array;
  std::map<std::string, Value> object;  ///< Sorted: dump() is canonical.

  // -- constructors ---------------------------------------------------
  static Value null();
  static Value of(bool value);
  static Value of(double value);
  static Value of(std::int64_t value);
  static Value of(int value) { return of(static_cast<std::int64_t>(value)); }
  static Value of(std::string value);
  static Value of(const char* value) { return of(std::string(value)); }
  static Value make_array();
  static Value make_object();

  // -- accessors (throw ParseError on type mismatch) ------------------
  bool has(const std::string& key) const {
    return type == Type::Object && object.contains(key);
  }
  const Value& at(const std::string& key) const;
  /// Object access that creates missing keys (for building documents).
  Value& operator[](const std::string& key);
  void push(Value value);

  const std::string& as_string() const;
  double as_number() const;
  /// as_number() checked to be integral and representable in int64.
  std::int64_t as_int() const;
  bool as_bool() const;
  const std::vector<Value>& as_array() const;
};

/// Parses a complete JSON document (trailing garbage is an error, and
/// so are arrays/objects nested more than 256 levels deep).
Value parse(std::string_view text);

/// Serializes a value on one line with sorted object keys — stable,
/// diffable output. Integral doubles inside the 2^53-safe range print
/// without a fraction; other numbers print with round-trip precision.
std::string dump(const Value& value);

/// `text` quoted and escaped as a JSON string literal.
std::string escape(std::string_view text);

}  // namespace dmv::json

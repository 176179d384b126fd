// Minimal JSON value, parser, and writer for the serving protocol.
//
// The daemon speaks newline-delimited JSON (one request object per line, one
// response object per line — see DESIGN §11), and the container ships no
// JSON library, so this implements exactly the subset the protocol needs:
// null/bool/number/string/array/object, strict RFC 8259 grammar, a recursion
// depth limit, and byte-offset diagnostics on malformed input. Objects
// preserve insertion order and dump() emits no insignificant whitespace, so
// a value round-trips to the same bytes — the property the determinism test
// leans on (bit-identical responses for identical requests).
//
// Numbers are doubles (like JavaScript); dump() renders them with
// std::to_chars shortest round-trip form, integers without a trailing ".0".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace gpuhms::serve {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), num_(d) {}
  // One template for all integral types: std::uint64_t and std::size_t are
  // the same type on LP64, so distinct overloads would collide.
  template <typename I,
            typename = std::enable_if_t<std::is_integral_v<I> &&
                                        !std::is_same_v<I, bool>>>
  Json(I i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::kString), str_(s) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors abort on kind mismatch (internal invariant — callers
  // must test the type first; the protocol layer does).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  // True for a number that is an integer below 2^64 in magnitude and, when
  // parsed, is the integer its literal wrote: 9007199254740993 parses to
  // 2^53, which is integral but not what the literal says.
  bool is_exact_integer() const;

  // Array element access / append.
  std::size_t size() const { return items_.size(); }
  const Json& at(std::size_t i) const;
  Json& push_back(Json v);

  // Object member access: find() returns nullptr when absent. set() appends
  // or overwrites, preserving first-insertion order.
  const Json* find(std::string_view key) const;
  Json& set(std::string_view key, Json v);
  const std::vector<std::pair<std::string, Json>>& members() const {
    return fields_;
  }

  // Strict parse of exactly one JSON value (leading/trailing whitespace
  // allowed, anything else after the value is an error). Errors are
  // INVALID_ARGUMENT with a byte offset and what was expected.
  static StatusOr<Json> parse(std::string_view text);

  // Compact serialization (no spaces/newlines). Deterministic: preserves
  // member order, shortest-round-trip numbers.
  std::string dump() const;

 private:
  struct Parser;

  void dump_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  bool rounded_integer_ = false;  // parsed integral, but not as written
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;                            // kArray
  std::vector<std::pair<std::string, Json>> fields_;   // kObject
};

// Renders a double the way Json::dump does (shortest round-trip; integral
// values without a fraction). Exposed for handwritten JSON writers (benches).
std::string json_number(double v);

// Escapes and quotes a string for embedding in handwritten JSON.
std::string json_quote(std::string_view s);

}  // namespace gpuhms::serve

#include "serve/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace gpuhms::serve {

namespace {

// Recursion guard: the protocol never nests past ~4 levels; 64 keeps any
// adversarial request from exhausting the stack.
constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  bool at_end() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  Status error(std::string what) const {
    return error_at(pos, std::move(what));
  }

  Status error_at(std::size_t at, std::string what) const {
    return InvalidArgumentError("JSON parse error at byte " +
                                std::to_string(at) + ": " + std::move(what));
  }

  // A byte for an error message: itself when printable ASCII, else hex, so
  // no message carries a byte that is not UTF-8.
  static std::string printable(char c) {
    const auto b = static_cast<unsigned char>(c);
    if (b >= 0x20 && b < 0x7f) return std::string(1, c);
    char buf[8];
    std::snprintf(buf, sizeof buf, "0x%02x", static_cast<unsigned>(b));
    return buf;
  }

  // Length of the well-formed UTF-8 sequence starting at byte `at`, or 0:
  // RFC 3629's shortest forms, without surrogates, up to U+10FFFF.
  std::size_t utf8_length(std::size_t at) const {
    const auto byte = [&](std::size_t i) -> unsigned {
      return i < text.size() ? static_cast<unsigned char>(text[i]) : 0u;
    };
    const unsigned lead = byte(at);
    std::size_t n = 0;
    unsigned lo = 0x80, hi = 0xBF;  // the second byte's range
    if (lead >= 0xC2 && lead <= 0xDF) {
      n = 2;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
      n = 3;
      if (lead == 0xE0) lo = 0xA0;  // overlong
      if (lead == 0xED) hi = 0x9F;  // surrogates
    } else if (lead >= 0xF0 && lead <= 0xF4) {
      n = 4;
      if (lead == 0xF0) lo = 0x90;  // overlong
      if (lead == 0xF4) hi = 0x8F;  // past U+10FFFF
    } else {
      return 0;
    }
    if (byte(at + 1) < lo || byte(at + 1) > hi) return 0;
    for (std::size_t i = 2; i < n; ++i)
      if ((byte(at + i) & 0xC0) != 0x80) return 0;
    return n;
  }

  // The four hex digits of a \u escape at pos, consumed.
  StatusOr<unsigned> parse_hex4() {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) return error("truncated \\u escape");
      const char h = text[pos++];
      cp <<= 4;
      if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f')
        cp |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F')
        cp |= static_cast<unsigned>(h - 'A' + 10);
      else
        return error("invalid hex digit in \\u escape");
    }
    return cp;
  }

  void skip_ws() {
    while (!at_end() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                         peek() == '\r'))
      ++pos;
  }

  bool consume(char c) {
    if (at_end() || peek() != c) return false;
    ++pos;
    return true;
  }

  Status expect_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit)
      return error("expected '" + std::string(lit) + "'");
    pos += lit.size();
    return OkStatus();
  }

  StatusOr<Json> parse_value(int depth) {
    if (depth > kMaxDepth) return error("nesting deeper than 64 levels");
    skip_ws();
    if (at_end()) return error("unexpected end of input");
    switch (peek()) {
      case 'n': {
        GPUHMS_RETURN_IF_ERROR(expect_literal("null"));
        return Json();
      }
      case 't': {
        GPUHMS_RETURN_IF_ERROR(expect_literal("true"));
        return Json(true);
      }
      case 'f': {
        GPUHMS_RETURN_IF_ERROR(expect_literal("false"));
        return Json(false);
      }
      case '"':
        return parse_string();
      case '[':
        return parse_array(depth);
      case '{':
        return parse_object(depth);
      default:
        return parse_number();
    }
  }

  StatusOr<Json> parse_number() {
    const std::size_t start = pos;
    if (consume('-')) {
    }
    if (at_end() || peek() < '0' || peek() > '9')
      return error("expected a digit");
    if (peek() == '0') {
      ++pos;  // no leading zeros
    } else {
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos;
    }
    if (!at_end() && peek() == '.') {
      ++pos;
      if (at_end() || peek() < '0' || peek() > '9')
        return error("expected a digit after '.'");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos;
      if (at_end() || peek() < '0' || peek() > '9')
        return error("expected a digit in the exponent");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos;
    }
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(text.data() + start, text.data() + pos, v);
    if (ec != std::errc{} || end != text.data() + pos)
      return error("unrepresentable number");
    if (!std::isfinite(v)) return error("number overflows a double");
    return Json(v);
  }

  StatusOr<Json> parse_string() {
    ++pos;  // opening quote
    std::string out;
    while (true) {
      // A run of plain ASCII bytes is copied at once.
      const std::size_t run = pos;
      while (!at_end()) {
        const auto b = static_cast<unsigned char>(peek());
        if (b < 0x20 || b >= 0x80 || b == '"' || b == '\\') break;
        ++pos;
      }
      out.append(text, run, pos - run);
      if (at_end()) return error("unterminated string");
      const std::size_t at = pos;
      const char c = text[pos++];
      if (c == '"') return Json(std::move(out));
      if (static_cast<unsigned char>(c) < 0x20)
        return error("unescaped control character in string");
      if (c != '\\') {
        const std::size_t n = utf8_length(at);
        if (n == 0)
          return error_at(at, "invalid UTF-8 byte " + printable(c) +
                                  " in string");
        out.append(text, at, n);
        pos = at + n;
        continue;
      }
      if (at_end()) return error("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          GPUHMS_ASSIGN_OR_RETURN(unsigned cp, parse_hex4());
          // A high surrogate must be followed by a low one's escape: the
          // pair is one code point. Any other surrogate is unpaired.
          if (cp >= 0xDC00 && cp <= 0xDFFF)
            return error_at(at, "unpaired surrogate in \\u escape");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (text.substr(pos, 2) != "\\u")
              return error_at(at, "unpaired surrogate in \\u escape");
            pos += 2;
            GPUHMS_ASSIGN_OR_RETURN(const unsigned low, parse_hex4());
            if (low < 0xDC00 || low > 0xDFFF)
              return error_at(at, "unpaired surrogate in \\u escape");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return error_at(at, "invalid escape '\\" + printable(e) + "'");
      }
    }
  }

  StatusOr<Json> parse_array(int depth) {
    ++pos;  // '['
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      GPUHMS_ASSIGN_OR_RETURN(Json v, parse_value(depth + 1));
      arr.push_back(std::move(v));
      skip_ws();
      if (consume(']')) return arr;
      if (!consume(',')) return error("expected ',' or ']' in array");
    }
  }

  StatusOr<Json> parse_object(int depth) {
    ++pos;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"')
        return error("expected a quoted object key");
      const std::size_t key_at = pos;
      GPUHMS_ASSIGN_OR_RETURN(Json key, parse_string());
      // A repeated key would let its last copy silently win.
      if (obj.find(key.as_string()) != nullptr)
        return error_at(key_at, "duplicate object key " +
                                    json_quote(key.as_string()));
      skip_ws();
      if (!consume(':')) return error("expected ':' after object key");
      GPUHMS_ASSIGN_OR_RETURN(Json v, parse_value(depth + 1));
      obj.set(key.as_string(), std::move(v));
      skip_ws();
      if (consume('}')) return obj;
      if (!consume(',')) return error("expected ',' or '}' in object");
    }
  }
};

}  // namespace

bool Json::as_bool() const {
  GPUHMS_CHECK_MSG(type_ == Type::kBool, "Json::as_bool on a non-bool");
  return bool_;
}

double Json::as_number() const {
  GPUHMS_CHECK_MSG(type_ == Type::kNumber, "Json::as_number on a non-number");
  return num_;
}

const std::string& Json::as_string() const {
  GPUHMS_CHECK_MSG(type_ == Type::kString, "Json::as_string on a non-string");
  return str_;
}

const Json& Json::at(std::size_t i) const {
  GPUHMS_CHECK_MSG(type_ == Type::kArray && i < items_.size(),
                   "Json::at out of range");
  return items_[i];
}

Json& Json::push_back(Json v) {
  GPUHMS_CHECK_MSG(type_ == Type::kArray, "Json::push_back on a non-array");
  items_.push_back(std::move(v));
  return items_.back();
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : fields_)
    if (k == key) return &v;
  return nullptr;
}

Json& Json::set(std::string_view key, Json v) {
  GPUHMS_CHECK_MSG(type_ == Type::kObject, "Json::set on a non-object");
  for (auto& [k, existing] : fields_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  fields_.emplace_back(std::string(key), std::move(v));
  return fields_.back().second;
}

StatusOr<Json> Json::parse(std::string_view text) {
  Parser p{text};
  GPUHMS_ASSIGN_OR_RETURN(Json v, p.parse_value(0));
  p.skip_ws();
  if (!p.at_end()) return p.error("trailing characters after the value");
  return v;
}

std::string json_number(double v) {
  // NaN/inf are not representable in JSON; the model layer never produces
  // them past validation, but a defensive "null" beats emitting garbage.
  if (!std::isfinite(v)) return "null";
  char buf[32];
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::fabs(v) < 1e15) {
    const int n = std::snprintf(buf, sizeof buf, "%lld",
                                static_cast<long long>(v));
    return std::string(buf, static_cast<std::size_t>(n));
  }
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  GPUHMS_CHECK(ec == std::errc{});
  return std::string(buf, end);
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      out += json_number(num_);
      break;
    case Type::kString:
      out += json_quote(str_);
      break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out.push_back(',');
        items_[i].dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i) out.push_back(',');
        out += json_quote(fields_[i].first);
        out.push_back(':');
        fields_[i].second.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace gpuhms::serve

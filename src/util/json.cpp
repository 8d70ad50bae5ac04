#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mapcq::util::json {

namespace {

const char* kind_name(value::kind k) {
  switch (k) {
    case value::kind::null: return "null";
    case value::kind::boolean: return "boolean";
    case value::kind::number: return "number";
    case value::kind::string: return "string";
    case value::kind::array: return "array";
    case value::kind::object: return "object";
  }
  return "?";
}

[[noreturn]] void kind_mismatch(const char* want, value::kind got) {
  throw std::runtime_error(std::string("json: value is not a ") + want + " (it is a " +
                           kind_name(got) + ")");
}

}  // namespace

parse_error::parse_error(const std::string& message, std::size_t line, std::size_t column)
    : std::runtime_error("json parse error at line " + std::to_string(line) + ", column " +
                         std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

bool value::as_bool() const {
  if (kind_ != kind::boolean) kind_mismatch("boolean", kind_);
  return bool_;
}

double value::as_number() const {
  if (kind_ != kind::number) kind_mismatch("number", kind_);
  return num_;
}

const std::string& value::as_string() const {
  if (kind_ != kind::string) kind_mismatch("string", kind_);
  return str_;
}

const array& value::as_array() const {
  if (kind_ != kind::array) kind_mismatch("array", kind_);
  return arr_;
}

const object& value::as_object() const {
  if (kind_ != kind::object) kind_mismatch("object", kind_);
  return obj_;
}

array& value::as_array() {
  if (kind_ != kind::array) kind_mismatch("array", kind_);
  return arr_;
}

object& value::as_object() {
  if (kind_ != kind::object) kind_mismatch("object", kind_);
  return obj_;
}

const value* value::find(std::string_view key) const noexcept {
  if (kind_ != kind::object) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

value& value::at_or_insert(std::string_view key) {
  if (kind_ == kind::null) kind_ = kind::object;
  if (kind_ != kind::object) kind_mismatch("object", kind_);
  for (auto& [k, v] : obj_)
    if (k == key) return v;
  obj_.emplace_back(std::string(key), value{});
  return obj_.back().second;
}

void value::push_member(std::string key, value v) {
  if (kind_ == kind::null) kind_ = kind::object;
  if (kind_ != kind::object) kind_mismatch("object", kind_);
  obj_.emplace_back(std::move(key), std::move(v));
}

bool value::operator==(const value& other) const noexcept {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case kind::null: return true;
    case kind::boolean: return bool_ == other.bool_;
    case kind::number: return uint_ && other.uint_ ? uint_ == other.uint_ : num_ == other.num_;
    case kind::string: return str_ == other.str_;
    case kind::array: return arr_ == other.arr_;
    case kind::object: return obj_ == other.obj_;
  }
  return false;
}

namespace {

/// Strict recursive-descent parser over the whole document.
class parser {
 public:
  explicit parser(std::string_view text) : text_(text) {}

  value run() {
    value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw parse_error(message, line, column);
  }

  [[nodiscard]] bool done() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const {
    if (done()) fail("unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (!done()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  value parse_value(int depth) {
    if (depth > 256) fail("nesting deeper than 256 levels");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return value{parse_string()};
      case 't':
        if (consume_literal("true")) return value{true};
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return value{false};
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return value{};
        fail("invalid literal");
      default: return parse_number();
    }
  }

  value parse_object(int depth) {
    expect('{');
    object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value{std::move(members)};
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected a string object key");
      std::string key = parse_string();
      for (const auto& [k, v] : members)
        if (k == key) fail("duplicate object key \"" + key + "\"");
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return value{std::move(members)};
  }

  value parse_array(int depth) {
    expect('[');
    array elements;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value{std::move(elements)};
    }
    for (;;) {
      elements.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return value{std::move(elements)};
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<unsigned>(c - 'A' + 10);
      else {
        --pos_;
        fail("invalid \\u escape digit");
      }
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (take() != '\\' || take() != 'u') {
              --pos_;
              fail("unpaired UTF-16 surrogate");
            }
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("invalid escape sequence");
      }
    }
  }

  value parse_number() {
    const std::size_t start = pos_;
    if (!done() && peek() == '-') ++pos_;
    if (done() || peek() < '0' || peek() > '9') fail("invalid number");
    while (!done() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (!done() && text_[pos_] == '.') {
      ++pos_;
      if (done() || peek() < '0' || peek() > '9') fail("digits must follow the decimal point");
      while (!done() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (!done() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!done() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (done() || peek() < '0' || peek() > '9') fail("digits must follow the exponent");
      while (!done() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string token{text_.substr(start, pos_ - start)};
    // A digits-only literal that fits 64 bits is kept exact.
    std::uint64_t n = 0;
    const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), n);
    if (ec == std::errc{} && end == token.data() + token.size()) return value{n};
    const double v = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v)) fail("number out of double range");
    return value{v};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(std::string& out, const std::string& s) {
  out += '"';
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 passes through raw
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double v) {
  if (!std::isfinite(v))
    throw std::runtime_error("json: cannot dump a non-finite number (no JSON literal)");
  char buf[32];
  constexpr double exact = 9007199254740992.0;  // 2^53
  if (v == std::floor(v) && v >= -exact && v <= exact) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    // Shortest representation that round-trips: 0.9 stays "0.9", not
    // "0.90000000000000002"; widen only for values that need the digits.
    for (int prec = 15; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof buf, "%.*g", prec, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
  }
  out += buf;
}

void dump_value(std::string& out, const value& v, int indent, int depth) {
  const auto newline_pad = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.type()) {
    case value::kind::null: out += "null"; return;
    case value::kind::boolean: out += v.as_bool() ? "true" : "false"; return;
    case value::kind::number:
      if (const auto n = v.exact_uint())
        out += std::to_string(*n);
      else
        dump_number(out, v.as_number());
      return;
    case value::kind::string: dump_string(out, v.as_string()); return;
    case value::kind::array: {
      const array& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        dump_value(out, a[i], indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      return;
    }
    case value::kind::object: {
      const object& o = v.as_object();
      if (o.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        dump_string(out, o[i].first);
        out += indent > 0 ? ": " : ":";
        dump_value(out, o[i].second, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      return;
    }
  }
}

}  // namespace

value parse(std::string_view text) { return parser{text}.run(); }

std::string dump(const value& v, int indent) {
  std::string out;
  dump_value(out, v, indent, 0);
  return out;
}

}  // namespace mapcq::util::json

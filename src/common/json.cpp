#include "common/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace paraleon::common {

namespace {

/// Recursive-descent parser over the raw text, tracking line/column for
/// error messages.
class Parser {
 public:
  Parser(const std::string& text, const std::string& where)
      : text_(text), where_(where) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::string out = where_.empty() ? "JSON error" : where_;
    out += ": " + msg + " at line " + std::to_string(line_) + ", column " +
           std::to_string(col_);
    throw JsonError(out);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        next();
      } else {
        return;
      }
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    next();
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    for (std::size_t i = 0; i < n; ++i) next();
    return true;
  }

  Json parse_value() {
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return Json::make_bool(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json::make_bool(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json::make_null();
        fail("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("unexpected character");
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::make_object();
    skip_ws();
    if (!eof() && peek() == '}') {
      next();
      return obj;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected a quoted object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      if (obj.has(key)) fail("duplicate key \"" + key + "\"");
      obj.members().emplace_back(std::move(key), parse_value());
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        next();
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::make_array();
    skip_ws();
    if (!eof() && peek() == ']') {
      next();
      return arr;
    }
    while (true) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        next();
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char esc = next();
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof()) fail("unterminated \\u escape");
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by any document here; reject them loudly).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  Json parse_number() {
    const std::size_t begin = pos_;
    bool integral = true;
    if (!eof() && peek() == '-') next();
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    while (!eof() && peek() >= '0' && peek() <= '9') next();
    if (!eof() && peek() == '.') {
      integral = false;
      next();
      if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
      while (!eof() && peek() >= '0' && peek() <= '9') next();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      next();
      if (!eof() && (peek() == '+' || peek() == '-')) next();
      if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
      while (!eof() && peek() >= '0' && peek() <= '9') next();
    }
    const std::string lexeme = text_.substr(begin, pos_ - begin);
    if (integral) {
      // Integral lexemes keep exact 64-bit values (seeds need all bits,
      // unsigned ones included).
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(lexeme.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Json::make_int(static_cast<std::int64_t>(v));
      }
      if (lexeme[0] != '-') {
        errno = 0;
        const unsigned long long u = std::strtoull(lexeme.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          return Json::make_uint(static_cast<std::uint64_t>(u));
        }
      }
    }
    return Json::make_number(std::strtod(lexeme.c_str(), nullptr));
  }

  const std::string& text_;
  const std::string& where_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull:
      return "null";
    case Json::Type::kBool:
      return "bool";
    case Json::Type::kNumber:
      return "number";
    case Json::Type::kString:
      return "string";
    case Json::Type::kArray:
      return "array";
    case Json::Type::kObject:
      return "object";
  }
  return "?";
}

/// Canonical number rendering: integral values without a fraction,
/// everything else with the shortest digits that round-trip (0.1 stays
/// "0.1", not the 17-digit expansion), and `null` for NaN and infinities
/// (JSON has no literal for them). Deterministic — a pure function of the
/// bit pattern.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const bool integral = v == std::floor(v) && std::fabs(v) < 9.0e15;
  char* end = integral ? std::to_chars(buf, buf + sizeof buf,
                                       static_cast<long long>(v)).ptr
                       : std::to_chars(buf, buf + sizeof buf, v).ptr;
  out.append(buf, end);
}

template <class Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Appends `s` as a quoted JSON string: `"`, `\` and every control
/// character escaped; runs of plain characters are copied whole.
void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  std::size_t plain = 0;  // start of the pending run of plain characters
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s, plain);
  out += '"';
}

[[noreturn]] void type_fail(const std::string& context, const char* want,
                            Json::Type got) {
  std::string msg = context.empty() ? std::string("value") : context;
  msg += ": expected " + std::string(want) + ", got " + type_name(got);
  throw JsonError(msg);
}

}  // namespace

Json Json::make_bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::make_number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  j.is_int_ = false;
  return j;
}

Json Json::make_int(std::int64_t v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = static_cast<double>(v);
  j.int_ = v;
  j.is_int_ = true;
  return j;
}

Json Json::make_uint(std::uint64_t v) {
  if (v <= static_cast<std::uint64_t>(
          std::numeric_limits<std::int64_t>::max())) {
    return make_int(static_cast<std::int64_t>(v));
  }
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = static_cast<double>(v);
  j.int_ = static_cast<std::int64_t>(v);
  j.is_int_ = true;
  j.is_big_uint_ = true;
  return j;
}

Json Json::make_string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::make_array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::make_object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::make_object(std::initializer_list<Member> members) {
  Json j = make_object();
  j.obj_.assign(members.begin(), members.end());
  return j;
}

Json Json::parse(const std::string& text, const std::string& where) {
  Parser p(text, where);
  return p.parse_document();
}

bool Json::as_bool(const std::string& context) const {
  if (type_ != Type::kBool) type_fail(context, "bool", type_);
  return bool_;
}

double Json::as_double(const std::string& context) const {
  if (type_ != Type::kNumber) type_fail(context, "number", type_);
  return num_;
}

std::int64_t Json::as_int64(const std::string& context) const {
  if (type_ != Type::kNumber) type_fail(context, "integer", type_);
  if (is_big_uint_) {
    throw JsonError((context.empty() ? std::string("value") : context) +
                    ": integer exceeds the int64 range");
  }
  if (is_int_) return int_;
  const double r = std::floor(num_);
  // 2^63 bounds the doubles that convert to int64 without overflow.
  if (r != num_ || r < -9.223372036854775808e18 ||
      r >= 9.223372036854775808e18) {
    type_fail(context, "integer", type_);
  }
  return static_cast<std::int64_t>(r);
}

std::uint64_t Json::as_uint64(const std::string& context) const {
  if (is_big_uint_) return static_cast<std::uint64_t>(int_);
  const std::int64_t v = as_int64(context);
  if (v < 0) {
    throw JsonError((context.empty() ? std::string("value") : context) +
                    ": expected a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

const std::string& Json::as_string(const std::string& context) const {
  if (type_ != Type::kString) type_fail(context, "string", type_);
  return str_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) type_fail("", "array", type_);
  return arr_;
}

std::vector<Json>& Json::items() {
  if (type_ != Type::kArray) type_fail("", "array", type_);
  return arr_;
}

const std::vector<Json::Member>& Json::members() const {
  if (type_ != Type::kObject) type_fail("", "object", type_);
  return obj_;
}

std::vector<Json::Member>& Json::members() {
  if (type_ != Type::kObject) type_fail("", "object", type_);
  return obj_;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* Json::find(const std::string& key) {
  if (type_ != Type::kObject) return nullptr;
  for (auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(const std::string& key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_fail(key, "object", type_);
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj_.emplace_back(key, std::move(value));
}

bool Json::erase(const std::string& key) {
  if (type_ != Type::kObject) return false;
  for (auto it = obj_.begin(); it != obj_.end(); ++it) {
    if (it->first == key) {
      obj_.erase(it);
      return true;
    }
  }
  return false;
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_fail("", "array", type_);
  arr_.push_back(std::move(value));
}

void Json::dump_to(std::string& out, int indent) const {
  // indent < 0 is the one-line form of dump_line().
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      if (is_big_uint_) {
        append_int(out, static_cast<std::uint64_t>(int_));
      } else if (is_int_) {
        append_int(out, int_);
      } else {
        append_number(out, num_);
      }
      return;
    case Type::kString:
      append_quoted(out, str_);
      return;
    case Type::kArray:
    case Type::kObject: {
      const bool object = type_ == Type::kObject;
      const std::size_t n = object ? obj_.size() : arr_.size();
      const bool line = indent < 0;
      const int inner = line ? -1 : indent + 1;
      out += object ? '{' : '[';
      for (std::size_t i = 0; i < n; ++i) {
        if (line) {
          if (i != 0) out += ", ";
        } else {
          out += i == 0 ? "\n" : ",\n";
          out.append(static_cast<std::size_t>(inner) * 2, ' ');
        }
        if (object) {
          append_quoted(out, obj_[i].first);
          out += ": ";
          obj_[i].second.dump_to(out, inner);
        } else {
          arr_[i].dump_to(out, inner);
        }
      }
      if (n != 0 && !line) {
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * 2, ' ');
      }
      out += object ? '}' : ']';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent < 0 ? 0 : indent);
  return out;
}

void Json::dump_line(std::string& out) const { dump_to(out, -1); }

}  // namespace paraleon::common

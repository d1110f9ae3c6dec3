#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace wsp::json {

namespace {

[[noreturn]] void fail(const char* what, std::size_t pos) {
  throw std::runtime_error("json: " + std::string(what) + " at offset " +
                           std::to_string(pos));
}

/// Recursive-descent parser over a complete in-memory document.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage", pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character", pos_);
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value(std::size_t depth) {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        return Value();
      default: return parse_number();
    }
  }

  // `depth` counts the arrays and objects open at pos_, the one starting
  // there included.
  void check_depth(std::size_t depth) const {
    if (depth > kMaxDepth) {
      throw DepthError("json: nesting deeper than " + std::to_string(kMaxDepth) +
                       " at offset " + std::to_string(pos_));
    }
  }

  Value parse_object(std::size_t depth) {
    check_depth(depth);
    expect('{');
    Value v = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      v[key] = parse_value(depth);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array(std::size_t depth) {
    check_depth(depth);
    expect('[');
    Value v = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.push_back(parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape", pos_);
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape", pos_);
          }
          // UTF-8 encode (surrogate pairs not needed by our schemas; encode
          // lone surrogates as-is rather than rejecting).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape", pos_ - 1);
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value", pos_);
    try {
      std::size_t used = 0;
      const double d = std::stod(text_.substr(start, pos_ - start), &used);
      if (used != pos_ - start) fail("bad number", start);
      return Value(d);
    } catch (const std::logic_error&) {
      fail("bad number", start);
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return num_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("json: not a string");
  return str_;
}

const std::vector<Value>& Value::items() const {
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  return arr_;
}

const std::map<std::string, Value>& Value::members() const {
  if (type_ != Type::kObject) throw std::runtime_error("json: not an object");
  return obj_;
}

const Value& Value::at(const std::string& key) const {
  const auto it = members().find(key);
  if (it == obj_.end()) throw std::runtime_error("json: missing key '" + key + "'");
  return it->second;
}

bool Value::has(const std::string& key) const {
  return type_ == Type::kObject && obj_.count(key) != 0;
}

std::size_t Value::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  throw std::runtime_error("json: not a container");
}

void Value::push_back(Value v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  arr_.push_back(std::move(v));
}

Value& Value::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) throw std::runtime_error("json: not an object");
  return obj_[key];
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_number(std::string& out, double n) {
  if (!std::isfinite(n)) {
    out += "null";  // JSON has no inf/nan; the schemas never produce them
    return;
  }
  // Integers (the common case: cycle counts, counts, ids) print exactly.
  if (n == std::floor(n) && std::fabs(n) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", n);
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", n);
    out += buf;
  }
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad = indent < 0 ? "" : std::string(
      static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth + 1), ' ');
  const std::string close_pad = indent < 0 ? "" : std::string(
      static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
  const char* nl = indent < 0 ? "" : "\n";
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: append_number(out, num_); return;
    case Type::kString:
      out += '"';
      out += escape(str_);
      out += '"';
      return;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        out += pad;
        arr_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < arr_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      return;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      out += nl;
      std::size_t i = 0;
      for (const auto& [key, value] : obj_) {
        out += pad;
        out += '"';
        out += escape(key);
        out += "\":";
        if (indent >= 0) out += ' ';
        value.dump_to(out, indent, depth + 1);
        if (++i < obj_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Value Value::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace wsp::json

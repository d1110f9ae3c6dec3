// Minimal JSON value / parser / writer — just enough for the observability
// layer: Chrome-trace export, the BENCH_*.json regression artifacts, the
// trace2txt summarizer and the schema-validation tests.  No external
// dependency, no streaming: documents here are at most a few MB.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace wsp::json {

/// Deepest array/object nesting Value::parse accepts.  The parser recurses
/// once per level, so without a bound a file of '[' characters overflows
/// the stack; the trace and bench schemas nest four levels at most.
inline constexpr std::size_t kMaxDepth = 512;

/// Thrown by Value::parse for a document nested deeper than kMaxDepth.
class DepthError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A JSON document node.  Numbers are stored as double (the trace/bench
/// schemas never need 64-bit-exact integers above 2^53).
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(double n) : type_(Type::kNumber), num_(n) {}
  Value(int n) : type_(Type::kNumber), num_(n) {}
  Value(std::int64_t n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}
  Value(std::uint64_t n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}
  Value(const char* s) : type_(Type::kString), str_(s) {}
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  static Value array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& items() const;              ///< array elements
  const std::map<std::string, Value>& members() const;  ///< object members

  /// Object lookup; throws if not an object or the key is absent.
  const Value& at(const std::string& key) const;
  bool has(const std::string& key) const;
  std::size_t size() const;  ///< array/object element count

  /// Mutators (switch the value to the container type on first use).
  void push_back(Value v);
  Value& operator[](const std::string& key);

  /// Serializes; `indent < 0` = compact one-line form.
  std::string dump(int indent = -1) const;

  /// Parses a complete document; throws std::runtime_error with an offset
  /// on malformed input or trailing garbage, and DepthError (also a
  /// runtime_error) past kMaxDepth levels of nesting.
  static Value parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  std::map<std::string, Value> obj_;
};

/// Escapes a string per JSON rules (quotes not included).
std::string escape(const std::string& s);

}  // namespace wsp::json

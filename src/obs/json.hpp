#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace vnet::obs::json {

/// Streams one JSON document into a string. It holds the tree's only
/// string escaper and number formatter, behind chaos verdicts, the Chrome
/// trace and BENCH_engine.json alike:
///  * strings escape `"`, `\`, `\n`, `\r`, `\t` and other bytes below 0x20
///    (as `\u00XX`); all other bytes pass through unchanged;
///  * integral numbers below 9e15 in magnitude print as integers, other
///    finite doubles in shortest round-trip form, non-finite ones as null.
/// The caller keeps the document well-formed: every begin_* meets its
/// end_*, and inside an object every value follows a key().
class Writer {
 public:
  /// Appends to `out`. `indent` >= 0 puts each member on its own line,
  /// indented that many spaces per level; < 0 writes no whitespace.
  explicit Writer(std::string& out, int indent = -1)
      : out_(out), indent_(indent) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  Writer& key(std::string_view k);
  Writer& string(std::string_view s);
  Writer& number(double d);
  /// Exact at any magnitude, unlike number().
  Writer& integer(std::int64_t i);
  Writer& boolean(bool b) { return token(b ? "true" : "false"); }
  Writer& null() { return token("null"); }

 private:
  Writer& open(char bracket);
  Writer& close(char bracket);
  Writer& token(std::string_view t);  ///< a scalar already spelled as JSON
  void begin_value();
  void escaped(std::string_view s);
  void newline();

  std::string& out_;
  int indent_;
  int depth_ = 0;
  bool need_comma_ = false;  ///< the open container already has an item
  bool after_key_ = false;   ///< the next value completes a member
};

/// Minimal JSON document model for the chaos subsystem's machine-readable
/// verdicts: fork-server children serialize their ScenarioResult over a
/// pipe, the parent parses it back, CI uploads the same bytes as artifacts.
///
/// Deliberately tiny — objects, arrays, strings, doubles, bools, null —
/// with two repo-specific conventions layered on top:
///  * 64-bit exact integers (digests, event counts) travel as hex strings
///    ("0x..."), because doubles only carry 53 bits.
///  * Serialization is canonical: object keys are emitted in sorted order
///    (std::map) with no insignificant whitespace variation, so verdict
///    bytes are diffable and byte-stable across runs.
class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(int i) : v_(static_cast<double>(i)) {}
  Value(unsigned u) : v_(static_cast<double>(u)) {}
  Value(std::int64_t i) : v_(static_cast<double>(i)) {}
  Value(std::uint64_t u) : v_(static_cast<double>(u)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? std::get<bool>(v_) : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return is_number() ? std::get<double>(v_) : fallback;
  }
  /// `fallback` also for a number outside int64, whose cast is undefined.
  std::int64_t as_int(std::int64_t fallback = 0) const {
    const double d = as_number(0.0);
    const bool fits = is_number() && d > -9.2e18 && d < 9.2e18;
    return fits ? static_cast<std::int64_t>(d) : fallback;
  }
  const std::string& as_string() const {
    static const std::string kEmpty;
    return is_string() ? std::get<std::string>(v_) : kEmpty;
  }
  const Array& as_array() const {
    static const Array kEmpty;
    return is_array() ? std::get<Array>(v_) : kEmpty;
  }
  const Object& as_object() const {
    static const Object kEmpty;
    return is_object() ? std::get<Object>(v_) : kEmpty;
  }

  /// Object member access; returns a null Value for missing keys (and for
  /// non-objects), so chained lookups degrade to defaults, not crashes.
  const Value& operator[](const std::string& key) const {
    static const Value kNull;
    if (!is_object()) return kNull;
    const Object& o = std::get<Object>(v_);
    auto it = o.find(key);
    return it == o.end() ? kNull : it->second;
  }

  /// Mutable object member access; converts a null Value into an object.
  Value& operator[](const std::string& key) {
    if (is_null()) v_ = Object{};
    return std::get<Object>(v_)[key];
  }

  void push_back(Value v) {
    if (is_null()) v_ = Array{};
    std::get<Array>(v_).push_back(std::move(v));
  }

  /// Canonical serialization (sorted keys, minimal spacing). `indent` >= 0
  /// pretty-prints with that many leading spaces per level.
  std::string dump(int indent = -1) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Exact 64-bit integers as JSON: hex-string round-trip ("0x1b2c...").
Value hex_u64(std::uint64_t v);
std::uint64_t parse_hex_u64(const Value& v, std::uint64_t fallback = 0);

/// Parses one JSON document. Returns false (and sets *error, if non-null)
/// on malformed input; trailing garbage after the document is an error.
/// Numbers must follow RFC 8259 §6 exactly (no `+1`, `01`, `.5`, `1.`,
/// hex or infinities), and nesting beyond a fixed depth is rejected.
bool parse(const std::string& text, Value* out, std::string* error = nullptr);

}  // namespace vnet::obs::json

#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <system_error>

namespace vnet::obs::json {

// ----------------------------------------------------------------- writer

void Writer::newline() {
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth_, ' ');
}

void Writer::begin_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_) out_ += ',';
  if (indent_ >= 0 && depth_ > 0) newline();
}

Writer& Writer::open(char bracket) {
  begin_value();
  out_ += bracket;
  ++depth_;
  need_comma_ = false;
  return *this;
}

Writer& Writer::close(char bracket) {
  --depth_;
  // An empty container closes on the same line: "[]", "{}".
  if (need_comma_ && indent_ >= 0) newline();
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

Writer& Writer::token(std::string_view t) {
  begin_value();
  out_ += t;
  need_comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  if (need_comma_) out_ += ',';
  if (indent_ >= 0) newline();
  escaped(k);
  out_ += indent_ >= 0 ? ": " : ":";
  after_key_ = true;
  return *this;
}

Writer& Writer::string(std::string_view s) {
  begin_value();
  escaped(s);
  need_comma_ = true;
  return *this;
}

void Writer::escaped(std::string_view s) {
  out_ += '"';
  // Copy runs of bytes that need no escape in one append each.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out_.append(esc, sizeof esc);
      }
    }
  }
  out_.append(s.data() + run, s.size() - run);
  out_ += '"';
}

Writer& Writer::number(double d) {
  if (!std::isfinite(d)) return null();
  // Integral values print without a fraction, so counts and times are
  // byte-stable and grep-able.
  if (std::fabs(d) < 9.0e15 && d == std::trunc(d)) {
    return integer(static_cast<std::int64_t>(d));
  }
  char buf[32];
  return token({buf, std::to_chars(buf, buf + sizeof buf, d).ptr});
}

Writer& Writer::integer(std::int64_t i) {
  char buf[24];
  return token({buf, std::to_chars(buf, buf + sizeof buf, i).ptr});
}

namespace {

void write_value(Writer& w, const Value& v) {
  if (v.is_null()) {
    w.null();
  } else if (v.is_bool()) {
    w.boolean(v.as_bool());
  } else if (v.is_number()) {
    w.number(v.as_number());
  } else if (v.is_string()) {
    w.string(v.as_string());
  } else if (v.is_array()) {
    w.begin_array();
    for (const Value& e : v.as_array()) write_value(w, e);
    w.end_array();
  } else {
    w.begin_object();
    for (const auto& [k, e] : v.as_object()) {
      w.key(k);
      write_value(w, e);
    }
    w.end_object();
  }
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// Value of one hex digit, or -1.
int hex_digit(char c) {
  if (is_digit(c)) return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string Value::dump(int indent) const {
  std::string out;
  Writer w(out, indent);
  write_value(w, *this);
  return out;
}

Value hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return Value(std::string(buf));
}

std::uint64_t parse_hex_u64(const Value& v, std::uint64_t fallback) {
  const std::string& s = v.as_string();
  // "0x" and 1..16 digits: anything longer would not fit 64 bits.
  if (s.size() < 3 || s.size() > 18 || s[0] != '0' ||
      (s[1] != 'x' && s[1] != 'X')) {
    return fallback;
  }
  std::uint64_t out = 0;
  for (std::size_t i = 2; i < s.size(); ++i) {
    const int d = hex_digit(s[i]);
    if (d < 0) return fallback;
    out = (out << 4) | static_cast<std::uint64_t>(d);
  }
  return out;
}

// ----------------------------------------------------------------- parser

namespace {

// Recursive-descent over the document text. Depth-limited so hostile input
// (a CI artifact edited by hand, a truncated pipe read) fails cleanly.
class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : p_(text.data()), end_(text.data() + text.size()), error_(error) {}

  bool parse_document(Value* out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (p_ != end_) return fail("trailing characters after document");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* msg) {
    if (error_ != nullptr && error_->empty()) *error_ = msg;
    return false;
  }

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      ++p_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (static_cast<std::size_t>(end_ - p_) < n ||
        std::strncmp(p_, word, n) != 0) {
      return fail("invalid literal");
    }
    p_ += n;
    return true;
  }

  bool digits() {
    const char* start = p_;
    while (p_ != end_ && is_digit(*p_)) ++p_;
    return p_ != start;
  }

  // RFC 8259 §6: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool parse_number(Value* out) {
    const char* start = p_;
    if (*p_ == '-') ++p_;
    if (p_ == end_ || !is_digit(*p_)) return fail("expected a JSON value");
    if (*p_ == '0') {
      ++p_;  // a leading zero stands alone; "01" leaves "1" as trailing
    } else {
      digits();
    }
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (!digits()) return fail("expected digits after decimal point");
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (!digits()) return fail("expected digits in exponent");
    }
    double d = 0;
    const auto r = std::from_chars(start, p_, d);
    if (r.ec != std::errc{} || r.ptr != p_) return fail("number out of range");
    *out = Value(d);
    return true;
  }

  bool parse_string(std::string* out) {
    if (p_ == end_ || *p_ != '"') return fail("expected string");
    ++p_;
    out->clear();
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ == end_) return fail("unterminated escape");
      switch (*p_++) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (end_ - p_ < 4) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const int d = hex_digit(*p_++);
            if (d < 0) return fail("bad hex digit in \\u escape");
            code = (code << 4) | static_cast<unsigned>(d);
          }
          // Verdicts are ASCII; encode BMP code points as UTF-8.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    if (p_ == end_) return fail("unterminated string");
    ++p_;  // closing quote
    return true;
  }

  bool parse_value(Value* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (p_ == end_) return fail("unexpected end of input");
    switch (*p_) {
      case 'n':
        if (!literal("null")) return false;
        *out = Value(nullptr);
        return true;
      case 't':
        if (!literal("true")) return false;
        *out = Value(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        *out = Value(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(&s)) return false;
        *out = Value(std::move(s));
        return true;
      }
      case '[': {
        ++p_;
        Value::Array a;
        skip_ws();
        if (p_ != end_ && *p_ == ']') {
          ++p_;
          *out = Value(std::move(a));
          return true;
        }
        for (;;) {
          Value v;
          skip_ws();
          if (!parse_value(&v, depth + 1)) return false;
          a.push_back(std::move(v));
          skip_ws();
          if (p_ == end_) return fail("unterminated array");
          if (*p_ == ',') {
            ++p_;
            continue;
          }
          if (*p_ == ']') {
            ++p_;
            *out = Value(std::move(a));
            return true;
          }
          return fail("expected ',' or ']' in array");
        }
      }
      case '{': {
        ++p_;
        Value::Object o;
        skip_ws();
        if (p_ != end_ && *p_ == '}') {
          ++p_;
          *out = Value(std::move(o));
          return true;
        }
        for (;;) {
          skip_ws();
          std::string key;
          if (!parse_string(&key)) return false;
          skip_ws();
          if (p_ == end_ || *p_ != ':') return fail("expected ':'");
          ++p_;
          skip_ws();
          Value v;
          if (!parse_value(&v, depth + 1)) return false;
          o[std::move(key)] = std::move(v);
          skip_ws();
          if (p_ == end_) return fail("unterminated object");
          if (*p_ == ',') {
            ++p_;
            continue;
          }
          if (*p_ == '}') {
            ++p_;
            *out = Value(std::move(o));
            return true;
          }
          return fail("expected ',' or '}' in object");
        }
      }
      default:
        return parse_number(out);
    }
  }

  const char* p_;
  const char* end_;
  std::string* error_;
};

}  // namespace

bool parse(const std::string& text, Value* out, std::string* error) {
  if (error != nullptr) error->clear();
  Parser parser(text, error);
  return parser.parse_document(out);
}

}  // namespace vnet::obs::json

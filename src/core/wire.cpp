#include "core/wire.hpp"

#include <bit>
#include <sstream>

namespace linkpad::core {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

// The format itself nests a handful of levels; the cap only has to stop a
// hostile file before the recursive descent below exhausts the stack.
constexpr std::size_t kMaxDepth = 64;

void write_hex_digits(char* dst, double x) {
  auto bits = std::bit_cast<std::uint64_t>(x);
  for (int i = 15; i >= 0; --i) {
    dst[i] = kHexDigits[bits & 0xF];
    bits >>= 4;
  }
}

// Recursive descent over the subset the writer emits: objects, arrays,
// strings (basic escapes), integers (optional sign), true/false/null.
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  wire::Value parse() {
    wire::Value v = parse_value();
    skip_ws();
    if (i_ != s_.size()) {
      throw std::invalid_argument("wire: trailing characters after JSON value");
    }
    return v;
  }

 private:
  using Value = wire::Value;

  [[noreturn]] void fail(const char* what) const {
    std::ostringstream msg;
    msg << "wire: JSON parse error at offset " << i_ << ": " << what;
    throw std::invalid_argument(msg.str());
  }

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  char peek() {
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }

  void expect(char c) {
    if (i_ >= s_.size() || s_[i_] != c) fail("unexpected character");
    ++i_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(i_, lit.size()) != lit) return false;
    i_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_nested(&Parser::parse_object);
      case '[':
        return parse_nested(&Parser::parse_array);
      case '"':
        return parse_string();
      case 't':
      case 'f':
      case 'n':
        return parse_literal();
      default:
        return parse_number();
    }
  }

  Value parse_nested(Value (Parser::*parse)()) {
    if (depth_ == kMaxDepth) {
      std::ostringstream msg;
      msg << "wire: JSON nesting deeper than " << kMaxDepth
          << " levels at offset " << i_;
      throw std::invalid_argument(msg.str());
    }
    ++depth_;
    Value v = (this->*parse)();
    --depth_;
    return v;
  }

  Value parse_literal() {
    Value v;
    if (consume_literal("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
    } else if (consume_literal("false")) {
      v.kind = Value::Kind::kBool;
      v.boolean = false;
    } else if (consume_literal("null")) {
      v.kind = Value::Kind::kNull;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Value parse_number() {
    Value v;
    v.kind = Value::Kind::kNumber;
    if (peek() == '-') {
      v.negative = true;
      ++i_;
    }
    if (i_ >= s_.size() || s_[i_] < '0' || s_[i_] > '9') fail("bad number");
    std::uint64_t mag = 0;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') {
      const auto digit = static_cast<std::uint64_t>(s_[i_] - '0');
      if (mag > (0xffffffffffffffffULL - digit) / 10) fail("integer overflow");
      mag = mag * 10 + digit;
      ++i_;
    }
    if (i_ < s_.size() && (s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E')) {
      fail("float literal (doubles must be hex strings)");
    }
    v.magnitude = mag;
    return v;
  }

  Value parse_string() {
    Value v;
    v.kind = Value::Kind::kString;
    expect('"');
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') break;
      if (c == '\\') {
        if (i_ >= s_.size()) fail("unterminated escape");
        switch (s_[i_++]) {
          case '"':
            v.text.push_back('"');
            break;
          case '\\':
            v.text.push_back('\\');
            break;
          case '/':
            v.text.push_back('/');
            break;
          case 'n':
            v.text.push_back('\n');
            break;
          case 't':
            v.text.push_back('\t');
            break;
          case 'r':
            v.text.push_back('\r');
            break;
          default:
            fail("unsupported escape");
        }
      } else {
        v.text.push_back(c);
      }
    }
    return v;
  }

  Value parse_array() {
    Value v;
    v.kind = Value::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++i_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return v;
  }

  Value parse_object() {
    Value v;
    v.kind = Value::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return v;
    }
    while (true) {
      skip_ws();
      Value key = parse_string();
      skip_ws();
      expect(':');
      Value val = parse_value();
      v.members.emplace_back(std::move(key.text), std::move(val));
      skip_ws();
      const char c = peek();
      ++i_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return v;
  }

  std::string_view s_;
  std::size_t i_ = 0;
  std::size_t depth_ = 0;  // open arrays and objects around the cursor
};

void require(const wire::Value& v, wire::Value::Kind expected,
             const char* what) {
  if (v.kind != expected) {
    throw std::invalid_argument(std::string("wire: expected ") + what);
  }
}

}  // namespace

std::string encode_double(double x) {
  std::string out(16, '0');
  write_hex_digits(out.data(), x);
  return out;
}

double decode_double(const std::string& hex) {
  if (hex.size() != 16) {
    throw std::invalid_argument("wire: hex double must be 16 digits, got \"" +
                                hex + "\"");
  }
  std::uint64_t bits = 0;
  for (const char c : hex) {
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      throw std::invalid_argument("wire: bad hex digit in double \"" + hex +
                                  "\"");
    }
    bits = (bits << 4) | nibble;
  }
  return std::bit_cast<double>(bits);
}

namespace wire {

void append_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
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
        out.push_back(c);
        break;
    }
  }
  out.push_back('"');
}

void append_hex(std::string& out, double x) {
  const std::size_t at = out.size();
  out.append("\"0000000000000000\"");
  write_hex_digits(out.data() + at + 1, x);
}

bool Value::as_bool() const {
  require(*this, Kind::kBool, "bool");
  return boolean;
}

std::uint64_t Value::as_u64() const {
  require(*this, Kind::kNumber, "unsigned integer");
  if (negative) {
    throw std::invalid_argument("wire: negative where unsigned expected");
  }
  return magnitude;
}

const std::string& Value::as_string() const {
  require(*this, Kind::kString, "string");
  return text;
}

double Value::as_hex_double() const { return decode_double(as_string()); }

const std::vector<Value>& Value::as_array() const {
  require(*this, Kind::kArray, "array");
  return items;
}

const Value& Value::at(std::string_view key) const {
  require(*this, Kind::kObject, "object");
  for (const auto& [k, v] : members) {
    if (k == key) return v;
  }
  throw std::invalid_argument("wire: missing key \"" + std::string(key) + "\"");
}

Value parse(std::string_view text) { return Parser(text).parse(); }

}  // namespace wire
}  // namespace linkpad::core

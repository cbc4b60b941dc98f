#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rvhpc::obs::json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
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
}

std::string number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  // to_chars with an explicit precision is specified as printf's %.*g, so
  // these are exactly the "%.17g" bytes (test_obs pins that).  24 bytes
  // hold the longest: sign, 17 digits, point, "e-308".
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

const Value* Value::find(const std::string& key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Value v;
        v.type = Value::Type::String;
        v.str = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value{Value::Type::Bool, true, 0.0, {}, {}, {}};
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value{Value::Type::Bool, false, 0.0, {}, {}, {}};
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = next();
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Exporters only emit \u for control characters; decode the
          // BMP code point as UTF-8 and leave surrogates unpaired.
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
        default: fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    Value v;
    v.type = Value::Type::Number;
    try {
      v.num = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      pos_ = start;
      fail("bad number");
    }
    return v;
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type = Value::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type = Value::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = next();
      if (c == '}') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
  }
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

}  // namespace rvhpc::obs::json

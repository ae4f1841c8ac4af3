// Minimal JSON reader shared by the offline tools (gctrace, gcprof).
//
// Objects keep their fields in declaration order (vector of pairs), arrays
// in element order; numbers stay doubles (every value the simulator writes
// fits double's 53-bit integer range exactly).  Parse errors throw
// std::runtime_error carrying the byte offset.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace gangcomm::json {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* find(const char* key) const {
    for (const auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }
  std::int64_t asI64(std::int64_t fallback = 0) const {
    return kind == Kind::kNumber
               ? static_cast<std::int64_t>(std::llround(number))
               : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "JSON error at offset %zu: %s", pos_,
                  what);
    throw std::runtime_error(buf);
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skipWs();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  JsonValue parseValue() {
    const char c = peek();
    switch (c) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return parseString();
      case 't':
      case 'f': return parseBool();
      case 'n': return parseNull();
      default: return parseNumber();
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      JsonValue key = parseString();
      expect(':');
      v.fields.emplace_back(std::move(key.str), parseValue());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parseValue());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  JsonValue parseString() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.str += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': v.str += '"'; break;
        case '\\': v.str += '\\'; break;
        case '/': v.str += '/'; break;
        case 'n': v.str += '\n'; break;
        case 't': v.str += '\t'; break;
        case 'r': v.str += '\r'; break;
        case 'b': v.str += '\b'; break;
        case 'f': v.str += '\f'; break;
        case 'u': {
          // The recorder only escapes ASCII control characters; decode the
          // low byte and ignore the (always-zero) high byte.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          v.str += static_cast<char>(code & 0xff);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parseBool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue parseNull() {
    if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace gangcomm::json

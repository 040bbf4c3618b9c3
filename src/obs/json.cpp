#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace hia::obs::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool parse(Value& out, std::string& error) {
    skip_ws();
    if (!parse_value(out)) {
      error = error_;
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error = "trailing characters at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  bool fail(const std::string& what) {
    error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool parse_value(Value& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // Nesting costs stack; input controls it, so it is bounded.
        if (depth_ == kMaxDepth) return fail("nesting deeper than 64");
        ++depth_;
        const bool ok = parse_container(out);
        --depth_;
        return ok;
      }
      case '"':
        out.type = Value::Type::kString;
        return parse_string(out.string);
      case 't': return literal("true", Value::Type::kBool, true, out);
      case 'f': return literal("false", Value::Type::kBool, false, out);
      case 'n': return literal("null", Value::Type::kNull, false, out);
      default: return parse_number(out);
    }
  }

  /// An object or array: comma-separated members up to the closing
  /// bracket; an object member is a string key, ':', then the value.
  bool parse_container(Value& out) {
    const bool object = text_[pos_++] == '{';
    const char close = object ? '}' : ']';
    out.type = object ? Value::Type::kObject : Value::Type::kArray;
    skip_ws();
    if (next_is(close)) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (object) {
        if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) {
          return fail("expected object key");
        }
        skip_ws();
        if (!next_is(':')) return fail("expected ':'");
        skip_ws();
      }
      Value value;
      if (!parse_value(value)) return false;
      if (object) {
        out.object[key] = std::move(value);
      } else {
        out.array.push_back(std::move(value));
      }
      skip_ws();
      if (pos_ >= text_.size()) {
        return fail(object ? "unterminated object" : "unterminated array");
      }
      if (next_is(',')) continue;
      if (next_is(close)) return true;
      return fail(std::string("expected ',' or '") + close + "'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char esc = text_[pos_++];
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
            // Validation only: keep the raw escape, no UTF-8 decoding.
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            for (size_t i = 0; i < 4; ++i) {
              const auto h = static_cast<unsigned char>(text_[pos_ + i]);
              if (std::isxdigit(h) == 0) return fail("bad \\u escape");
            }
            out += "\\u" + text_.substr(pos_, 4);
            pos_ += 4;
            break;
          }
          default: return fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool literal(const char* word, Value::Type type, bool boolean,
               Value& out) {
    const size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return fail("bad literal");
    out.type = type;
    out.boolean = boolean;
    pos_ += n;
    return true;
  }

  bool digits() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool next_is(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, finite.
  bool parse_number(Value& out) {
    out.type = Value::Type::kNumber;
    const size_t start = pos_;
    next_is('-');
    // A leading zero stands alone; any other integer part is digits.
    if (!next_is('0') && !digits()) return fail("expected number");
    if (next_is('.') && !digits()) return fail("expected fraction digits");
    if (next_is('e') || next_is('E')) {
      if (!next_is('+')) next_is('-');
      if (!digits()) return fail("expected exponent digits");
    }
    const std::string token = text_.substr(start, pos_ - start);
    out.number = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out.number)) return fail("number out of range");
    return true;
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

bool parse(const std::string& text, Value& out, std::string& error) {
  return Parser(text).parse(out, error);
}

const Value* find(const Value& obj, const std::string& key) {
  if (obj.type != Value::Type::kObject) return nullptr;
  auto it = obj.object.find(key);
  return it == obj.object.end() ? nullptr : &it->second;
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace hia::obs::json

#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
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
        const bool ok =
            text_[pos_] == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.type = Value::Type::kString;
        return parse_string(out.string);
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    out.type = Value::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) {
        return fail("expected object key");
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      Value value;
      if (!parse_value(value)) return false;
      out.object[key] = std::move(value);
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(Value& out) {
    out.type = Value::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      Value value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
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
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            // Validation only: keep the raw escape, no UTF-8 decoding.
            out += "\\u" + text_.substr(pos_, 4);
            pos_ += 4;
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_bool(Value& out) {
    out.type = Value::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_null(Value& out) {
    out.type = Value::Type::kNull;
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_number(Value& out) {
    out.type = Value::Type::kNumber;
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      digits = true;
      ++pos_;
    }
    if (!digits) return fail("expected number");
    out.number = std::strtod(text_.c_str() + start, nullptr);
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

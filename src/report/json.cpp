#include "report/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/status.hpp"

namespace amdmb::report {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool JsonValue::AsBool() const {
  Require(type_ == Type::kBool, "JsonValue: not a boolean");
  return bool_;
}

double JsonValue::AsNumber() const {
  Require(type_ == Type::kNumber, "JsonValue: not a number");
  return number_;
}

const std::string& JsonValue::AsString() const {
  Require(type_ == Type::kString, "JsonValue: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  Require(type_ == Type::kArray, "JsonValue: not an array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::AsObject()
    const {
  Require(type_ == Type::kObject, "JsonValue: not an object");
  return object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type_ == Type::kString ? v->string_
                                                   : std::move(fallback);
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type_ == Type::kNumber ? v->number_ : fallback;
}

bool JsonValue::BoolOr(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type_ == Type::kBool ? v->bool_ : fallback;
}

/// Recursive-descent parser over the full input.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue value = ParseValue();
    SkipWhitespace();
    Require(pos_ == text_.size(),
            "JSON: trailing garbage at byte " + std::to_string(pos_));
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw ConfigError("JSON: " + what + " at byte " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    SkipWhitespace();
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue ParseValue() {
    const char c = Peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxJsonDepth) {
          Fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        }
        JsonValue value = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return value;
      }
      case '"': return ParseString();
      case 't':
      case 'f': return ParseBool();
      case 'n': {
        if (!Consume("null")) Fail("bad literal");
        return JsonValue{};
      }
      default: return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue value;
    value.type_ = JsonValue::Type::kObject;
    if (Peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      JsonValue key = ParseString();
      Expect(':');
      value.object_.emplace_back(std::move(key.string_), ParseValue());
      const char c = Peek();
      ++pos_;
      if (c == '}') return value;
      if (c != ',') Fail("expected ',' or '}' in object");
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue value;
    value.type_ = JsonValue::Type::kArray;
    if (Peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array_.push_back(ParseValue());
      const char c = Peek();
      ++pos_;
      if (c == ']') return value;
      if (c != ',') Fail("expected ',' or ']' in array");
    }
  }

  JsonValue ParseString() {
    Expect('"');
    JsonValue value;
    value.type_ = JsonValue::Type::kString;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (c != '\\') {
        value.string_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': value.string_.push_back('"'); break;
        case '\\': value.string_.push_back('\\'); break;
        case '/': value.string_.push_back('/'); break;
        case 'n': value.string_.push_back('\n'); break;
        case 'r': value.string_.push_back('\r'); break;
        case 't': value.string_.push_back('\t'); break;
        case 'b': value.string_.push_back('\b'); break;
        case 'f': value.string_.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else Fail("bad \\u escape digit");
          }
          // Our writer only \u-escapes control characters (< 0x20);
          // encode anything in the BMP as UTF-8 for robustness.
          if (code < 0x80) {
            value.string_.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            value.string_.push_back(static_cast<char>(0xC0 | (code >> 6)));
            value.string_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            value.string_.push_back(static_cast<char>(0xE0 | (code >> 12)));
            value.string_.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            value.string_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: Fail("unknown escape");
      }
    }
  }

  JsonValue ParseBool() {
    JsonValue value;
    value.type_ = JsonValue::Type::kBool;
    if (Consume("true")) {
      value.bool_ = true;
    } else if (Consume("false")) {
      value.bool_ = false;
    } else {
      Fail("bad literal");
    }
    return value;
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) Fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) Fail("bad number");
    JsonValue value;
    value.type_ = JsonValue::Type::kNumber;
    value.number_ = number;
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< Open arrays/objects around pos_.
};

JsonValue JsonValue::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

}  // namespace amdmb::report

// Minimal JSON support for the report layer: string escaping, a
// locale-independent number formatter, and a small recursive-descent
// parser used by the amdmb_report aggregator and the round-trip tests.
// No external dependency — the documents we read are the ones we write.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace amdmb::report {

/// JSON string escaping (quotes, backslashes, control characters).
/// Non-ASCII bytes (e.g. the em-dash in figure ids) pass through as
/// UTF-8.
std::string JsonEscape(std::string_view text);

/// Shortest round-trippable representation, locale-independent.
std::string JsonNumber(double v);

/// Deepest array/object nesting JsonValue::Parse accepts. The parser
/// recurses once per level, so untrusted input (a request line of
/// nothing but '[') must not choose the stack depth; our own documents
/// nest a handful of levels.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// A parsed JSON document. Arrays/objects own their children; object
/// member order is preserved (the compat tests inspect key sets).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document (the whole input must be consumed apart
  /// from trailing whitespace). Throws ConfigError with the byte offset
  /// on malformed input, including nesting deeper than kMaxJsonDepth.
  static JsonValue Parse(std::string_view text);

  Type type() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }

  /// Typed accessors; each throws ConfigError when the value has a
  /// different type.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Convenience lookups with defaults for optional keys.
  std::string StringOr(std::string_view key, std::string fallback) const;
  double NumberOr(std::string_view key, double fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;

  friend class JsonParser;
};

}  // namespace amdmb::report

// Minimal JSON document model and recursive-descent parser.
//
// The repo emits JSON in several places (metrics registry, trace export,
// BENCH_*.json, run reports) but until bench_diff nothing needed to READ
// it back. This is the reader: a small DOM good enough for the tooling
// that consumes our own artifacts — objects keep insertion order, numbers
// are doubles (every value we emit fits a double exactly below 2^53), and
// parse errors throw with the byte offset. It is not a general-purpose
// JSON library and does not aim to be one.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tsyn::util {

/// Thrown by Json::parse on malformed input. what() carries everything a
/// human needs to fix the file — 1-based line and column plus a snippet of
/// the offending line with a caret — so a typo in a hand-written file
/// reads like a compiler diagnostic, not a bare byte offset:
///
///   expected ':' in object at line 4, column 12 (offset 61)
///     "alu" 2,
///          ^
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& msg, std::size_t offset, std::size_t line,
                 std::size_t column, const std::string& context)
      : std::runtime_error(msg + " at line " + std::to_string(line) +
                           ", column " + std::to_string(column) +
                           " (offset " + std::to_string(offset) + ")" +
                           (context.empty() ? "" : "\n" + context)),
        offset_(offset),
        line_(line),
        column_(column) {}
  std::size_t offset() const { return offset_; }
  std::size_t line() const { return line_; }      ///< 1-based
  std::size_t column() const { return column_; }  ///< 1-based

 private:
  std::size_t offset_;
  std::size_t line_;
  std::size_t column_;
};

/// One JSON value. A plain tagged struct rather than a class hierarchy:
/// consumers pattern-match on `type` and read the matching member.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> arr;
  /// Members in document order (duplicate keys kept as-is; find() returns
  /// the first).
  std::vector<std::pair<std::string, Json>> obj;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// First member named `key`, or nullptr (also for non-objects).
  const Json* find(const std::string& key) const;

  /// find(key)->number with a fallback for missing/non-number members.
  double number_or(const std::string& key, double fallback) const;

  /// Parses one JSON document (trailing non-whitespace is an error).
  /// Throws JsonParseError on malformed input.
  static Json parse(const std::string& text);
};

/// `s` escaped for the inside of a JSON string literal: `"` and `\` get a
/// backslash, newline, CR and tab their short escapes, other control bytes
/// `\u00XX`; everything else (UTF-8 included) is copied. Every JSON writer
/// in the repository escapes through this, so Json::parse reads back what
/// any of them wrote.
std::string json_escape(std::string_view s);

}  // namespace tsyn::util

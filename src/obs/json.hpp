#pragma once

/// \file json.hpp
/// Minimal JSON writer and recursive-descent reader for the observability
/// tooling.
///
/// Every artifact (run reports, profiles, Chrome traces, access logs,
/// timeseries, fault schedules) is *written* by direct string building
/// with the append_* helpers below, so all of them escape strings and
/// print numbers the same way. The *reader* loads them back for `qplace
/// analyze` -- access logs, run reports (`qplace.run_report.v1`), and the
/// committed bench history -- for cross-checking and diffing. It is
/// deliberately small: strict JSON, doubles for all numbers (every value
/// we emit round-trips through %.17g), objects as sorted maps so iteration
/// order matches the sorted-key emission contract.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace qp::obs::json {

/// One JSON value; a tagged union over the seven JSON shapes (integers are
/// not distinguished from doubles -- all emitters in this repo print
/// numbers that a double represents exactly or that only feed tolerance
/// comparisons).
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Member of an object as a string/number with a fallback when the key is
  /// absent or has a different type.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  double get_number(const std::string& key, double fallback) const;
};

/// Parses one JSON document (leading/trailing whitespace allowed).
/// \throws std::runtime_error on malformed input, with position context.
Value parse(const std::string& text);

// ------------------------------------------------------------------ writer

/// `text` with quote and backslash escaped and control characters as
/// \u00XX, without the surrounding quotes.
void append_escaped(std::string& out, std::string_view text);
/// `text` as a quoted, escaped JSON string.
void append_string(std::string& out, std::string_view text);
/// %.17g: round-trips every double exactly.
void append_double(std::string& out, double value);
void append_uint(std::string& out, std::uint64_t value);
void append_int(std::string& out, std::int64_t value);
/// `{"key": value, ...}` from pre-rendered values, in key order.
void append_object(std::string& out,
                   const std::map<std::string, std::string>& rendered);

}  // namespace qp::obs::json

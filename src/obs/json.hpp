// Minimal JSON DOM + recursive-descent parser, shared by the trace
// validator (obs/export.cpp), the RunSummary validator/differ
// (obs/run_summary.cpp), and tools/bench_diff; plus the one string
// escaper every JSON writer (trace, RunSummary, spill header) uses. Full
// JSON grammar, no external dependencies; strings keep \uXXXX escapes
// verbatim (the consumers only compare ASCII keys).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hia::obs::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  [[nodiscard]] bool is_object() const { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }
};

/// Parses `text` into `out`. On failure returns false and fills `error`
/// with a message that includes the byte offset.
bool parse(const std::string& text, Value& out, std::string& error);

/// Object member lookup; nullptr when `obj` is not an object or the key
/// is absent.
const Value* find(const Value& obj, const std::string& key);

/// Appends `s` escaped as the body of a JSON string literal: quotes,
/// backslashes, \n and \t get short escapes, other control bytes \u00XX.
void append_escaped(std::string& out, std::string_view s);

}  // namespace hia::obs::json

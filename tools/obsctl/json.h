#ifndef CHAMELEON_TOOLS_OBSCTL_JSON_H_
#define CHAMELEON_TOOLS_OBSCTL_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace chameleon::obsctl {

/// A parsed JSON value. Objects keep their fields in document order
/// (the run journal's field order is meaningful, and report goldens
/// must be stable). Numbers are doubles — the observability artifacts
/// only carry counts and timings that fit a double exactly.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;                              // array
  std::vector<std::pair<std::string, JsonValue>> fields;     // object

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_bool() const { return kind == Kind::kBool; }

  /// First field with `key`, or nullptr (objects only).
  const JsonValue* Find(const std::string& key) const;

  /// Convenience getters with fallbacks for absent/mistyped fields.
  /// IntOr also falls back for a number FitsInt64 rejects.
  double NumberOr(const std::string& key, double fallback) const;
  int64_t IntOr(const std::string& key, int64_t fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;
};

/// True when `number` is finite and inside int64's range, so a cast to
/// int64_t is defined (it truncates toward zero).
bool FitsInt64(double number);

/// Parses one complete JSON document. Trailing whitespace is allowed;
/// any other trailing content is an error, so a truncated JSONL line
/// fails to parse (which is how the journal analyzer detects a killed
/// run's ragged tail).
[[nodiscard]] util::Result<JsonValue> ParseJson(const std::string& text);

}  // namespace chameleon::obsctl

#endif  // CHAMELEON_TOOLS_OBSCTL_JSON_H_

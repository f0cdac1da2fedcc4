// Minimal JSON support for the observability layer.
//
// JsonWriter is a streaming emitter (objects/arrays/scalars with correct
// comma placement and string escaping) used by MetricsSnapshot and
// core::RunReport; JsonValue is a small recursive-descent parser used by
// tests to prove the emitted documents round-trip. Neither aims to be a
// general JSON library — no streaming reads, no \uXXXX surrogate pairs
// beyond what our own escaper emits.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace snmpv3fp::obs {

// Escapes `text` as a JSON string literal, quotes included. Control
// characters become \u00XX; everything else passes through byte-for-byte.
std::string json_escape(std::string_view text);

// Streaming JSON emitter. Calls must describe a well-formed document
// (keys only inside objects, one root value); the writer tracks nesting
// and inserts commas, it does not validate misuse beyond assertions.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(double number);  // non-finite values emit null
  JsonWriter& value(bool boolean);
  // Splices pre-rendered JSON (must itself be a valid value).
  JsonWriter& raw(std::string_view json_text);

  // Shorthand for key(name).value(x).
  template <typename T>
  JsonWriter& kv(std::string_view name, T&& x) {
    key(name);
    return value(std::forward<T>(x));
  }

  const std::string& str() const { return out_; }

 private:
  void pre_value();

  std::string out_;
  // One frame per open container: whether anything was emitted inside.
  std::vector<bool> has_item_;
  bool pending_key_ = false;
};

class JsonParser;

// Parsed JSON document: a tagged tree. Object member order is preserved.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  static std::optional<JsonValue> parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }

  // Object lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view name) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// 64-bit words (RNG state, IEEE bit patterns, store counters) travel as
// 16-digit hex strings: JSON numbers round-trip only 53 bits through the
// parser's double. The reader yields 0 for an absent or non-string value.
std::string u64_hex(std::uint64_t value);
std::uint64_t parse_u64_hex(const JsonValue* value);

}  // namespace snmpv3fp::obs

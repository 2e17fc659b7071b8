// Minimal JSON for the wire protocol: a strict recursive-descent parser
// into a compact value tree, plus append-style writers. Deliberately tiny —
// the request codec needs objects/arrays/strings/numbers/bools/null and
// nothing else (no streaming, no comments, no NaN/Inf). Every malformed
// input is rejected with Status::ParseError naming the byte offset, so
// the server can answer garbage frames with a clean error response
// instead of disconnecting.

#ifndef SJOS_NET_JSON_H_
#define SJOS_NET_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sjos {
namespace net {

/// One parsed JSON value. Object member order is preserved.
///
/// A value is 16 bytes: a kind tag plus a union holding a bool, a double,
/// or an owning pointer to the string, array or member list. Numbers and
/// literals, which make up almost all of a result payload, need no heap
/// block of their own. The accessors return a neutral value (false, 0,
/// empty) for a value of another kind.
class JsonValue {
 public:
  /// The kinds from kString on own a heap block.
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  using Members = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;
  JsonValue(const JsonValue& other);
  JsonValue(JsonValue&& other) noexcept : kind_(other.kind_), u_(other.u_) {
    other.kind_ = Kind::kNull;
  }
  JsonValue& operator=(const JsonValue& other);
  JsonValue& operator=(JsonValue&& other) noexcept {
    if (this != &other) {
      Reset();
      kind_ = other.kind_;
      u_ = other.u_;
      other.kind_ = Kind::kNull;
    }
    return *this;
  }
  ~JsonValue() { Reset(); }

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_null() const { return kind_ == Kind::kNull; }

  bool bool_value() const { return kind_ == Kind::kBool && u_.boolean; }
  double number_value() const {
    return kind_ == Kind::kNumber ? u_.number : 0.0;
  }
  const std::string& string_value() const {
    return kind_ == Kind::kString ? *u_.string : EmptyString();
  }
  const Array& array() const {
    return kind_ == Kind::kArray ? *u_.array : EmptyArray();
  }
  const Members& members() const {
    return kind_ == Kind::kObject ? *u_.members : EmptyMembers();
  }

  /// First member named `key`, or null when absent (objects only).
  const JsonValue* Find(std::string_view key) const;

  /// Typed member accessors for the codec: missing key → `fallback`;
  /// present with the wrong type (or, for Uint, negative/fractional/out of
  /// range) → InvalidArgument naming the key.
  Result<std::string> GetString(std::string_view key,
                                std::string fallback) const;
  Result<uint64_t> GetUint(std::string_view key, uint64_t fallback) const;
  Result<bool> GetBool(std::string_view key, bool fallback) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double n);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray(Array items);
  static JsonValue MakeObject(Members members);

 private:
  static const std::string& EmptyString();
  static const Array& EmptyArray();
  static const Members& EmptyMembers();

  /// Frees the owned block, if any, and leaves the value null. Inline
  /// for the common case: numbers and literals own nothing.
  void Reset() {
    if (kind_ >= Kind::kString) FreeBlock();
    kind_ = Kind::kNull;
  }
  void FreeBlock();

  Kind kind_ = Kind::kNull;
  union Payload {
    bool boolean;
    double number = 0.0;
    std::string* string;
    Array* array;
    Members* members;
  } u_;
};

/// Parses exactly one JSON document: leading/trailing whitespace allowed,
/// trailing garbage rejected, nesting capped at `max_depth` (guards stack
/// use on hostile input — a depth breach is a ParseError, not a crash).
Result<JsonValue> ParseJson(std::string_view text, size_t max_depth = 64);

/// Appends `text` JSON-escaped (quotes included) to `*out`. Control
/// characters are \u-escaped; input is treated as raw bytes.
void AppendJsonString(std::string_view text, std::string* out);

/// Most characters WriteDecimal emits: UINT64_MAX has 20 digits.
inline constexpr size_t kMaxDecimalDigits = 20;

/// Number of decimal digits in `value` (1 for 0).
size_t DecimalLength(uint64_t value);

/// Writes `value` in decimal at `out`, which must have room for
/// DecimalLength(value) characters, and returns one past the last one.
/// Allocation- and format-string-free: the result encoder calls it once
/// per node id.
char* WriteDecimal(uint64_t value, char* out);

/// Renders a uint64 exactly (JSON writers elsewhere in the repo go
/// through doubles, which would corrupt large node ids).
void AppendJsonUint(uint64_t value, std::string* out);

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_JSON_H_

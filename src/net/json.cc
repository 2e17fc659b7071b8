#include "net/json.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>

namespace sjos {
namespace net {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : *u_.members) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<std::string> JsonValue::GetString(std::string_view key,
                                         std::string fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a string");
  }
  return v->string_value();
}

Result<uint64_t> JsonValue::GetUint(std::string_view key,
                                    uint64_t fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a number");
  }
  const double n = v->number_value();
  if (n < 0 || n != std::floor(n) || n > 9.007199254740992e15) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a non-negative integer");
  }
  return static_cast<uint64_t>(n);
}

Result<bool> JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a boolean");
  }
  return v->bool_value();
}

JsonValue::JsonValue(const JsonValue& other) : kind_(other.kind_) {
  switch (kind_) {
    case Kind::kString: u_.string = new std::string(*other.u_.string); break;
    case Kind::kArray: u_.array = new Array(*other.u_.array); break;
    case Kind::kObject: u_.members = new Members(*other.u_.members); break;
    default: u_ = other.u_;
  }
}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this != &other) *this = JsonValue(other);
  return *this;
}

void JsonValue::FreeBlock() {
  switch (kind_) {
    case Kind::kString: delete u_.string; break;
    case Kind::kArray: delete u_.array; break;
    case Kind::kObject: delete u_.members; break;
    default: break;
  }
}

const std::string& JsonValue::EmptyString() {
  static const std::string* const empty = new std::string();
  return *empty;
}

const JsonValue::Array& JsonValue::EmptyArray() {
  static const Array* const empty = new Array();
  return *empty;
}

const JsonValue::Members& JsonValue::EmptyMembers() {
  static const Members* const empty = new Members();
  return *empty;
}

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.u_.boolean = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.u_.number = n;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.u_.string = new std::string(std::move(s));
  v.kind_ = Kind::kString;
  return v;
}

JsonValue JsonValue::MakeArray(Array items) {
  JsonValue v;
  v.u_.array = new Array(std::move(items));
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::MakeObject(Members members) {
  JsonValue v;
  v.u_.members = new Members(std::move(members));
  v.kind_ = Kind::kObject;
  return v;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue value;
    SJOS_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after the JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& why) const {
    return Status::ParseError("JSON error at byte " + std::to_string(pos_) +
                              ": " + why);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, size_t depth) {
    if (depth > max_depth_) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        std::string s;
        SJOS_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::MakeString(std::move(s));
        return Status::OK();
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          *out = JsonValue::MakeBool(true);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          *out = JsonValue::MakeBool(false);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          *out = JsonValue::MakeNull();
          return Status::OK();
        }
        return Fail("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  // Arrays and objects collect their elements on a parser-wide scratch
  // stack and move them into an exactly sized vector at the closing
  // bracket: one allocation per container instead of one per growth step.
  Status ParseObject(JsonValue* out, size_t depth) {
    ++pos_;  // '{'
    const size_t base = members_.size();
    SkipWs();
    if (!Consume('}')) {
      while (true) {
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != '"') {
          return Fail("expected a string object key");
        }
        std::string key;
        SJOS_RETURN_IF_ERROR(ParseString(&key));
        SkipWs();
        if (!Consume(':')) return Fail("expected ':' after object key");
        SkipWs();
        JsonValue value;
        SJOS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
        members_.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (Consume(',')) continue;
        if (Consume('}')) break;
        return Fail("expected ',' or '}' in object");
      }
    }
    const auto first = members_.begin() + static_cast<ptrdiff_t>(base);
    *out = JsonValue::MakeObject(
        JsonValue::Members(std::make_move_iterator(first),
                           std::make_move_iterator(members_.end())));
    members_.erase(first, members_.end());
    return Status::OK();
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    ++pos_;  // '['
    const size_t base = items_.size();
    SkipWs();
    if (!Consume(']')) {
      while (true) {
        SkipWs();
        JsonValue value;
        SJOS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
        items_.push_back(std::move(value));
        SkipWs();
        if (Consume(',')) continue;
        if (Consume(']')) break;
        return Fail("expected ',' or ']' in array");
      }
    }
    const auto first = items_.begin() + static_cast<ptrdiff_t>(base);
    *out = JsonValue::MakeArray(
        JsonValue::Array(std::make_move_iterator(first),
                         std::make_move_iterator(items_.end())));
    items_.erase(first, items_.end());
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Fail("unescaped control character in string");
      if (c != '\\') {
        // Copy the whole run of plain bytes at once.
        size_t end = pos_ + 1;
        while (end < text_.size()) {
          const unsigned char d = static_cast<unsigned char>(text_[end]);
          if (d == '"' || d == '\\' || d < 0x20) break;
          ++end;
        }
        out->append(text_.data() + pos_, end - pos_);
        pos_ = end;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          SJOS_RETURN_IF_ERROR(ParseHex4(&code));
          // Surrogate pair?
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            SJOS_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
      else return Fail("invalid \\u escape digit");
    }
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool AtDigit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  // Scans the number token in place. A token of integer digits only whose
  // value is at most 2^53 is converted exactly from the digits; every
  // other token (fraction, exponent, larger integer) goes through strtod,
  // so each double is the one strtod gives for the token.
  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    const bool negative = Consume('-');
    if (!AtDigit()) return Fail("invalid number");
    uint64_t mantissa = 0;
    size_t digits = 0;
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (AtDigit()) {
        // 16 digits cannot overflow; longer integers take the strtod path.
        if (++digits <= 16) {
          mantissa = mantissa * 10 + static_cast<uint64_t>(text_[pos_] - '0');
        }
        ++pos_;
      }
    }
    bool integer = true;
    if (Consume('.')) {
      integer = false;
      if (!AtDigit()) return Fail("invalid number: missing fraction digits");
      while (AtDigit()) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integer = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!AtDigit()) return Fail("invalid number: missing exponent digits");
      while (AtDigit()) ++pos_;
    }
    constexpr uint64_t kExactLimit = uint64_t{1} << 53;
    if (integer && digits <= 16 && mantissa <= kExactLimit) {
      const double magnitude = static_cast<double>(mantissa);
      *out = JsonValue::MakeNumber(negative ? -magnitude : magnitude);
      return Status::OK();
    }
    // strtod needs a terminated copy of the token; short tokens stay on
    // the stack.
    const std::string_view token = text_.substr(start, pos_ - start);
    char stack_buf[64];
    std::string heap_buf;
    const char* terminated = stack_buf;
    if (token.size() < sizeof(stack_buf)) {
      std::memcpy(stack_buf, token.data(), token.size());
      stack_buf[token.size()] = '\0';
    } else {
      heap_buf.assign(token);
      terminated = heap_buf.c_str();
    }
    char* end = nullptr;
    const double value = std::strtod(terminated, &end);
    if (end != terminated + token.size() || !std::isfinite(value)) {
      return Fail("number out of range");
    }
    *out = JsonValue::MakeNumber(value);
    return Status::OK();
  }

  std::string_view text_;
  size_t max_depth_;
  size_t pos_ = 0;
  JsonValue::Array items_;      // open arrays' elements, innermost last
  JsonValue::Members members_;  // open objects' members, innermost last
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text, size_t max_depth) {
  return Parser(text, max_depth).Parse();
}

void AppendJsonString(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (unsigned char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          *out += "\\u00";
          out->push_back(kHex[c >> 4]);
          out->push_back(kHex[c & 0xF]);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

namespace {

/// "00".."99": two decimal digits per table lookup.
constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

/// Writes the digits of `value` backwards, ending just before `end`.
template <typename U>
void WriteDigitsBackward(U value, char* end) {
  while (value >= 100) {
    const size_t i = static_cast<size_t>(value % 100) * 2;
    value /= 100;
    *--end = kDigitPairs[i + 1];
    *--end = kDigitPairs[i];
  }
  if (value >= 10) {
    const size_t i = static_cast<size_t>(value) * 2;
    *--end = kDigitPairs[i + 1];
    *--end = kDigitPairs[i];
  } else {
    *--end = static_cast<char>('0' + value);
  }
}

}  // namespace

size_t DecimalLength(uint64_t value) {
  size_t n = 1;
  while (true) {
    if (value < 10) return n;
    if (value < 100) return n + 1;
    if (value < 1000) return n + 2;
    if (value < 10000) return n + 3;
    value /= 10000;
    n += 4;
  }
}

char* WriteDecimal(uint64_t value, char* out) {
  char* end = out + DecimalLength(value);
  // Node ids fit in 32 bits; 32-bit division is the cheaper loop.
  if (value <= UINT32_MAX) {
    WriteDigitsBackward(static_cast<uint32_t>(value), end);
  } else {
    WriteDigitsBackward(value, end);
  }
  return end;
}

void AppendJsonUint(uint64_t value, std::string* out) {
  char digits[kMaxDecimalDigits];
  out->append(digits, WriteDecimal(value, digits));
}

}  // namespace net
}  // namespace sjos

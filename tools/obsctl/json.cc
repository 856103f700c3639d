#include "tools/obsctl/json.h"

#include <cctype>
#include <cstdlib>

namespace chameleon::obsctl {
namespace {

/// Recursive-descent parser over a string view with position tracking.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  util::Result<JsonValue> Parse() {
    JsonValue value;
    CHAMELEON_RETURN_NOT_OK(ParseValue(&value, /*depth=*/0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  util::Status Error(const std::string& message) const {
    return util::Status::InvalidArgument(
        message + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
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

  util::Status Expect(char c) {
    if (!Consume(c)) {
      return Error(std::string("expected '") + c + "'");
    }
    return util::Status::Ok();
  }

  bool ConsumeLiteral(const char* literal) {
    size_t i = 0;
    while (literal[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != literal[i]) {
        return false;
      }
      ++i;
    }
    pos_ += i;
    return true;
  }

  util::Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("JSON nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (ConsumeLiteral("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return util::Status::Ok();
    }
    if (ConsumeLiteral("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return util::Status::Ok();
    }
    if (ConsumeLiteral("null")) {
      out->kind = JsonValue::Kind::kNull;
      return util::Status::Ok();
    }
    return ParseNumber(out);
  }

  util::Status ParseObject(JsonValue* out, int depth) {
    CHAMELEON_RETURN_NOT_OK(Expect('{'));
    out->kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return util::Status::Ok();
    while (true) {
      SkipWhitespace();
      std::string key;
      CHAMELEON_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      CHAMELEON_RETURN_NOT_OK(Expect(':'));
      JsonValue value;
      CHAMELEON_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->fields.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return util::Status::Ok();
      CHAMELEON_RETURN_NOT_OK(Expect(','));
    }
  }

  util::Status ParseArray(JsonValue* out, int depth) {
    CHAMELEON_RETURN_NOT_OK(Expect('['));
    out->kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return util::Status::Ok();
    while (true) {
      JsonValue value;
      CHAMELEON_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return util::Status::Ok();
      CHAMELEON_RETURN_NOT_OK(Expect(','));
    }
  }

  util::Status ParseString(std::string* out) {
    CHAMELEON_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return util::Status::Ok();
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape digit");
            }
          }
          // The journal only \u-escapes control characters; anything
          // beyond Latin-1 degrades to '?' rather than growing a full
          // UTF-16 decoder here.
          *out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
  }

  util::Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a JSON value");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = value;
    return util::Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool FitsInt64(double number) {
  // -2^63 and 2^63 are exact doubles; INT64_MAX is not, so the upper
  // bound is exclusive. NaN fails both comparisons.
  return number >= -9223372036854775808.0 && number < 9223372036854775808.0;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_number() ? value->number_value
                                                : fallback;
}

int64_t JsonValue::IntOr(const std::string& key, int64_t fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_number() &&
                 FitsInt64(value->number_value)
             ? static_cast<int64_t>(value->number_value)
             : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_string() ? value->string_value
                                                : fallback;
}

bool JsonValue::BoolOr(const std::string& key, bool fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_bool() ? value->bool_value : fallback;
}

util::Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace chameleon::obsctl

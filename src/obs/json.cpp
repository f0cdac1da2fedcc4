#include "obs/json.hpp"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace snmpv3fp::obs {

std::string u64_hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

std::uint64_t parse_u64_hex(const JsonValue* value) {
  if (value == nullptr || value->kind() != JsonValue::Kind::kString) return 0;
  return std::strtoull(value->as_string().c_str(), nullptr, 16);
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
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
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void JsonWriter::pre_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_item_.empty()) {
    if (has_item_.back()) out_.push_back(',');
    has_item_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  out_.push_back('{');
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_.push_back('}');
  has_item_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  out_.push_back('[');
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_.push_back(']');
  has_item_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (!has_item_.empty()) {
    if (has_item_.back()) out_.push_back(',');
    has_item_.back() = true;
  }
  out_ += json_escape(name);
  out_.push_back(':');
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  pre_value();
  out_ += json_escape(text);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  pre_value();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  pre_value();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  pre_value();
  if (!std::isfinite(number)) {
    out_ += "null";  // JSON has no Inf/NaN
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", number);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool boolean) {
  pre_value();
  out_ += boolean ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json_text) {
  pre_value();
  out_ += json_text;
  return *this;
}

// Recursive-descent parser over [pos, text.size()).
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse_document() {
    auto value = parse_value();
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // Our escaper only emits \u00XX; encode the general case as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    JsonValue value;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      value = make(JsonValue::Kind::kObject);
      skip_ws();
      if (consume('}')) return value;
      while (true) {
        auto name = parse_string();
        if (!name || !consume(':')) return std::nullopt;
        auto member = parse_value();
        if (!member) return std::nullopt;
        value.members_.emplace_back(std::move(*name), std::move(*member));
        if (consume(',')) { skip_ws(); continue; }
        if (consume('}')) return value;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      value = make(JsonValue::Kind::kArray);
      skip_ws();
      if (consume(']')) return value;
      while (true) {
        auto item = parse_value();
        if (!item) return std::nullopt;
        value.items_.push_back(std::move(*item));
        if (consume(',')) continue;
        if (consume(']')) return value;
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto text = parse_string();
      if (!text) return std::nullopt;
      value = make(JsonValue::Kind::kString);
      value.string_ = std::move(*text);
      return value;
    }
    if (literal("true")) {
      value = make(JsonValue::Kind::kBool);
      value.bool_ = true;
      return value;
    }
    if (literal("false")) {
      value = make(JsonValue::Kind::kBool);
      value.bool_ = false;
      return value;
    }
    if (literal("null")) return make(JsonValue::Kind::kNull);
    // Number.
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    if (pos_ == start) return std::nullopt;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    value = make(JsonValue::Kind::kNumber);
    value.number_ = number;
    return value;
  }

  static JsonValue make(JsonValue::Kind kind) {
    JsonValue value;
    value.kind_ = kind;
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::optional<JsonValue> JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

const JsonValue* JsonValue::find(std::string_view name) const {
  for (const auto& [key, value] : members_)
    if (key == name) return &value;
  return nullptr;
}

}  // namespace snmpv3fp::obs

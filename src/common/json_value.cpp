#include "common/json_value.h"

#include <charconv>

#include "common/check.h"

namespace treeaa {

bool JsonValue::as_bool() const {
  TREEAA_REQUIRE(kind_ == Kind::kBool);
  return bool_;
}

double JsonValue::as_number() const {
  TREEAA_REQUIRE(kind_ == Kind::kNumber);
  return number_;
}

const std::string& JsonValue::as_string() const {
  TREEAA_REQUIRE(kind_ == Kind::kString);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  TREEAA_REQUIRE(kind_ == Kind::kArray);
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  TREEAA_REQUIRE(kind_ == Kind::kObject);
  return members_;
}

bool JsonValue::is_flat_object() const {
  if (kind_ != Kind::kObject) return false;
  for (const auto& member : members_) {
    const Kind kind = member.second.kind_;
    if (kind == Kind::kArray || kind == Kind::kObject) return false;
  }
  return true;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Recursive-descent parser over a string_view; all methods return false on
/// syntax errors and leave the cursor wherever the error was found.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  bool parse_document(JsonValue& out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 32;

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    out.clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        if (i_ + 1 >= s_.size()) return false;
        switch (s_[i_ + 1]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (i_ + 5 >= s_.size()) return false;
            unsigned code = 0;
            const char* first = s_.data() + i_ + 2;
            const auto res = std::from_chars(first, first + 4, code, 16);
            if (res.ec != std::errc() || res.ptr != first + 4) return false;
            // Specs are ASCII documents; reject non-ASCII escapes rather
            // than implementing UTF-16 surrogate handling nobody needs.
            if (code > 0x7F) return false;
            out += static_cast<char>(code);
            i_ += 4;
            break;
          }
          default: return false;
        }
        i_ += 2;
      } else {
        out += s_[i_];
        ++i_;
      }
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }

  bool parse_number(double& out) {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           ((s_[i_] >= '0' && s_[i_] <= '9') || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' ||
            s_[i_] == '-')) {
      ++i_;
    }
    if (i_ == start) return false;
    const auto res = std::from_chars(s_.data() + start, s_.data() + i_, out);
    return res.ec == std::errc() && res.ptr == s_.data() + i_;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth || i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': {
        ++i_;
        out.kind_ = JsonValue::Kind::kObject;
        skip_ws();
        if (i_ < s_.size() && s_[i_] == '}') {
          ++i_;
          return true;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (i_ >= s_.size() || s_[i_] != ':') return false;
          ++i_;
          skip_ws();
          JsonValue member;
          if (!parse_value(member, depth + 1)) return false;
          out.members_.emplace_back(std::move(key), std::move(member));
          skip_ws();
          if (i_ >= s_.size()) return false;
          if (s_[i_] == ',') {
            ++i_;
            continue;
          }
          if (s_[i_] == '}') {
            ++i_;
            return true;
          }
          return false;
        }
      }
      case '[': {
        ++i_;
        out.kind_ = JsonValue::Kind::kArray;
        skip_ws();
        if (i_ < s_.size() && s_[i_] == ']') {
          ++i_;
          return true;
        }
        while (true) {
          skip_ws();
          JsonValue item;
          if (!parse_value(item, depth + 1)) return false;
          out.items_.push_back(std::move(item));
          skip_ws();
          if (i_ >= s_.size()) return false;
          if (s_[i_] == ',') {
            ++i_;
            continue;
          }
          if (s_[i_] == ']') {
            ++i_;
            return true;
          }
          return false;
        }
      }
      case '"':
        out.kind_ = JsonValue::Kind::kString;
        return parse_string(out.string_);
      case 't':
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = true;
        return literal("true");
      case 'f':
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = false;
        return literal("false");
      case 'n':
        out.kind_ = JsonValue::Kind::kNull;
        return literal("null");
      default:
        out.kind_ = JsonValue::Kind::kNumber;
        return parse_number(out.number_);
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

std::optional<JsonValue> JsonValue::parse(std::string_view text) {
  JsonValue out;
  JsonParser parser(text);
  if (!parser.parse_document(out)) return std::nullopt;
  return out;
}

}  // namespace treeaa

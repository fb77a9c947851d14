// hi-opt: the store's in-house JSON parser, shared by every codec that
// reads an hi-*/v1 interchange document (scenarios, crowd scenarios).
// Documents are written with hi::JsonWriter (common/json_string.hpp).
//
// Deliberately small and strict: objects, arrays, strings, numbers,
// true/false/null.  A number must match the JSON grammar and parse to a
// finite double (std::from_chars on the scanned span), so inf, nan, hex,
// a leading '+' or '.' and out-of-range magnitudes are rejected.  The
// writers print the shortest round-trip form, so a serialize → parse →
// serialize cycle is a fixed point and fingerprints computed over parsed
// values survive the trip.  Lives in hi::store::detail: tools may use
// it, but it is not a supported public parsing API.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hi::store::detail {

/// Parsed JSON tree node; see the file comment for the supported grammar.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  std::optional<JsonValue> parse(std::string* error) {
    std::optional<JsonValue> v = value();
    skip_ws();
    if (v && pos_ != s_.size()) {
      fail("trailing characters after JSON value");
      v.reset();
    }
    if (!v && error != nullptr) *error = error_;
    return v;
  }

 private:
  void fail(std::string_view msg) {
    if (error_.empty()) {
      error_ = std::string(msg) + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f' || c == 'n') return keyword();
    return number();
  }

  std::optional<JsonValue> object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      std::optional<std::string> key = raw_string();
      if (!key) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<JsonValue> item = value();
      if (!item) return std::nullopt;
      v.fields.emplace_back(std::move(*key), std::move(*item));
      if (consume(',')) continue;
      if (consume('}')) return v;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (consume(']')) return v;
    while (true) {
      std::optional<JsonValue> item = value();
      if (!item) return std::nullopt;
      v.items.push_back(std::move(*item));
      if (consume(',')) continue;
      if (consume(']')) return v;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<std::string> raw_string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      fail("expected string");
      return std::nullopt;
    }
    ++pos_;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        const char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (s_.size() - pos_ < 4) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            unsigned code = 0;
            const auto res = std::from_chars(
                s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
            if (res.ec != std::errc{} || res.ptr != s_.data() + pos_ + 4) {
              fail("bad \\u escape");
              return std::nullopt;
            }
            pos_ += 4;
            if (code > 0x7F) {
              fail("non-ASCII \\u escape unsupported");
              return std::nullopt;
            }
            out.push_back(static_cast<char>(code));
            break;
          }
          default:
            fail("unknown escape");
            return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> string_value() {
    std::optional<std::string> s = raw_string();
    if (!s) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.text = std::move(*s);
    return v;
  }

  std::optional<JsonValue> keyword() {
    JsonValue v;
    if (s_.substr(pos_, 4) == "true") {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      pos_ += 4;
    } else if (s_.substr(pos_, 5) == "false") {
      v.kind = JsonValue::Kind::kBool;
      pos_ += 5;
    } else if (s_.substr(pos_, 4) == "null") {
      pos_ += 4;
    } else {
      fail("unknown keyword");
      return std::nullopt;
    }
    return v;
  }

  /// One JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
  /// scanned in place and converted without a copy.
  std::optional<JsonValue> number() {
    const std::size_t start = pos_;
    const auto accept = [&](char c) {
      const bool hit = pos_ < s_.size() && s_[pos_] == c;
      pos_ += hit ? 1 : 0;
      return hit;
    };
    const auto digits = [&] {
      const std::size_t from = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      return pos_ > from;
    };
    accept('-');
    bool ok = accept('0') || digits();
    if (ok && accept('.')) ok = digits();
    if (ok && (accept('e') || accept('E'))) {
      if (!accept('+')) accept('-');
      ok = digits();
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    if (ok) {
      // from_chars also rejects a magnitude outside the double range.
      const auto res =
          std::from_chars(s_.data() + start, s_.data() + pos_, v.number);
      if (res.ec == std::errc{}) return v;
    }
    pos_ = start;
    fail("expected a finite JSON number");
    return std::nullopt;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// Typed accessors over a parsed tree; the first mismatch latches an
/// error message and every later access short-circuits.
class ObjectReader {
 public:
  explicit ObjectReader(std::string* error) : error_(error) {}

  [[nodiscard]] bool failed() const { return failed_; }

  void fail(std::string msg) {
    if (!failed_ && error_ != nullptr) *error_ = std::move(msg);
    failed_ = true;
  }

  double num(const JsonValue& obj, std::string_view key) {
    const JsonValue* v = require(obj, key);
    if (v == nullptr) return 0.0;
    if (v->kind != JsonValue::Kind::kNumber) {
      fail("field '" + std::string(key) + "' must be a number");
      return 0.0;
    }
    return v->number;
  }

  int integer(const JsonValue& obj, std::string_view key) {
    const double d = num(obj, key);
    if (failed_) return 0;
    if (!is_int(d)) {
      fail("field '" + std::string(key) + "' must be an integer");
      return 0;
    }
    return static_cast<int>(d);
  }

  std::string str(const JsonValue& obj, std::string_view key) {
    const JsonValue* v = require(obj, key);
    if (v == nullptr) return {};
    if (v->kind != JsonValue::Kind::kString) {
      fail("field '" + std::string(key) + "' must be a string");
      return {};
    }
    return v->text;
  }

  const JsonValue* require(const JsonValue& obj, std::string_view key) {
    if (failed_) return nullptr;
    const JsonValue* v = obj.find(key);
    if (v == nullptr) {
      fail("missing field '" + std::string(key) + "'");
    }
    return v;
  }

  /// The items of the array at `key`; none once anything has failed, so
  /// a field of another kind is an error, never an empty list.
  const std::vector<JsonValue>& array(const JsonValue& obj,
                                      std::string_view key) {
    static const std::vector<JsonValue> kNone;
    const JsonValue* v = require(obj, key);
    if (v == nullptr) return kNone;
    if (v->kind != JsonValue::Kind::kArray) {
      fail("field '" + std::string(key) + "' must be an array");
      return kNone;
    }
    return v->items;
  }

  std::vector<int> int_array(const JsonValue& obj, std::string_view key) {
    std::vector<int> out;
    for (const JsonValue& item : array(obj, key)) {
      if (item.kind != JsonValue::Kind::kNumber || !is_int(item.number)) {
        fail("field '" + std::string(key) + "' must hold integers");
        return out;
      }
      out.push_back(static_cast<int>(item.number));
    }
    return out;
  }

  /// Rejects keys outside `allowed` so a typo'd field fails loudly
  /// instead of silently keeping the default.
  void check_keys(const JsonValue& obj,
                  std::initializer_list<std::string_view> allowed) {
    if (failed_) return;
    for (const auto& [k, v] : obj.fields) {
      bool known = false;
      for (std::string_view a : allowed) {
        known = known || a == k;
      }
      if (!known) {
        fail("unknown field '" + k + "'");
        return;
      }
    }
  }

 private:
  /// Integral and small enough to convert to int without overflow.
  static bool is_int(double d) {
    return d == std::floor(d) && std::abs(d) <= 1e9;
  }

  std::string* error_;
  bool failed_ = false;
};

}  // namespace hi::store::detail

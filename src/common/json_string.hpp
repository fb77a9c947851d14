// hi-opt: the one JSON writer and string escaper every document writer
// shares (store codecs, obs snapshots and traces, campaign reports, CLI
// and bench reports).  Header-only, so leaf libraries such as hi_obs can
// use it without linking anything.
//
// Strings: `"` and `\` are escaped, \n and \t take their short forms,
// every other control character becomes \u00XX, and all other bytes pass
// through (UTF-8 stays UTF-8).
//
// Numbers: integers print exactly; a double prints as the shortest
// decimal that parses back to the same bits (std::to_chars), and inf/nan
// print as null because JSON has no literal for them.
//
// Layout: the caller picks each container's layout where it opens it.
// A block container puts each member on its own line, indented two
// spaces per enclosing block container; an inline container separates
// members with ", "; an empty container prints {} or []; a top-level
// block document ends in a newline.
#pragma once

#include <array>
#include <cassert>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hi {

/// `v` as a JSON number (see the file comment).
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::array<char, 32> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), res.ptr);
}

/// Builds one JSON document (see the file comment for the layout rule).
/// Calls chain: w.object(kBlock).field("n", 1).key("xs").array(kInline)...
class JsonWriter {
 public:
  enum Layout : bool { kInline, kBlock };

  JsonWriter& object(Layout layout) { return open('{', layout); }
  JsonWriter& array(Layout layout) { return open('[', layout); }

  /// Closes the innermost open container.
  JsonWriter& end() {
    assert(!open_.empty());
    const Frame f = open_.back();
    open_.pop_back();
    if (f.layout == kBlock) {
      --blocks_;
      if (f.members > 0) newline();
    }
    out_.push_back(f.close);
    if (open_.empty() && f.layout == kBlock) out_.push_back('\n');
    return *this;
  }

  JsonWriter& key(std::string_view k) {
    separate();
    put_string(k);
    out_ += ": ";
    keyed_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    separate();
    put_string(s);
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  JsonWriter& value(double v) { return raw(json_number(v)); }
  template <std::integral T>
  JsonWriter& value(T v) {
    return raw(std::to_string(v));
  }

  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// The document so far; the writer is spent afterwards.
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  struct Frame {
    char close;
    Layout layout;
    int members;
  };

  JsonWriter& open(char c, Layout layout) {
    separate();
    out_.push_back(c);
    open_.push_back({c == '{' ? '}' : ']', layout, 0});
    blocks_ += layout == kBlock ? 1 : 0;
    return *this;
  }

  JsonWriter& raw(std::string_view text) {
    separate();
    out_ += text;
    return *this;
  }

  /// What goes before a member: nothing after its key, else the open
  /// container's separator.
  void separate() {
    if (std::exchange(keyed_, false) || open_.empty()) return;
    Frame& f = open_.back();
    if (f.members++ > 0) out_ += f.layout == kBlock ? "," : ", ";
    if (f.layout == kBlock) newline();
  }

  /// Appends `s` quoted and escaped (see the file comment).
  void put_string(std::string_view s) {
    out_.push_back('"');
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x", c);
            out_ += esc;
          } else {
            out_.push_back(c);
          }
      }
    }
    out_.push_back('"');
  }

  void newline() {
    out_.push_back('\n');
    out_.append(2 * static_cast<std::size_t>(blocks_), ' ');
  }

  std::string out_;
  std::vector<Frame> open_;
  int blocks_ = 0;
  bool keyed_ = false;
};

}  // namespace hi

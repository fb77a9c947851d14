// hi-opt: the one JSON string escaper every document writer shares
// (store codecs, obs snapshots, campaign reports, CLI reports).
//
// Escapes `"` and `\`, writes \n and \t in their short forms and every
// other control character as \u00XX, and passes all other bytes through
// (UTF-8 stays UTF-8).  Header-only, so leaf libraries such as hi_obs can
// use it without linking anything.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace hi {

/// Appends `s` to `out` as a quoted JSON string.
inline void put_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// `s` as a quoted JSON string.
[[nodiscard]] inline std::string json_string(std::string_view s) {
  std::string out;
  put_json_string(out, s);
  return out;
}

}  // namespace hi

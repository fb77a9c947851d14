// hi-opt: the argv value parsers of the hi_campaign, hi_pareto and
// hi_crowd CLIs.  Each parses one whole argument: an empty string or
// trailing text is a usage error, reported as false.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

namespace hi::cli {

/// Base-10 unsigned integer.
inline bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

/// Floating-point number (strtod syntax).
inline bool parse_f64(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

/// Comma-separated PDRmin values, each in [0, 1]; at least one.
inline bool parse_pdr_list(const std::string& list, std::vector<double>& out) {
  out.clear();
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    double v = 0.0;
    if (!parse_f64(item.c_str(), v) || v < 0.0 || v > 1.0) return false;
    out.push_back(v);
  }
  return !out.empty();
}

}  // namespace hi::cli

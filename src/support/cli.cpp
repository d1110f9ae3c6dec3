#include "support/cli.h"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>

namespace wsp::support {

std::uint64_t parse_count(std::string_view text, std::string_view flag,
                          std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) {
    throw std::invalid_argument(std::string(flag) + " wants an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got '" +
                                std::string(text) + "'");
  }
  return v;
}

double parse_positive(std::string_view text, std::string_view flag) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(v) ||
      v <= 0.0) {
    throw std::invalid_argument(std::string(flag) +
                                " wants a positive finite number, got '" +
                                std::string(text) + "'");
  }
  return v;
}

}  // namespace wsp::support

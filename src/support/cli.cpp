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

FlagValues parse_flags(int argc, const char* const* argv, std::span<const FlagSpec> known) {
  FlagValues values;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    bool takes_value = false;
    bool found = name == "--help" || name == "-h";
    for (const FlagSpec& f : known) {
      if (f.name == name) {
        found = true;
        takes_value = f.takes_value;
      }
    }
    if (!found) {
      throw std::invalid_argument("unknown argument '" + std::string(arg) + "'");
    }
    std::string& value = values[std::string(name)];
    if (!takes_value) {
      if (eq != std::string_view::npos) {
        throw std::invalid_argument(std::string(name) + " takes no value");
      }
      value.clear();
    } else if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (++i < argc) {
      value = argv[i];
    } else {
      throw std::invalid_argument(std::string(name) + " needs a value");
    }
  }
  return values;
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

// Strict command-line parsing for the tools that take engine shape and
// thread counts from outside the program (wspc, replay, the bench binaries).
//
// std::strtoul alone turns "abc" into 0 (for --shards, 0 means "auto", so a
// typo silently made the virtual results host-dependent) and "-1" into
// 4294967295 (a request for billions of worker threads).  These parsers
// accept a value only when the whole text is one in range, and otherwise
// throw std::invalid_argument naming the flag; the tools map that to exit
// code 2.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace wsp::support {

/// Ceiling for --threads and --shards: far above any real core count, far
/// below what would exhaust the process table.
inline constexpr std::uint64_t kMaxCliThreads = 1024;

/// Parses `text` as an unsigned decimal integer in [lo, hi].  Signs, blanks,
/// empty text, trailing characters, overflow and out-of-range values throw
/// std::invalid_argument naming `flag`.
std::uint64_t parse_count(std::string_view text, std::string_view flag,
                          std::uint64_t lo, std::uint64_t hi);

/// One flag a tool accepts: the bare `--name`, or, when `takes_value`,
/// `--name VALUE` or `--name=VALUE`.
struct FlagSpec {
  std::string_view name;
  bool takes_value = false;
};

/// The flags found on a command line: name -> value ("" for a bare flag).
/// A flag given twice keeps its last value.
using FlagValues = std::map<std::string, std::string, std::less<>>;

/// Parses argv[1..argc) against `known`; `--help` and `-h` are always
/// accepted as bare flags.  An argument that is not a known flag (a
/// misspelling such as `--chek`, a stray word), a value flag with no value
/// after it and a bare flag given `=VALUE` throw std::invalid_argument
/// naming it.  Values themselves are not checked.
FlagValues parse_flags(int argc, const char* const* argv, std::span<const FlagSpec> known);

/// Parses `text` as a positive, finite number (e.g. a virtual-cycle
/// interval); anything else throws std::invalid_argument naming `flag`.
double parse_positive(std::string_view text, std::string_view flag);

}  // namespace wsp::support

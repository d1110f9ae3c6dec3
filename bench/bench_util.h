// Shared helpers for the paper-reproduction benchmark binaries.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "support/cli.h"
#include "support/json.h"
#include "support/trace.h"

#ifndef WSP_GIT_REV
#define WSP_GIT_REV "unknown"
#endif

namespace wsp::bench {

/// The banner a benchmark's output starts with.
inline std::string header_text(const std::string& title,
                               const std::string& paper_ref) {
  const std::string rule(58, '=');
  return rule + "\n" + title + "\n(reproduces " + paper_ref + ")\n" + rule + "\n";
}

inline void header(const std::string& title, const std::string& paper_ref) {
  std::fputs(header_text(title, paper_ref).c_str(), stdout);
}

using Clock = std::chrono::steady_clock;

/// Host nanoseconds since `t0`: a measurement's wall_ns.
inline std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// For a benchmark's main(), before it prints or writes anything: parses
/// argv against `known` (support::parse_flags).  `--help` (or `-h`) prints
/// `usage` and exits 0; an unknown or malformed argument prints the error
/// and `usage` to stderr and exits 2, so a misspelt `--chek` cannot
/// silently skip the regression gate.
inline support::FlagValues flags_or_exit(int argc, char** argv,
                                         std::span<const support::FlagSpec> known,
                                         const char* usage) {
  support::FlagValues flags;
  try {
    flags = support::parse_flags(argc, argv, known);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\nusage: %s %s", argv[0], e.what(), argv[0], usage);
    std::exit(2);
  }
  if (flags.contains("--help") || flags.contains("-h")) {
    std::printf("usage: %s %s", argv[0], usage);
    std::exit(0);
  }
  return flags;
}

/// The value of `name`, or `fallback` when it was not given.
inline std::string flag_or(const support::FlagValues& flags, std::string_view name,
                           std::string fallback = "") {
  const auto it = flags.find(name);
  return it == flags.end() ? std::move(fallback) : it->second;
}

/// `--threads`, strictly (support/cli.h): a whole decimal in
/// [1, support::kMaxCliThreads].  A sign, junk, zero or an out-of-range
/// value throws std::invalid_argument naming the flag; `fallback` when the
/// flag is absent.
inline unsigned parse_threads(const support::FlagValues& flags, unsigned fallback = 1) {
  const auto it = flags.find("--threads");
  if (it == flags.end()) return fallback;
  return static_cast<unsigned>(
      support::parse_count(it->second, "--threads", 1, support::kMaxCliThreads));
}

/// parse_threads for a benchmark's main(): on a bad value prints the error
/// and exits with status 2, as wspc does.
inline unsigned threads_or_exit(const support::FlagValues& flags, const char* prog,
                                unsigned fallback) {
  try {
    return parse_threads(flags, fallback);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    std::exit(2);
  }
}

// --- machine-readable bench artifacts (docs/observability.md) --------------
//
// Every figure/table benchmark can serialize its *measured* quantities to
// BENCH_<name>.json so the repo accumulates a perf trajectory across PRs.
// Simulated-cycle metrics are bit-deterministic for a fixed seed; wall_ns
// is the one intentionally non-deterministic field.

struct BenchResult {
  std::string name;                          ///< file suffix: BENCH_<name>.json
  std::map<std::string, std::string> config; ///< seeds, sizes, variants
  std::map<std::string, double> cycles;      ///< deterministic metrics
  std::uint64_t wall_ns = 0;                 ///< host wall time of the measurement
  unsigned threads = 1;
};

inline json::Value to_json(const BenchResult& r) {
  json::Value doc = json::Value::object();
  doc["schema"] = json::Value("wsp-bench-v1");
  doc["name"] = json::Value(r.name);
  json::Value config = json::Value::object();
  for (const auto& [k, v] : r.config) config[k] = json::Value(v);
  doc["config"] = std::move(config);
  json::Value cycles = json::Value::object();
  for (const auto& [k, v] : r.cycles) cycles[k] = json::Value(v);
  doc["cycles"] = std::move(cycles);
  doc["wall_ns"] = json::Value(static_cast<std::uint64_t>(r.wall_ns));
  doc["threads"] = json::Value(static_cast<std::uint64_t>(r.threads));
  doc["git_rev"] = json::Value(std::string(WSP_GIT_REV));
  return doc;
}

/// Writes `<outdir>/BENCH_<name>.json`; returns the path, or "" on failure.
/// The write is temp-file-then-rename: a crash (or full disk) mid-write can
/// tear only the .tmp file, never replace an existing artifact or baseline
/// with a half-written one (docs/recovery.md).
inline std::string write_bench_json(const BenchResult& r,
                                    const std::string& outdir = ".") {
  const std::string path = outdir + "/BENCH_" + r.name + ".json";
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return "";
  const std::string text = to_json(r).dump(1) + "\n";
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return "";
  }
  return path;
}

/// Starts a trace session if `path` (the `--trace FILE` value) is set.
inline void maybe_start_trace(const std::string& path) {
  if (!path.empty()) trace::start();
}

/// Stops the session (if one was started) and writes the Chrome-trace JSON.
inline void maybe_finish_trace(const std::string& path) {
  if (path.empty()) return;
  const auto events = trace::stop();
  if (trace::write_chrome_json(events, path)) {
    std::printf("\ntrace: %zu events -> %s (open in https://ui.perfetto.dev)\n",
                events.size(), path.c_str());
  } else {
    std::fprintf(stderr, "trace: failed to write %s\n", path.c_str());
  }
}

}  // namespace wsp::bench

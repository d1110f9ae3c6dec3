// Shared helpers for the paper-reproduction benchmark binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/cli.h"
#include "support/json.h"
#include "support/trace.h"

#ifndef WSP_GIT_REV
#define WSP_GIT_REV "unknown"
#endif

namespace wsp::bench {

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s)\n", paper_ref.c_str());
  std::printf("==========================================================\n");
}

/// Parses `--threads N` / `--threads=N` strictly (support/cli.h): N must be
/// a whole decimal in [1, support::kMaxCliThreads].  A sign, junk, zero, an
/// out-of-range value or a missing value throws std::invalid_argument naming
/// the flag.  `fallback` when the flag is absent.
inline unsigned parse_threads(int argc, char** argv, unsigned fallback = 1) {
  unsigned value = fallback;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view text;
    if (arg == "--threads") {
      if (i + 1 >= argc) throw std::invalid_argument("--threads needs a value");
      text = argv[++i];
    } else if (arg.starts_with("--threads=")) {
      text = arg.substr(10);
    } else {
      continue;
    }
    value = static_cast<unsigned>(
        support::parse_count(text, "--threads", 1, support::kMaxCliThreads));
  }
  return value;
}

/// parse_threads for a benchmark's main(): on a bad value prints the error
/// and exits with status 2, as wspc does.
inline unsigned threads_or_exit(int argc, char** argv, unsigned fallback) {
  try {
    return parse_threads(argc, argv, fallback);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    std::exit(2);
  }
}

/// Parses `--name VALUE` / `--name=VALUE`; `fallback` when absent.
inline std::string parse_string_flag(int argc, char** argv,
                                     const std::string& name,
                                     const std::string& fallback = "") {
  std::string value = fallback;
  const std::string eq = name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == name && i + 1 < argc) {
      value = argv[i + 1];
    } else if (arg.rfind(eq, 0) == 0) {
      value = arg.substr(eq.size());
    }
  }
  return value;
}

/// True if the bare flag is present.
inline bool parse_bool_flag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (name == argv[i]) return true;
  }
  return false;
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

/// Starts a trace session if `--trace FILE` was passed; returns the path.
inline std::string maybe_start_trace(int argc, char** argv) {
  const std::string path = parse_string_flag(argc, argv, "--trace");
  if (!path.empty()) trace::start();
  return path;
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

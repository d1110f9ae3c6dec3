// wspc — the .wsp scenario compiler driver (docs/scenarios.md).
//
// Usage:
//   wspc check FILE...          compile only; report the first error per file
//   wspc dump FILE              compile and print the lowered traffic program
//   wspc run FILE [options]     compile and execute on the session engine
//
// `run` options:
//   --threads N     worker threads (default 1, at most 1024)
//   --shards N      service shards (default 4, at most 1024; shapes the
//                   virtual model)
//   --queue N       per-shard waiting room (default 64, at most 2^20)
//   --rsa BITS      server key size (default 512, at most 4096)
//   --record FILE   write a wsp-replay-v1 recording (server::RunRecorder)
//                   with the source embedded
//   --checkpoint-every C  append a barrier checkpoint to the
//                   recording every C virtual cycles (docs/recovery.md);
//                   requires --record, and C must be positive and finite
//
// Flags are parsed strictly (support::parse_flags, support/cli.h): an
// unknown flag exits 2, and a sign, a trailing character or an
// out-of-range value exits 2 instead of turning into 0 ("auto" shards) or
// a wrapped count.
//
// Exit codes: 0 success, 1 compile error / leak (diagnostic on stderr), 2
// usage, I/O or argument error, 3 the scenario's scheduled crash fault
// fired — with --record, the recording holds the checkpoints written so far
// (possibly none) and `replay TRACE --resume` recovers it.  Compile
// diagnostics carry file:line:col and a stable Ennn code — `wspc check` is
// what tools/ci/sanitize.sh runs over examples/scenarios/ and
// bench/scenarios/.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/compile.h"
#include "server/engine.h"
#include "server/record.h"
#include "ssl/ssl.h"
#include "support/cli.h"

namespace {

using namespace wsp;

/// Ceiling for --queue: a per-shard waiting room far deeper than any bench
/// scenario needs (scale runs at 32768).
constexpr std::uint64_t kMaxQueue = std::uint64_t{1} << 20;

constexpr support::FlagSpec kRunFlags[] = {
    {"--threads", true}, {"--shards", true}, {"--queue", true},
    {"--rsa", true},     {"--record", true}, {"--checkpoint-every", true}};

constexpr const char* kUsage =
    "usage: wspc check FILE...\n"
    "       wspc dump FILE\n"
    "       wspc run FILE [--threads N] [--shards N] [--queue N]\n"
    "                     [--rsa BITS] [--record FILE]\n"
    "                     [--checkpoint-every CYCLES]\n";

int usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

void dump_phase(const server::TrafficPhase& ph) {
  std::printf("  phase '%s': %zu sessions, %s", ph.name.c_str(), ph.sessions,
              ph.model == server::ArrivalModel::kOpenLoop ? "open loop"
                                                          : "closed loop");
  if (ph.model == server::ArrivalModel::kOpenLoop) {
    std::printf(", load %.3f", ph.offered_load);
  } else {
    std::printf(", %u users, think %.0f cycles", ph.users, ph.think_cycles);
  }
  std::printf(", resume %.2f\n", ph.resume_fraction);
  std::printf("    mix:");
  for (const server::CipherMix& m : ph.cipher_mix) {
    std::printf(" %s:%u", ssl::to_string(m.cipher), m.weight);
  }
  std::printf("\n    sizes:");
  for (const server::SizeMix& m : ph.size_mix) {
    std::printf(" %zu:%u", m.bytes, m.weight);
  }
  std::printf("\n");
  if (ph.faults) {
    std::printf("    faults: flip %.3g, hs-fail %.3g, abort %.3g, stall %.3g"
                " (%.0f cycles), budgets %u/%u, backoff %.0f..%.0f\n",
                ph.faults->wire_flip_rate, ph.faults->handshake_failure_rate,
                ph.faults->abort_rate, ph.faults->stall_rate,
                ph.faults->stall_cycles, ph.faults->record_retry_budget,
                ph.faults->handshake_retry_budget,
                ph.faults->backoff_base_cycles, ph.faults->backoff_cap_cycles);
  }
}

int cmd_check(const std::vector<std::string>& files) {
  int failures = 0;
  for (const std::string& f : files) {
    try {
      scenario::compile_file(f);
      std::printf("%s: OK\n", f.c_str());
    } catch (const scenario::ScenarioError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      ++failures;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wspc: %s\n", e.what());
      return 2;
    }
  }
  return failures == 0 ? 0 : 1;
}

int cmd_dump(const std::string& file) {
  scenario::CompiledScenario compiled;
  try {
    compiled = scenario::compile_file(file);
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wspc: %s\n", e.what());
    return 2;
  }
  const server::TrafficScenario& sc = compiled.scenario;
  std::printf("scenario '%s': seed %llu, record_bytes %zu, %zu phases, "
              "%zu total sessions\n",
              compiled.name.c_str(),
              static_cast<unsigned long long>(sc.seed), sc.record_bytes,
              sc.phases.size(), sc.total_sessions());
  for (const server::TrafficPhase& ph : sc.phases) dump_phase(ph);
  return 0;
}

int cmd_run(const std::string& file, int argc, char** argv) {
  server::EngineConfig cfg;
  cfg.threads = 1;
  cfg.shards = 4;
  std::string record_path;
  try {
    // argv[0] is FILE; parse_flags reads the flags after it.
    const support::FlagValues flags = support::parse_flags(argc, argv, kRunFlags);
    if (flags.contains("--help") || flags.contains("-h")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    for (const auto& [flag, value] : flags) {
      if (flag == "--threads") {
        cfg.threads = static_cast<unsigned>(
            support::parse_count(value, flag, 1, support::kMaxCliThreads));
      } else if (flag == "--shards") {
        cfg.shards = static_cast<unsigned>(
            support::parse_count(value, flag, 1, support::kMaxCliThreads));
      } else if (flag == "--queue") {
        cfg.queue_capacity = support::parse_count(value, flag, 1, kMaxQueue);
      } else if (flag == "--rsa") {
        cfg.rsa_bits = support::parse_count(value, flag, 512, 4096);
      } else if (flag == "--record") {
        record_path = value;
      } else if (flag == "--checkpoint-every") {
        cfg.checkpoint_every = support::parse_positive(value, flag);
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "wspc: %s\n%s", e.what(), kUsage);
    return 2;
  }
  if (cfg.checkpoint_every > 0.0 && record_path.empty()) {
    std::fprintf(stderr, "wspc: --checkpoint-every needs --record "
                         "(checkpoints live in the recording)\n");
    return 2;
  }

  scenario::CompiledScenario compiled;
  try {
    compiled = scenario::compile_file(file);
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wspc: %s\n", e.what());
    return 2;
  }

  try {
    // --record runs through the one trace writer: inputs first, each
    // checkpoint flushed as the run goes, so a crash leaves a resumable
    // (torn) trace behind — with no checkpoints, one that restarts.
    std::optional<server::RunRecorder> recorder;
    if (!record_path.empty()) {
      recorder.emplace(cfg, compiled.scenario, compiled.source, record_path);
      if (!recorder->ok()) {
        std::fprintf(stderr, "wspc: %s\n", recorder->error().c_str());
        return 2;
      }
    }
    server::RunReport report;
    try {
      server::Engine engine(recorder ? recorder->engine_config() : cfg);
      report = engine.run(compiled.scenario);
    } catch (const server::CrashFault& e) {
      if (!recorder) {
        // Without --record nothing is left to resume from; the distinct
        // exit code still tells the caller what happened.
        std::fprintf(stderr, "wspc: %s (no recording to resume from)\n",
                     e.what());
        return 3;
      }
      recorder->crash();
      std::fprintf(stderr,
                   "wspc: %s\n  %s holds %zu checkpoint(s); recover with "
                   "`replay %s --resume`\n",
                   e.what(), record_path.c_str(), recorder->checkpoints(),
                   record_path.c_str());
      return 3;
    }
    if (recorder) {
      if (!recorder->finish(report)) {
        std::fprintf(stderr, "wspc: %s\n", recorder->error().c_str());
        return 2;
      }
      std::printf("recorded %s (%zu checkpoints)\n", record_path.c_str(),
                  recorder->checkpoints());
    }
    std::printf("scenario '%s': offered %llu, admitted %llu, completed %llu, "
                "aborted %llu, dropped %llu\n",
                compiled.name.c_str(),
                static_cast<unsigned long long>(report.offered),
                static_cast<unsigned long long>(report.admitted),
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.aborted),
                static_cast<unsigned long long>(report.dropped));
    std::printf("  throughput %.4f sessions/Gcycle, makespan %.1f Mcycles, "
                "p99 latency %.1f Kcycles\n",
                report.throughput_per_gcycle, report.makespan_cycles / 1e6,
                report.latency.p99 / 1e3);
    std::printf("  faults %llu, retried %llu, repaired %llu, records %llu, "
                "wire %llu bytes\n",
                static_cast<unsigned long long>(report.faults_injected),
                static_cast<unsigned long long>(report.retried),
                static_cast<unsigned long long>(report.repaired),
                static_cast<unsigned long long>(report.records),
                static_cast<unsigned long long>(report.wire_bytes));
    // Session-leak invariant: every admitted session must reach a terminal
    // state.  A violation is an engine bug, so CI smokes can gate on it.
    if (report.completed + report.aborted != report.admitted) {
      std::fprintf(stderr,
                   "wspc: session leak: admitted %llu != completed %llu + "
                   "aborted %llu\n",
                   static_cast<unsigned long long>(report.admitted),
                   static_cast<unsigned long long>(report.completed),
                   static_cast<unsigned long long>(report.aborted));
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wspc: %s\n", e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "check") {
    std::vector<std::string> files;
    for (int i = 2; i < argc; ++i) files.emplace_back(argv[i]);
    return cmd_check(files);
  }
  if (cmd == "dump") {
    if (argc != 3) return usage();
    return cmd_dump(argv[2]);
  }
  if (cmd == "run") {
    return cmd_run(argv[2], argc - 2, argv + 2);
  }
  return usage();
}

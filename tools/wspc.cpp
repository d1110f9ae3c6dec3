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
//   --record FILE   write a wsp-replay-v1 recording with the source embedded
//   --checkpoint-every C  append a barrier checkpoint to the
//                   recording every C virtual cycles (docs/recovery.md);
//                   requires --record, and C must be positive and finite
//   --resume-from TRACE   crash recovery: scan TRACE (possibly torn),
//                   restore its last valid checkpoint and continue; the
//                   run comes from the trace's lowered scenario, so FILE is
//                   only compiled to validate it.  Engine shape flags are
//                   ignored (the recorded config wins); --threads applies.
//
// Numeric values are parsed strictly (support/cli.h): a sign, a trailing
// character or an out-of-range value exits 2 instead of turning into 0
// ("auto" shards) or a wrapped count.
//
// Exit codes: 0 success, 1 compile error / leak / resume mismatch
// (diagnostic on stderr), 2 usage, I/O or argument error, 3 the scenario's
// scheduled crash fault fired — the recording holds the checkpoints written
// so far and `wspc run FILE --resume-from TRACE` (or `replay TRACE
// --resume`) recovers it.  Compile diagnostics carry file:line:col and a
// stable Ennn code — `wspc check` is what tools/ci/sanitize.sh runs over
// examples/scenarios/ and bench/scenarios/.
#include <cstdint>
#include <cstdio>
#include <exception>
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

int usage() {
  std::fprintf(stderr,
               "usage: wspc check FILE...\n"
               "       wspc dump FILE\n"
               "       wspc run FILE [--threads N] [--shards N] [--queue N]\n"
               "                     [--rsa BITS] [--record FILE]\n"
               "                     [--checkpoint-every CYCLES]\n"
               "                     [--resume-from TRACE]\n");
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

int cmd_run(const std::string& file, int argc, char** argv, int i) {
  server::EngineConfig cfg;
  cfg.threads = 1;
  cfg.shards = 4;
  std::string record_path;
  std::string resume_path;
  try {
    for (; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--threads") {
        cfg.threads = static_cast<unsigned>(
            support::parse_count(next(), arg, 1, support::kMaxCliThreads));
      } else if (arg == "--shards") {
        cfg.shards = static_cast<unsigned>(
            support::parse_count(next(), arg, 1, support::kMaxCliThreads));
      } else if (arg == "--queue") {
        cfg.queue_capacity = support::parse_count(next(), arg, 1, kMaxQueue);
      } else if (arg == "--rsa") {
        cfg.rsa_bits = support::parse_count(next(), arg, 512, 4096);
      } else if (arg == "--record") {
        record_path = next();
      } else if (arg == "--checkpoint-every") {
        cfg.checkpoint_every = support::parse_positive(next(), arg);
      } else if (arg == "--resume-from") {
        resume_path = next();
      } else {
        return usage();
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "wspc: %s\n", e.what());
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
    server::RunReport report;
    if (!resume_path.empty()) {
      // Crash recovery: the run comes from the trace's lowered scenario
      // and recorded config; only --threads applies on top.
      const server::ResumeScan scan =
          server::scan_trace_for_resume(replay::read_file(resume_path));
      std::printf("resuming %s: %zu checkpoint(s), %s%s%s\n",
                  resume_path.c_str(), scan.checkpoints.size(),
                  scan.complete ? "complete trace" : "torn trace",
                  scan.tear.empty() ? "" : "; tear: ", scan.tear.c_str());
      const server::ReplayResult res =
          server::resume_run(scan, cfg.threads);
      if (!res.ok()) {
        std::fprintf(stderr, "wspc: resume diverged from the recording: "
                             "%zu mismatches\n",
                     res.mismatches.size());
        for (const std::string& m : res.mismatches) {
          std::fprintf(stderr, "  %s\n", m.c_str());
        }
        return 1;
      }
      report = res.report;
    } else if (!record_path.empty()) {
      if (cfg.checkpoint_every > 0.0) {
        // Incremental recording: each checkpoint is flushed to the file as
        // the run goes, so a crash leaves a resumable trace behind.
        server::RunRecorder recorder(cfg, compiled.scenario, compiled.source,
                                     record_path);
        try {
          server::Engine engine(recorder.engine_config());
          report = engine.run(compiled.scenario);
        } catch (const server::CrashFault& e) {
          recorder.crash();
          std::fprintf(stderr,
                       "wspc: %s\n  %s holds %zu checkpoint(s); recover "
                       "with `wspc run %s --resume-from %s`\n",
                       e.what(), record_path.c_str(), recorder.checkpoints(),
                       file.c_str(), record_path.c_str());
          return 3;
        }
        if (!recorder.finish(report)) {
          std::fprintf(stderr, "wspc: %s\n", recorder.error().c_str());
          return 2;
        }
        std::printf("recorded %s (%zu checkpoints)\n", record_path.c_str(),
                    recorder.checkpoints());
      } else {
        const server::RunRecord rec =
            server::record_run(cfg, compiled.scenario, compiled.source);
        if (!server::write_run_record_file(rec, record_path)) {
          std::fprintf(stderr, "wspc: cannot write %s\n", record_path.c_str());
          return 2;
        }
        report = rec.report;
        std::printf("recorded %s\n", record_path.c_str());
      }
    } else {
      server::Engine engine(cfg);
      report = engine.run(compiled.scenario);
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
  } catch (const server::CrashFault& e) {
    // A crash without --record --checkpoint-every leaves nothing to resume
    // from; the distinct exit code still tells the caller what happened.
    std::fprintf(stderr, "wspc: %s (no recording to resume from)\n", e.what());
    return 3;
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
    return cmd_run(argv[2], argc, argv, 3);
  }
  return usage();
}

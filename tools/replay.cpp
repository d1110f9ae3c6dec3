// Replays a recorded engine run (server/record.h, format wsp-replay-v1) and
// verifies the outcome bit-exactly: every deterministic RunReport field,
// per-shard event digest and per-session event must match the recording.
// Because the engine's determinism contract excludes thread count, the
// replay may run at any --threads value — replaying a chaos failure
// recorded at --threads 8 under a single thread (or a debugger) is the
// point of the format.
//
// A plain replay reads the trace strictly (decode_run_record), so a torn
// trace is refused.  Crash recovery (docs/recovery.md) is --resume, the one
// resume CLI: it scans a possibly-torn trace — one a crashed run left
// without its end tag, or with a partially-written checkpoint chunk at the
// tail — restores the last valid checkpoint and continues the run.  Both
// re-run through server::resume_run.  For a complete trace the outcome is
// verified against the recording; for a torn trace there is no recorded
// outcome, so the resumed report is printed instead.
//
// Usage: replay TRACE_FILE [--threads N] [--dump | --resume]
//   --threads N   re-run with N worker threads, 1..1024 (default: as
//                 recorded, capped at this host's hardware threads)
//   --dump        print the recorded header/summary, do not re-run
//   --resume      crash recovery: restore the last valid checkpoint
//
// Flags are parsed strictly (support::parse_flags): an unknown flag, a
// missing value, an invalid --threads or --dump with --resume exits 2;
// --help prints usage.
//
// Exit codes: 0 replay/resume verified, 1 mismatch or a leaked session
// (completed + aborted != admitted), 2 usage error, invalid --threads, or
// unreadable/invalid trace (for --resume: damage before the input chunks
// completed).
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/record.h"
#include "server/traffic.h"
#include "ssl/ssl.h"
#include "support/cli.h"

namespace {

using namespace wsp;

constexpr support::FlagSpec kFlags[] = {
    {"--threads", true}, {"--dump", false}, {"--resume", false}};

constexpr const char* kUsage =
    "usage: replay TRACE_FILE [--threads N] [--dump | --resume]\n";

void dump_record(const server::RunRecord& rec) {
  const server::RunReport& r = rec.report;
  std::printf("wsp-replay-v1 run record\n");
  std::printf("  recorded at git_rev %s on %u threads\n", rec.git_rev.c_str(),
              rec.recorded_threads);
  std::printf("  scenario: seed %llu, record %zu bytes, %zu phases, %zu "
              "total sessions\n",
              static_cast<unsigned long long>(rec.scenario.seed),
              rec.scenario.record_bytes, rec.scenario.phases.size(),
              rec.scenario.total_sessions());
  for (const server::TrafficPhase& ph : rec.scenario.phases) {
    std::printf("    phase '%s': %zu sessions, %s, %s%.2f, resume %.2f%s\n",
                ph.name.c_str(), ph.sessions,
                ph.model == server::ArrivalModel::kOpenLoop ? "open loop"
                                                            : "closed loop",
                ph.model == server::ArrivalModel::kOpenLoop ? "load "
                                                            : "users ",
                ph.model == server::ArrivalModel::kOpenLoop
                    ? ph.offered_load
                    : static_cast<double>(ph.users),
                ph.resume_fraction, ph.faults ? ", fault overlay" : "");
    std::printf("      ciphers:");
    for (const server::CipherMix& m : ph.cipher_mix) {
      std::printf(" %s:%u", ssl::to_string(m.cipher), m.weight);
    }
    std::printf("\n");
  }
  if (!rec.scenario_source.empty()) {
    std::printf("  scenario source (.wsp, %zu bytes):\n",
                rec.scenario_source.size());
    // Indent each line so the embedded text reads as a quoted block.
    std::size_t start = 0;
    while (start < rec.scenario_source.size()) {
      std::size_t end = rec.scenario_source.find('\n', start);
      if (end == std::string::npos) end = rec.scenario_source.size();
      std::printf("    %.*s\n", static_cast<int>(end - start),
                  rec.scenario_source.c_str() + start);
      start = end + 1;
    }
  } else {
    std::printf("  scenario source: none (legacy trace or hand-built "
                "scenario)\n");
  }
  std::printf("  engine: %u shards, queue %zu, batch %zu, rsa %zu, "
              "degrade depth %zu%s\n",
              rec.config.shards, rec.config.queue_capacity,
              rec.config.record_batch, rec.config.rsa_bits,
              rec.config.degrade_depth,
              rec.config.faults.enabled() ? ", faults on" : "");
  std::printf("  outcome: offered %llu, admitted %llu, completed %llu, "
              "aborted %llu, dropped %llu\n",
              static_cast<unsigned long long>(r.offered),
              static_cast<unsigned long long>(r.admitted),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.aborted),
              static_cast<unsigned long long>(r.dropped));
  std::printf("  faults %llu, retried %llu, repaired %llu, shed %llu, "
              "degrade enters %llu\n",
              static_cast<unsigned long long>(r.faults_injected),
              static_cast<unsigned long long>(r.retried),
              static_cast<unsigned long long>(r.repaired),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.degrade_enters));
  std::printf("  throughput %.4f sessions/Gcycle, makespan %.1f Mcycles, "
              "bytes digest %08x\n",
              r.throughput_per_gcycle, r.makespan_cycles / 1e6,
              r.bytes_digest);
  std::printf("  %zu session events across %zu shards\n", r.events.size(),
              r.shards.size());
  for (std::size_t s = 0; s < r.shards.size(); ++s) {
    std::printf("    shard %zu: events digest %016llx (%llu sessions)\n", s,
                static_cast<unsigned long long>(r.shards[s].events_digest),
                static_cast<unsigned long long>(r.shards[s].admitted));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // TRACE_FILE comes first; parse_flags reads the flags after it.
  const int skip = argc >= 2 && argv[1][0] != '-' ? 1 : 0;
  support::FlagValues flags;
  unsigned threads = 0;
  try {
    flags = support::parse_flags(argc - skip, argv + skip, kFlags);
    if (const auto it = flags.find("--threads"); it != flags.end()) {
      threads = static_cast<unsigned>(support::parse_count(
          it->second, "--threads", 1, support::kMaxCliThreads));
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "replay: %s\n%s", e.what(), kUsage);
    return 2;
  }
  if (flags.contains("--help") || flags.contains("-h")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (flags.contains("--dump") && flags.contains("--resume")) {
    std::fprintf(stderr, "replay: --dump and --resume exclude each other\n%s",
                 kUsage);
    return 2;
  }
  if (skip == 0) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string path = argv[1];
  const bool resume = flags.contains("--resume");
  const char* const mode = resume ? "resume" : "replay";

  // Plain replay reads the trace strictly and re-runs it from its inputs;
  // --resume reads it leniently and keeps the checkpoints it found.
  server::ResumeScan scan;
  try {
    const std::vector<std::uint8_t> bytes = wsp::replay::read_file(path);
    if (resume) {
      scan = server::scan_trace_for_resume(bytes);
    } else {
      scan = {.record = server::decode_run_record(bytes), .complete = true};
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", mode, path.c_str(), e.what());
    return 2;
  }
  const unsigned run_threads =
      server::replay_threads(scan.record.recorded_threads, threads);

  if (!resume) {
    if (flags.contains("--dump")) {
      dump_record(scan.record);
      return 0;
    }
    std::printf("replaying %s (recorded at %s, %zu sessions) on %u "
                "threads...\n",
                path.c_str(), scan.record.git_rev.c_str(),
                scan.record.scenario.total_sessions(), run_threads);
  } else {
    std::printf("scanned %s: %zu bytes, %zu checkpoint%s, %s\n", path.c_str(),
                scan.scanned_bytes, scan.checkpoints.size(),
                scan.checkpoints.size() == 1 ? "" : "s",
                scan.complete ? "complete trace" : "torn trace");
    if (!scan.tear.empty()) std::printf("  tear: %s\n", scan.tear.c_str());
    if (!scan.checkpoints.empty()) {
      const server::EngineCheckpoint& cp = scan.checkpoints.back();
      std::printf("resuming from checkpoint %llu at virtual cycle %.1f "
                  "(%llu of the run's arrivals already offered) on %u "
                  "threads...\n",
                  static_cast<unsigned long long>(cp.seq), cp.virtual_now,
                  static_cast<unsigned long long>(cp.offered), run_threads);
    } else {
      std::printf("no usable checkpoint; restarting the run from the "
                  "beginning on %u threads...\n",
                  run_threads);
    }
  }

  server::ReplayResult result;
  try {
    result = server::resume_run(scan, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", mode, path.c_str(), e.what());
    return 2;
  }
  if (!result.ok()) {
    std::fprintf(stderr, "%s FAILED: %zu mismatches\n", mode,
                 result.mismatches.size());
    for (const std::string& m : result.mismatches) {
      std::fprintf(stderr, "  %s\n", m.c_str());
    }
    return 1;
  }
  const server::RunReport& r = result.report;
  if (r.completed + r.aborted != r.admitted) {
    // The leak invariant: a torn trace has no recorded outcome to verify
    // against, so this is the gate that still holds for it.
    std::fprintf(stderr,
                 "%s FAILED: leaked sessions (admitted %llu != completed "
                 "%llu + aborted %llu)\n",
                 mode, static_cast<unsigned long long>(r.admitted),
                 static_cast<unsigned long long>(r.completed),
                 static_cast<unsigned long long>(r.aborted));
    return 1;
  }
  if (!resume) {
    std::printf("replay OK: RunReport, %zu shard digests and %zu session "
                "events bit-identical\n",
                r.shards.size(), r.events.size());
    return 0;
  }
  std::printf("resume OK: offered %llu, admitted %llu, completed %llu, "
              "aborted %llu, dropped %llu%s\n",
              static_cast<unsigned long long>(r.offered),
              static_cast<unsigned long long>(r.admitted),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.aborted),
              static_cast<unsigned long long>(r.dropped),
              scan.complete
                  ? " — verified bit-identical against the recording"
                  : " (torn trace: no recorded outcome to verify against)");
  return 0;
}

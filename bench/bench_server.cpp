// Secure-session server engine under deterministic traffic: the Fig. 8
// transaction model served concurrently instead of one transaction at a
// time.  Reports throughput, latency percentiles and drop accounting on the
// platform-cycle (virtual) timeline, plus the total crypto work priced
// through the base and optimized platform cost models.
//
// Determinism contract (docs/server.md): for a fixed --seed, every metric
// printed under "deterministic" — completed sessions, per-session byte
// totals (pinned by the digest), latency percentiles, platform-equivalent
// cycles — is identical for ANY --threads value.
//
// Flags:
//   --threads N     worker threads (default: hardware)
//   --seed S        scenario seed (default 71)
//   --sessions N    arrivals per scenario (default 96)
//   --shards N      table/scheduler/service shards (default 4)
//   --queue-cap N   per-shard waiting room for the steady/closed runs
//   --scenario S    steady|overload|closed|chaos|crash|scale|all
//                   (default all)
//   --scale-sessions N  arrivals for the scale scenario (default 100000)
//   --scale-sweep   sweep the scale scenario 100k -> 1M (overrides
//                   --scale-sessions; the 1M point takes a few seconds)
//   --outdir DIR    write BENCH_server.json here (default ".")
//   --record-dir D  also write a wsp-replay-v1 trace per scenario
//                   (REPLAY_server_<scenario>.wspr; replay with tools/replay)
//   --scenario-file F  compile and run a .wsp traffic program
//                   (docs/scenarios.md) under the same engine config;
//                   metrics appear under wsp/<name>/ and a recording (when
//                   --record-dir is set) embeds the scenario source
//   --checkpoint-every C  quiesce-barrier interval in virtual cycles for the
//                   crash scenario (default: derived, 1/7 of the reference
//                   makespan); must be a positive finite number
//   --trace FILE    write a Chrome-trace of this run
//
// Exit codes: 0 success, 1 gate failure (leak, missing drops/faults,
// determinism mismatch, unwritable artifact), 2 invalid flag.  Torn traces
// resume through `tools/replay TRACE --resume` or `wspc run --resume-from`
// (docs/recovery.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "scenario/compile.h"
#include "server/record.h"
#include "server_section.h"
#include "support/rss.h"

namespace {

using namespace wsp;

void print_report(const char* name, const server::RunReport& rep) {
  std::printf("\n--- %s ---\n", name);
  std::printf("  offered %llu | admitted %llu | completed %llu | dropped %llu\n",
              static_cast<unsigned long long>(rep.offered),
              static_cast<unsigned long long>(rep.admitted),
              static_cast<unsigned long long>(rep.completed),
              static_cast<unsigned long long>(rep.dropped));
  std::printf("  records %llu, wire bytes %llu, digest %08x\n",
              static_cast<unsigned long long>(rep.records),
              static_cast<unsigned long long>(rep.wire_bytes),
              rep.bytes_digest);
  std::printf("  latency (Mcycles): p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
              rep.latency.p50 / 1e6, rep.latency.p90 / 1e6,
              rep.latency.p99 / 1e6, rep.latency.max / 1e6);
  std::printf("  throughput %.2f sessions/Gcycle over %.1f Mcycles makespan\n",
              rep.throughput_per_gcycle, rep.makespan_cycles / 1e6);
  std::printf("  queue depth peak %zu (virtual), %zu (real); live sessions peak %zu\n",
              rep.peak_virtual_depth, rep.peak_real_depth, rep.peak_sessions);
  std::printf("  platform-equivalent: base %.1f Mcycles vs opt %.1f Mcycles -> %.2fX\n",
              rep.platform_cycles_base / 1e6,
              rep.platform_cycles_optimized / 1e6, rep.equivalent_speedup);
  if (rep.faults_injected > 0 || rep.aborted > 0 || rep.degrade_enters > 0) {
    std::printf("  faults %llu -> retried %llu, repaired %llu, aborted %llu; "
                "shed %llu, degrade enters %llu\n",
                static_cast<unsigned long long>(rep.faults_injected),
                static_cast<unsigned long long>(rep.retried),
                static_cast<unsigned long long>(rep.repaired),
                static_cast<unsigned long long>(rep.aborted),
                static_cast<unsigned long long>(rep.shed),
                static_cast<unsigned long long>(rep.degrade_enters));
  }
  std::printf("  host: %.1f ms wall on %u threads, %llu backpressure waits\n",
              static_cast<double>(rep.wall_ns) / 1e6, rep.threads,
              static_cast<unsigned long long>(rep.backpressure_waits));
}

/// The chaos leak gate: every admitted session must end as exactly one of
/// completed or aborted.  A violation means a session leaked (wedged shard,
/// swallowed exception) and fails the bench run.
bool sessions_leaked(const server::RunReport& rep) {
  return rep.completed + rep.aborted != rep.admitted;
}

/// A checkpoint interval must be a positive, finite virtual-cycle count
/// (wspc run applies the same rule to its --checkpoint-every).
double parse_checkpoint_every(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
    throw std::invalid_argument(
        "--checkpoint-every wants a positive virtual-cycle count, got '" +
        text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsp;
  bench::header("Secure-session server engine: concurrent SSL transactions",
                "paper Fig. 8 workload under load; docs/server.md");

  const unsigned threads =
      bench::parse_threads(argc, argv, ThreadPool::hardware_threads());
  const auto seed = static_cast<std::uint64_t>(std::strtoull(
      bench::parse_string_flag(argc, argv, "--seed", "71").c_str(), nullptr, 10));
  const auto sessions = static_cast<std::size_t>(std::strtoull(
      bench::parse_string_flag(argc, argv, "--sessions", "96").c_str(), nullptr,
      10));
  const auto shards = static_cast<unsigned>(std::strtoul(
      bench::parse_string_flag(argc, argv, "--shards", "4").c_str(), nullptr,
      10));
  const auto queue_cap = static_cast<std::size_t>(std::strtoull(
      bench::parse_string_flag(argc, argv, "--queue-cap", "64").c_str(),
      nullptr, 10));
  const std::string which =
      bench::parse_string_flag(argc, argv, "--scenario", "all");
  const auto scale_sessions = static_cast<std::size_t>(std::strtoull(
      bench::parse_string_flag(argc, argv, "--scale-sessions", "100000")
          .c_str(),
      nullptr, 10));
  const bool scale_sweep = bench::parse_bool_flag(argc, argv, "--scale-sweep");
  const std::string outdir =
      bench::parse_string_flag(argc, argv, "--outdir", ".");
  const std::string record_dir =
      bench::parse_string_flag(argc, argv, "--record-dir");
  const std::string scenario_file =
      bench::parse_string_flag(argc, argv, "--scenario-file");
  const std::string checkpoint_every_text =
      bench::parse_string_flag(argc, argv, "--checkpoint-every");
  double checkpoint_every = 0.0;  // 0 = derive from the reference makespan
  if (!checkpoint_every_text.empty()) {
    try {
      checkpoint_every = parse_checkpoint_every(checkpoint_every_text);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bench_server: %s\n", e.what());
      return 2;
    }
  }

  const std::string trace_path = bench::maybe_start_trace(argc, argv);

  int record_failures = 0;
  // Runs one scenario, optionally leaving a bit-exact replay trace behind
  // (docs/benchmarks.md): any number printed below can be reproduced from
  // that one file via tools/replay, at any --threads value.  A non-empty
  // `source` is the .wsp text the scenario was compiled from; it rides
  // along in the recording (RecordChunk::kScenarioSource).
  const auto run_scenario = [&](const server::EngineConfig& cfg_in,
                                const server::TrafficScenario& scenario,
                                const char* name,
                                const std::string& source = {}) {
    if (record_dir.empty()) {
      server::Engine engine(cfg_in);
      return engine.run(scenario);
    }
    server::RunRecord rec = server::record_run(cfg_in, scenario, source);
    const std::string path =
        record_dir + "/REPLAY_server_" + name + ".wspr";
    if (server::write_run_record_file(rec, path)) {
      std::printf("  recorded %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "FAILED to write %s\n", path.c_str());
      ++record_failures;
    }
    return std::move(rec.report);
  };

  server::EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = shards;
  cfg.queue_capacity = queue_cap;

  bench::BenchResult result;
  result.name = "server";
  result.threads = threads;
  result.config = {{"seed", std::to_string(seed)},
                   {"sessions", std::to_string(sessions)},
                   {"shards", std::to_string(shards)},
                   {"queue_cap", std::to_string(queue_cap)},
                   {"rsa_bits", std::to_string(cfg.rsa_bits)},
                   {"scale_sessions", std::to_string(scale_sessions)}};

  std::printf("\n%u threads, %u shards, queue capacity %zu, %zu sessions/run\n",
              threads, shards, queue_cap, sessions);

  if (which == "all" || which == "steady") {
    const auto rep =
        run_scenario(cfg, bench::steady_scenario(seed, sessions), "steady");
    print_report("steady (open loop, 0.6x capacity)", rep);
    bench::append_server_metrics(result, "steady/", rep);
  }
  if (which == "all" || which == "overload") {
    server::EngineConfig over = cfg;
    over.queue_capacity = std::min<std::size_t>(queue_cap, 16);
    const auto rep = run_scenario(
        over, bench::overload_scenario(seed + 1, sessions), "overload");
    print_report("overload (open loop, 2.5x capacity)", rep);
    bench::append_server_metrics(result, "overload/", rep);
    if (rep.dropped == 0) {
      std::fprintf(stderr, "overload scenario produced no drops — "
                           "admission control broken\n");
      return 1;
    }
  }
  if (which == "all" || which == "closed") {
    const auto rep = run_scenario(
        cfg, bench::closed_scenario(seed + 2, sessions / 2, 2 * shards),
        "closed");
    print_report("closed loop (fixed user population)", rep);
    bench::append_server_metrics(result, "closed/", rep);
  }
  if (which == "all" || which == "chaos") {
    server::EngineConfig chaos = cfg;
    chaos.faults = bench::chaos_fault_config();
    chaos.degrade_depth = 3 * shards;  // degrade under fault-induced pileups
    const auto rep =
        run_scenario(chaos, bench::chaos_scenario(seed + 3, sessions), "chaos");
    print_report("chaos (steady load, 3-5% fault rates)", rep);
    bench::append_server_metrics(result, "chaos/", rep);
    if (sessions_leaked(rep)) {
      std::fprintf(stderr,
                   "chaos scenario leaked sessions: admitted %llu != "
                   "completed %llu + aborted %llu\n",
                   static_cast<unsigned long long>(rep.admitted),
                   static_cast<unsigned long long>(rep.completed),
                   static_cast<unsigned long long>(rep.aborted));
      return 1;
    }
    if (rep.faults_injected == 0) {
      std::fprintf(stderr, "chaos scenario injected no faults — "
                           "fault plan broken\n");
      return 1;
    }
  }
  if (which == "all" || which == "crash") {
    // Crash-fault tolerance (docs/recovery.md): chaos traffic with periodic
    // quiesce-barrier checkpoints and a scheduled kill at 60% of the
    // reference makespan.  The torn trace is resumed at a different thread
    // count; the hard gate is bit-identity with the uninterrupted run.
    server::EngineConfig ccfg = cfg;
    ccfg.faults = bench::chaos_fault_config();
    ccfg.degrade_depth = 3 * shards;
    const auto scenario = bench::chaos_scenario(seed + 6, sessions);
    server::Engine ref_engine(ccfg);
    const server::RunReport ref = ref_engine.run(scenario);

    server::EngineConfig crash_cfg = ccfg;
    crash_cfg.checkpoint_every = checkpoint_every > 0.0
                                     ? checkpoint_every
                                     : ref.makespan_cycles / 7.0;
    crash_cfg.faults.crash_at_cycles = ref.makespan_cycles * 0.6;
    const std::string crash_trace =
        record_dir.empty() ? std::string()
                           : record_dir + "/REPLAY_server_crash.wspr";
    server::RunRecorder recorder(crash_cfg, scenario, {}, crash_trace);
    bool crash_seen = false;
    try {
      server::Engine engine(recorder.engine_config());
      recorder.finish(engine.run(scenario));
    } catch (const server::CrashFault& e) {
      crash_seen = true;
      recorder.crash();
      std::printf("\n--- crash ---\n  %s\n", e.what());
    }
    if (!crash_seen || recorder.checkpoints() == 0 || !recorder.ok()) {
      std::fprintf(stderr,
                   "crash scenario: expected a mid-run crash with prior "
                   "checkpoints (crashed=%d, checkpoints=%zu, recorder %s)\n",
                   crash_seen ? 1 : 0, recorder.checkpoints(),
                   recorder.ok() ? "ok" : recorder.error().c_str());
      return 1;
    }
    if (!crash_trace.empty()) {
      std::printf("  recorded torn trace %s (%zu checkpoints)\n",
                  crash_trace.c_str(), recorder.checkpoints());
    }
    const auto scan = server::scan_trace_for_resume(recorder.bytes());
    const unsigned resume_threads = threads == 1 ? 2 : 1;
    const auto res = server::resume_run(scan, resume_threads);
    print_report(("crash -> resume (checkpoint " +
                  std::to_string(scan.checkpoints.size() - 1) + ", " +
                  std::to_string(resume_threads) + " threads)")
                     .c_str(),
                 res.report);
    const bool resume_ok =
        bench::reports_deterministically_equal(ref, res.report);
    // Torn write on top: tear into the last checkpoint chunk's header so
    // the scan must reject it and fall back one checkpoint.
    std::vector<std::uint8_t> torn(recorder.bytes());
    torn.resize(recorder.checkpoint_offsets().back() + 9);
    const auto torn_scan = server::scan_trace_for_resume(torn);
    const auto torn_res = server::resume_run(torn_scan, threads);
    const bool torn_ok =
        !torn_scan.tear.empty() &&
        torn_scan.checkpoints.size() + 1 == recorder.checkpoints() &&
        bench::reports_deterministically_equal(ref, torn_res.report);
    std::printf("  resume identical: %s; torn-tail fallback identical: %s\n",
                resume_ok ? "yes" : "NO", torn_ok ? "yes" : "NO");
    bench::append_server_metrics(result, "crash/", res.report);
    result.cycles["crash/checkpoints"] =
        static_cast<double>(recorder.checkpoints());
    result.cycles["crash/resume_mismatch"] = resume_ok ? 0.0 : 1.0;
    result.cycles["crash/torn_resume_mismatch"] = torn_ok ? 0.0 : 1.0;
    if (!resume_ok || !torn_ok) {
      std::fprintf(stderr, "crash scenario: resumed run diverged from the "
                           "uninterrupted reference\n");
      return 1;
    }
    if (sessions_leaked(res.report)) {
      std::fprintf(stderr, "crash scenario leaked sessions across the "
                           "checkpoint/restore boundary\n");
      return 1;
    }
  }

  if (which == "all" || which == "scale") {
    // Million-session regime (docs/server.md): resumed sessions, RC4-only
    // short records, deep pinned-shard rings.  The headline "scale/" prefix
    // is always the --scale-sessions point so the regression gate compares
    // like with like; --scale-sweep adds labeled 100k/250k/1M points.
    const server::EngineConfig scfg = bench::scale_config(threads);
    std::vector<std::pair<std::string, std::size_t>> points;
    if (scale_sweep) {
      points = {{"scale_100k/", 100000},
                {"scale_250k/", 250000},
                {"scale_1m/", 1000000}};
    }
    const auto rep = run_scenario(
        scfg, bench::scale_scenario(seed + 4, scale_sessions), "scale");
    print_report("scale (resumed sessions, open loop 1.2x)", rep);
    bench::append_server_metrics(result, "scale/", rep);
    // Actual process RSS next to the modeled memory_per_session: an
    // info-direction sanity metric (host-dependent, never gated — the
    // */rss_* benchdiff rule).  0 when /proc/self/statm is unavailable.
    const double rss_mib =
        static_cast<double>(support::resident_set_bytes()) / (1024.0 * 1024.0);
    result.cycles["scale/rss_mib"] = rss_mib;
    std::printf("  process RSS %.1f MiB vs modeled %.1f MiB structural "
                "(%llu B/session x %llu sessions)\n",
                rss_mib,
                static_cast<double>(rep.memory_per_session) *
                    static_cast<double>(rep.admitted) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(rep.memory_per_session),
                static_cast<unsigned long long>(rep.admitted));
    if (sessions_leaked(rep)) {
      std::fprintf(stderr,
                   "scale scenario leaked sessions: admitted %llu != "
                   "completed %llu + aborted %llu\n",
                   static_cast<unsigned long long>(rep.admitted),
                   static_cast<unsigned long long>(rep.completed),
                   static_cast<unsigned long long>(rep.aborted));
      return 1;
    }
    for (const auto& [prefix, n] : points) {
      server::Engine engine(scfg);
      const auto swept = engine.run(bench::scale_scenario(seed + 4, n));
      print_report(("scale sweep: " + std::to_string(n) + " sessions").c_str(),
                   swept);
      bench::append_server_metrics(result, prefix, swept);
      if (sessions_leaked(swept)) {
        std::fprintf(stderr, "scale sweep (%zu sessions) leaked sessions\n", n);
        return 1;
      }
    }
  }

  if (!scenario_file.empty()) {
    // Compiled .wsp traffic program under the same engine config.  The
    // leak gate applies like everywhere else; metrics land under
    // wsp/<name>/ (unmatched in the default baseline, so benchdiff reports
    // them as info rather than gating).
    scenario::CompiledScenario compiled;
    try {
      compiled = scenario::compile_file(scenario_file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    const std::string name =
        compiled.name.empty() ? std::string("scenario") : compiled.name;
    const auto rep = run_scenario(cfg, compiled.scenario,
                                  ("wsp_" + name).c_str(), compiled.source);
    print_report(("wsp: " + name + " (" + scenario_file + ")").c_str(), rep);
    bench::append_server_metrics(result, "wsp/" + name + "/", rep);
    if (sessions_leaked(rep)) {
      std::fprintf(stderr,
                   "scenario %s leaked sessions: admitted %llu != "
                   "completed %llu + aborted %llu\n",
                   scenario_file.c_str(),
                   static_cast<unsigned long long>(rep.admitted),
                   static_cast<unsigned long long>(rep.completed),
                   static_cast<unsigned long long>(rep.aborted));
      return 1;
    }
  }

  const std::string path = bench::write_bench_json(result, outdir);
  if (path.empty()) {
    std::fprintf(stderr, "FAILED to write BENCH_server.json\n");
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  bench::maybe_finish_trace(trace_path);
  return record_failures == 0 ? 0 : 1;
}

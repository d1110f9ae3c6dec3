// Machine-readable bench/regression harness: runs every paper-figure
// measurement (bench/figures.h: Fig. 1, Table 1, Figs. 4/5/6/8, Sec. 4.3)
// and the server and scenario sections, prints each figure's table, and
// serializes each section to BENCH_<name>.json (schema wsp-bench-v1,
// docs/observability.md) so every PR leaves a comparable perf trajectory
// behind.
//
// All "cycles" metrics are simulated-cycle counts or quantities derived
// from them — bit-deterministic for the fixed seeds — so two runs of
//   bench_report --outdir A && bench_report --outdir B
// produce JSON files whose "cycles" objects are byte-identical.  wall_ns is
// the only intentionally non-deterministic field (and sec43_explore's
// informational iss_over_estimate, a host wall-time ratio).
//
// Regression-gate mode (docs/benchmarks.md): `--check` re-measures every
// section and diffs it against the committed baseline BENCH_*.json under the
// per-metric tolerance table (support/benchdiff.h), exiting nonzero on any
// regression — >N% drop in throughput-per-Gcycle, >N% latency inflation, a
// nonzero chaos leak counter, a vanished metric, or a missing baseline.
// `--bless` rewrites the baselines from the current run to accept an
// intentional change.
//
// Flags:
//   --outdir DIR       where to write BENCH_*.json (default ".")
//   --only NAME        run a single section (fig1|table1|fig4|fig5|fig6|fig8|
//                      server|scenario|sec43_explore); the slow sec43_explore
//                      runs only when named here
//   --threads N        worker threads for the sec43_explore sweep
//   --trace FILE       write a Chrome-trace of this run
//   --check            gate against the committed baselines; no files written
//   --bless            rewrite the baselines from this run (accepts changes)
//   --baseline-dir DIR baseline location (default: the committed bench/baselines)
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"
#include "figures.h"
#include "server/record.h"
#include "server_section.h"
#include "support/benchdiff.h"
#include "support/rss.h"
#include "support/threadpool.h"

namespace {

using namespace wsp;
using bench::Clock;
using bench::ns_since;

// Where the server section drops its chaos replay trace; empty (the --check
// and --bless modes) suppresses emission.  File-scope because sections run
// through plain function pointers.
std::string g_replay_trace_dir;

// Runs a bench scenario through a server::RunRecorder and returns its
// report.  When plain emission asked for replay traces, the trace lands in
// <outdir>/REPLAY_<name>.wspr (docs/benchmarks.md); otherwise it stays in
// memory.
server::RunReport run_recorded(const bench::BenchScenario& b,
                               const char* name) {
  const std::string path =
      g_replay_trace_dir.empty()
          ? std::string()
          : g_replay_trace_dir + "/REPLAY_" + name + ".wspr";
  server::RunRecorder recorder(b.config, b.program.scenario, b.program.source,
                               path);
  server::Engine engine(recorder.engine_config());
  const server::RunReport report = engine.run(b.program.scenario);
  if (!recorder.finish(report)) {
    std::fprintf(stderr, "FAILED to write %s\n", path.c_str());
  } else if (!path.empty()) {
    std::printf(" [replay trace %s]", path.c_str());
  }
  return report;
}

// --- Secure-session server: Fig. 8 transactions under load ----------------
//
// Every scenario is a bench/scenarios/*.wsp program run on its
// bench::kBenchEngines shape at 2 threads (metrics are thread-count
// invariant, docs/server.md).
bench::BenchResult run_server() {
  WSP_TRACE_SPAN("bench", "server");
  bench::BenchResult r;
  r.name = "server";
  r.config = {{"scenarios", "bench/scenarios/{steady,overload,chaos,scale,"
                            "crash}.wsp"}};
  const auto t0 = Clock::now();
  for (const char* name : {"steady", "overload"}) {
    const auto b = bench::load_bench_scenario(name);
    server::Engine engine(b.config);
    bench::append_server_metrics(r, std::string(name) + "/",
                                 engine.run(b.program.scenario));
  }
  {
    // Chaos run: deterministic fault injection + recovery (docs/faults.md).
    // Recorded through the replay layer so every bench emission leaves a
    // bit-exact reproduction trace next to the JSON (docs/benchmarks.md).
    bench::append_server_metrics(
        r, "chaos/",
        run_recorded(bench::load_bench_scenario("chaos"), "server_chaos"));
  }
  {
    // Scale run: 100k resumed sessions through the slab table and MPSC
    // rings (docs/server.md §scale).  Gates memory_per_session (structural
    // bytes per live session) and data-plane throughput.
    const auto b = bench::load_bench_scenario("scale");
    server::Engine engine(b.config);
    bench::append_server_metrics(r, "scale/", engine.run(b.program.scenario));
    // RSS of the whole process after every earlier section, next to the
    // modeled memory_per_session: info direction (host- and
    // section-order-dependent), 0 when /proc/self/statm is unavailable.
    r.cycles["scale/rss_mib"] =
        static_cast<double>(support::resident_set_bytes()) / (1024.0 * 1024.0);
  }
  {
    // Crash-fault tolerance (docs/recovery.md): the chaos mix again, but
    // with periodic checkpoints and a scheduled process kill, both armed
    // from the uninterrupted reference run's makespan.  The torn trace is
    // scanned and resumed at OTHER thread counts; the resumed report must
    // be bit-identical to the reference.  resume_mismatch and
    // torn_resume_mismatch are gated exactly zero — torn additionally
    // tears bytes off the trace tail mid-chunk, forcing the scanner back
    // to the previous checkpoint.
    const auto b = bench::load_bench_scenario("crash");
    const server::TrafficScenario& scenario = b.program.scenario;
    // The reference records events too: compare_reports checks the resumed
    // run's event stream against it.
    server::EngineConfig ref_config = b.config;
    ref_config.record_events = true;
    server::Engine ref_engine(ref_config);
    const server::RunReport ref = ref_engine.run(scenario);

    server::EngineConfig crashed = b.config;
    crashed.checkpoint_every = ref.makespan_cycles / 7.0;
    crashed.faults.crash_at_cycles = ref.makespan_cycles * 0.6;
    server::RunRecorder recorder(crashed, scenario, b.program.source);
    bool crash_seen = false;
    try {
      server::Engine engine(recorder.engine_config());
      recorder.finish(engine.run(scenario));
    } catch (const server::CrashFault&) {
      crash_seen = true;
      recorder.crash();
    }
    double resume_mismatch = 1.0;
    double torn_mismatch = 1.0;
    server::RunReport resumed;  // zeros if the crash machinery failed
    if (crash_seen && recorder.checkpoints() > 0) {
      const auto scan = server::scan_trace_for_resume(recorder.bytes());
      const auto res = server::resume_run(scan, 8);
      resumed = res.report;
      resume_mismatch =
          server::compare_reports(ref, res.report).empty() ? 0.0 : 1.0;
      // Torn write: truncate into the last checkpoint chunk's header, so
      // the scan must reject it and fall back one checkpoint further.
      std::vector<std::uint8_t> torn(recorder.bytes());
      torn.resize(recorder.checkpoint_offsets().back() + 9);
      const auto torn_scan = server::scan_trace_for_resume(torn);
      const auto torn_res = server::resume_run(torn_scan, 1);
      torn_mismatch =
          (!torn_scan.tear.empty() &&
           torn_scan.checkpoints.size() + 1 == recorder.checkpoints() &&
           server::compare_reports(ref, torn_res.report).empty())
              ? 0.0
              : 1.0;
    }
    bench::append_server_metrics(r, "crash/", resumed);
    r.cycles["crash/checkpoints"] = static_cast<double>(recorder.checkpoints());
    r.cycles["crash/resume_mismatch"] = resume_mismatch;
    r.cycles["crash/torn_resume_mismatch"] = torn_mismatch;
  }
  r.wall_ns = ns_since(t0);
  r.threads = 2;
  return r;
}

// --- Scenario compiler: .wsp traffic programs (docs/scenarios.md) ----------
bench::BenchResult run_scenario_section() {
  WSP_TRACE_SPAN("bench", "scenario");
  bench::BenchResult r;
  r.name = "scenario";
  r.config = {{"scenarios", "bench/scenarios/{steady,flash,mixed}.wsp"}};
  const auto t0 = Clock::now();
  {
    // Equivalence gate: steady.wsp must produce a report IDENTICAL to the
    // hand-built one-phase program it spells out — same Rng consumption,
    // same means, same everything.  Gated exact-zero via */equiv_mismatch.
    const auto b = bench::load_bench_scenario("steady");
    server::Engine wsp_engine(b.config);
    const auto wsp_rep = wsp_engine.run(b.program.scenario);
    server::Engine built_engine(b.config);
    const auto built_rep = built_engine.run(bench::steady_oracle());
    bench::append_server_metrics(r, "fig8/", wsp_rep);
    r.cycles["fig8/equiv_mismatch"] =
        server::compare_reports(wsp_rep, built_rep).empty() ? 0.0 : 1.0;
  }
  {
    // Multi-phase program with a fault-overlay phase, recorded with its
    // source embedded.
    bench::append_server_metrics(
        r, "flash/",
        run_recorded(bench::load_bench_scenario("flash"), "scenario_flash"));
  }
  {
    // Closed loop handing over to an open loop.
    const auto b = bench::load_bench_scenario("mixed");
    server::Engine engine(b.config);
    bench::append_server_metrics(r, "mixed/", engine.run(b.program.scenario));
  }
  r.wall_ns = ns_since(t0);
  r.threads = 2;
  return r;
}

// Gates one fresh result against `<baseline_dir>/BENCH_<name>.json`.
// Returns true when the gate passes.
bool check_section(const bench::BenchResult& result,
                   const std::string& baseline_dir) {
  const std::string path = baseline_dir + "/BENCH_" + result.name + ".json";
  json::Value baseline;
  try {
    baseline = bench::load_json_file(path);
  } catch (const std::exception& e) {
    std::printf("  %-14s FAIL: no baseline (%s)\n", result.name.c_str(),
                e.what());
    std::printf("    run with --bless to establish one\n");
    return false;
  }
  bench::CheckReport report;
  try {
    report = bench::check_bench(baseline, bench::to_json(result));
  } catch (const std::exception& e) {
    std::printf("  %-14s FAIL: %s\n", result.name.c_str(), e.what());
    return false;
  }
  std::printf("  %-14s %s\n", result.name.c_str(),
              report.ok() ? "ok" : "REGRESSION");
  const std::string detail = bench::format_check_report(report);
  if (!report.ok() || !report.drifts.empty() || !report.added.empty()) {
    std::fputs(detail.c_str(), stdout);
  }
  return report.ok();
}

constexpr support::FlagSpec kFlags[] = {
    {"--outdir", true}, {"--only", true},         {"--check", false},
    {"--bless", false}, {"--baseline-dir", true}, {"--threads", true},
    {"--trace", true},
};

constexpr const char* kUsage =
    "[--outdir DIR] [--only SECTION] [--check | --bless]\n"
    "       [--baseline-dir DIR] [--threads N] [--trace FILE]\n"
    "  Prints each paper figure's table and writes BENCH_<section>.json into\n"
    "  --outdir (default .), or with --check gates them against --baseline-dir,\n"
    "  or with --bless rewrites the baselines.  Sections: fig1 table1 fig4 fig5\n"
    "  fig6 fig8 server scenario; sec43_explore (slow) runs only as\n"
    "  --only sec43_explore.\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace wsp;
  const support::FlagValues flags = bench::flags_or_exit(argc, argv, kFlags, kUsage);
  const unsigned threads =
      bench::threads_or_exit(flags, argv[0], ThreadPool::hardware_threads());
  bench::header("Machine-readable benchmark report (BENCH_*.json)",
                "all paper figures; schema wsp-bench-v1");
  const std::string outdir = bench::flag_or(flags, "--outdir", ".");
  const std::string only = bench::flag_or(flags, "--only");
  const bool check = flags.contains("--check");
  const bool bless = flags.contains("--bless");
#ifndef WSP_BASELINE_DIR
#define WSP_BASELINE_DIR "bench/baselines"
#endif
  const std::string baseline_dir = bench::flag_or(flags, "--baseline-dir", WSP_BASELINE_DIR);
  const std::string trace_path = bench::flag_or(flags, "--trace");
  bench::maybe_start_trace(trace_path);
  // Plain emission leaves a replay trace next to the JSON; the gate modes
  // only measure and compare.
  g_replay_trace_dir = (check || bless) ? "" : outdir;

  struct Section {
    const char* name;
    bench::Figure (*run)(unsigned threads);
    bool in_full_run;
  };
  const Section sections[] = {
      {"fig1", [](unsigned) { return bench::fig1(); }, true},
      {"table1", [](unsigned) { return bench::table1(); }, true},
      {"fig4", [](unsigned) { return bench::fig4(); }, true},
      {"fig5", [](unsigned) { return bench::fig5(); }, true},
      {"fig6", [](unsigned) { return bench::fig6(); }, true},
      {"fig8", [](unsigned) { return bench::fig8(); }, true},
      {"server", [](unsigned) { return bench::Figure{run_server(), {}}; }, true},
      {"scenario",
       [](unsigned) { return bench::Figure{run_scenario_section(), {}}; }, true},
      // ~10 s of ISS characterization and validation: run only when named.
      {"sec43_explore", bench::sec43_explore, false},
  };

  const bool only_known =
      only.empty() ||
      std::any_of(std::begin(sections), std::end(sections),
                  [&](const Section& s) { return only == s.name; });
  if (!only_known) {
    std::fprintf(stderr, "%s: unknown --only section '%s'\nusage: %s %s", argv[0],
                 only.c_str(), argv[0], kUsage);
    return 2;
  }

  std::vector<bench::BenchResult> results;
  for (const Section& s : sections) {
    if (only.empty() ? !s.in_full_run : only != s.name) continue;
    std::printf("  running %-14s ...", s.name);
    std::fflush(stdout);
    bench::Figure figure;
    try {
      figure = s.run(threads);
    } catch (const std::exception& e) {
      std::printf("\n");
      std::fprintf(stderr, "%s: section %s failed: %s\n", argv[0], s.name,
                   e.what());
      return 1;
    }
    std::printf(" %8.1f ms, %2zu metrics\n",
                static_cast<double>(figure.result.wall_ns) / 1e6,
                figure.result.cycles.size());
    std::fputs(figure.table.c_str(), stdout);
    results.push_back(std::move(figure.result));
  }

  int failures = 0;
  if (bless) {
    // Accept the current numbers as the new perf-trajectory baseline.
    for (const auto& r : results) {
      const std::string path = bench::write_bench_json(r, baseline_dir);
      if (path.empty()) {
        std::fprintf(stderr, "FAILED to bless %s/BENCH_%s.json\n",
                     baseline_dir.c_str(), r.name.c_str());
        ++failures;
      } else {
        std::printf("  blessed %s\n", path.c_str());
      }
    }
  } else if (check) {
    std::printf("\ngating against %s:\n", baseline_dir.c_str());
    for (const auto& r : results) {
      if (!check_section(r, baseline_dir)) ++failures;
    }
    if (failures > 0) {
      std::fprintf(stderr,
                   "\nbench_report --check: %d section(s) regressed; run "
                   "`bench_report --bless` to accept intentional changes\n",
                   failures);
    }
  } else {
    for (const auto& r : results) {
      const std::string path = bench::write_bench_json(r, outdir);
      if (path.empty()) {
        std::fprintf(stderr, "FAILED to write BENCH_%s.json\n", r.name.c_str());
        ++failures;
      } else {
        std::printf("  wrote %s\n", path.c_str());
      }
    }
  }
  bench::maybe_finish_trace(trace_path);
  return failures == 0 ? 0 : 1;
}

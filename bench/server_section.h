// Shared glue between the secure-session server engine and the wsp-bench-v1
// artifact layer: the bench scenarios (traffic in bench/scenarios/*.wsp,
// engine shape in kBenchEngines), the Fig. 8 oracle that pins the .wsp
// path, and the RunReport -> BenchResult metric mapping used by
// bench_report and the schema tests.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "bench_util.h"
#include "scenario/compile.h"
#include "server/engine.h"

#ifndef WSP_BENCH_SCENARIO_DIR
#define WSP_BENCH_SCENARIO_DIR "bench/scenarios"
#endif

namespace wsp::bench {

/// The engine shape each bench scenario runs on.  The traffic program lives
/// in bench/scenarios/<scenario>.wsp; the engine shape is runner config, not
/// part of the program.  Shard counts are pinned because the virtual
/// timeline is deterministic per shard count.  overload's tight waiting
/// room must shed load; chaos and crash enter degrade mode under
/// fault-induced pileups; scale's deep rings keep arrivals on the lock-free
/// path and its large record batches amortize pump dispatch.
struct BenchEngine {
  std::string_view scenario;
  unsigned shards;
  std::size_t queue_capacity;
  std::size_t record_batch;
  std::size_t degrade_depth;
};

inline constexpr BenchEngine kBenchEngines[] = {
    // scenario  shards queue  batch degrade
    {"steady",   4,     64,    16,   0},
    {"overload", 4,     8,     16,   0},
    {"chaos",    4,     64,    16,   12},
    {"crash",    4,     64,    16,   12},
    {"scale",    8,     32768, 32,   0},
    {"flash",    4,     64,    16,   0},
    {"mixed",    4,     64,    16,   0},
};

struct BenchScenario {
  server::EngineConfig config;
  scenario::CompiledScenario program;
};

/// Compiles bench/scenarios/<name>.wsp and pairs it with its kBenchEngines
/// shape at `threads` workers (reports do not depend on the thread count).
/// Throws std::invalid_argument for a name the table does not list, and
/// what scenario::compile_file throws for a missing or invalid file.
inline BenchScenario load_bench_scenario(std::string_view name,
                                         unsigned threads = 2) {
  for (const BenchEngine& e : kBenchEngines) {
    if (e.scenario != name) continue;
    BenchScenario b;
    b.config.threads = threads;
    b.config.shards = e.shards;
    b.config.queue_capacity = e.queue_capacity;
    b.config.record_batch = e.record_batch;
    b.config.degrade_depth = e.degrade_depth;
    b.program = scenario::compile_file(std::string(WSP_BENCH_SCENARIO_DIR) +
                                       "/" + std::string(name) + ".wsp");
    return b;
  }
  throw std::invalid_argument("no bench scenario named '" + std::string(name) +
                              "'");
}

/// steady.wsp built by hand: the one TrafficScenario the bench layer spells
/// out field by field.  `fig8/equiv_mismatch` compares the compiled file
/// against it, so a compiler or generator change that moves any Rng draw
/// shows up as a mismatch.
inline server::TrafficScenario steady_oracle() {
  server::TrafficScenario s;
  s.seed = 71;
  s.record_bytes = 1024;
  s.phases.resize(1);
  s.phases[0].name = "steady";
  s.phases[0].sessions = 64;
  s.phases[0].offered_load = 0.6;
  return s;
}

/// Flattens the deterministic part of a RunReport into `r.cycles` under
/// `prefix` ("steady/", "overload/", ...).  Host-dependent fields (wall
/// time, backpressure waits, real queue peaks) are deliberately excluded:
/// every metric written here must be byte-identical run-to-run and
/// thread-count-to-thread-count.
inline void append_server_metrics(BenchResult& r, const std::string& prefix,
                                  const server::RunReport& rep) {
  auto put = [&](const char* key, double value) {
    r.cycles[prefix + key] = value;
  };
  put("offered", static_cast<double>(rep.offered));
  put("admitted", static_cast<double>(rep.admitted));
  put("completed", static_cast<double>(rep.completed));
  put("dropped", static_cast<double>(rep.dropped));
  put("records", static_cast<double>(rep.records));
  put("wire_bytes", static_cast<double>(rep.wire_bytes));
  put("bytes_digest", static_cast<double>(rep.bytes_digest));
  put("latency_p50_cycles", rep.latency.p50);
  put("latency_p90_cycles", rep.latency.p90);
  put("latency_p99_cycles", rep.latency.p99);
  put("latency_max_cycles", rep.latency.max);
  put("makespan_cycles", rep.makespan_cycles);
  put("throughput_per_gcycle", rep.throughput_per_gcycle);
  put("queue_depth_peak", static_cast<double>(rep.peak_virtual_depth));
  put("sessions_peak", static_cast<double>(rep.peak_sessions));
  put("mean_service_cycles", rep.mean_service_cycles);
  // Structural bytes per live session (slab slot + cold key block + index
  // share) — a property of the build, so regressions here are layout
  // regressions, not load artifacts.
  put("memory_per_session", static_cast<double>(rep.memory_per_session));
  put("platform_cycles_base", rep.platform_cycles_base);
  put("platform_cycles_opt", rep.platform_cycles_optimized);
  put("platform_equiv_speedup", rep.equivalent_speedup);
  // Fault/recovery accounting (all zero on benign runs, deterministic on
  // chaos runs — see docs/faults.md).
  put("aborted", static_cast<double>(rep.aborted));
  put("retried", static_cast<double>(rep.retried));
  put("repaired", static_cast<double>(rep.repaired));
  put("faults_injected", static_cast<double>(rep.faults_injected));
  put("shed", static_cast<double>(rep.shed));
  put("degrade_enters", static_cast<double>(rep.degrade_enters));
  // The leak invariant as a gated metric: admitted - completed - aborted
  // must be exactly 0, and the regression gate (docs/benchmarks.md) treats
  // any nonzero value — in any scenario — as a hard failure.
  put("leaked", static_cast<double>(rep.admitted) -
                    static_cast<double>(rep.completed) -
                    static_cast<double>(rep.aborted));
}

}  // namespace wsp::bench

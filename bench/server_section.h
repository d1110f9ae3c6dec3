// Shared glue between the secure-session server engine and the wsp-bench-v1
// artifact layer: canonical scenarios (the Fig. 8 grid under steady load,
// over-admission, and a closed-loop population) and the RunReport ->
// BenchResult metric mapping used by bench_server, bench_report and the
// schema tests.
#pragma once

#include <string>

#include "bench_util.h"
#include "server/engine.h"

namespace wsp::bench {

/// A one-phase traffic program of `sessions` arrivals named `name`; the
/// phase starts from TrafficPhase's defaults (the Fig. 8 grid, open loop).
inline server::TrafficScenario one_phase(std::uint64_t seed, const char* name,
                                         std::size_t sessions) {
  server::TrafficScenario s;
  s.seed = seed;
  s.phases.resize(1);
  s.phases[0].name = name;
  s.phases[0].sessions = sessions;
  return s;
}

/// Steady open-loop load: ~60% of modeled capacity, full Fig. 8 mix.
inline server::TrafficScenario steady_scenario(std::uint64_t seed,
                                               std::size_t sessions) {
  server::TrafficScenario s = one_phase(seed, "steady", sessions);
  s.phases[0].offered_load = 0.6;
  return s;
}

/// Sustained over-admission: 2.5x capacity — must produce drops while the
/// bounded waiting room keeps latency and queue depth finite.
inline server::TrafficScenario overload_scenario(std::uint64_t seed,
                                                 std::size_t sessions) {
  server::TrafficScenario s = one_phase(seed, "overload", sessions);
  s.phases[0].offered_load = 2.5;
  return s;
}

/// Closed loop: a fixed population of users, think time ~ half a mean
/// service interval.
inline server::TrafficScenario closed_scenario(std::uint64_t seed,
                                               std::size_t sessions,
                                               unsigned users) {
  server::TrafficScenario s = one_phase(seed, "closed", sessions);
  s.phases[0].model = server::ArrivalModel::kClosedLoop;
  s.phases[0].users = users;
  s.phases[0].think_cycles = 6e6;
  return s;
}

/// Chaos run traffic: steady load so every recovery outcome is attributable
/// to injected faults, not over-admission.
inline server::TrafficScenario chaos_scenario(std::uint64_t seed,
                                              std::size_t sessions) {
  server::TrafficScenario s = one_phase(seed, "chaos", sessions);
  s.phases[0].offered_load = 0.8;
  return s;
}

/// Scale run traffic: the million-session regime (docs/server.md).  Sessions
/// resume from tickets instead of doing fresh RSA handshakes — that is what
/// makes 10^5..10^6 sessions per run tractable — and stream short RC4
/// records, so the run measures data-plane capacity (table, rings, channel
/// setup), not modexp throughput.
inline server::TrafficScenario scale_scenario(std::uint64_t seed,
                                              std::size_t sessions) {
  server::TrafficScenario s = one_phase(seed, "scale", sessions);
  server::TrafficPhase& ph = s.phases[0];
  ph.offered_load = 1.2;  // mild over-admission: the table must churn
  ph.resume_fraction = 1.0;
  ph.cipher_mix = {{ssl::Cipher::kRc4, 1}};
  ph.size_mix = {{256, 1}, {512, 1}};
  s.record_bytes = 256;
  return s;
}

/// Engine shape for the scale run: shard count pinned (determinism is per
/// shard count), deep per-shard rings so arrivals stay on the lock-free
/// path, and large record batches to amortize pump dispatch.
inline server::EngineConfig scale_config(unsigned threads) {
  server::EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = 8;
  cfg.queue_capacity = 32768;
  cfg.record_batch = 32;
  return cfg;
}

/// Canonical chaos fault mix (docs/faults.md): 1-10% rates across the four
/// fault classes.  Non-aborted sessions must still complete, and the
/// RunReport must stay bit-identical for any --threads.
inline server::FaultConfig chaos_fault_config() {
  server::FaultConfig f;
  f.wire_flip_rate = 0.05;
  f.handshake_failure_rate = 0.05;
  f.abort_rate = 0.03;
  f.stall_rate = 0.05;
  return f;
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

/// True when two runs agree on every deterministic field the bench layer
/// flattens, plus the per-shard replay event digests.  The same traffic at
/// different --threads, or resumed from a checkpoint, must compare equal
/// here, bit for bit.
inline bool reports_deterministically_equal(const server::RunReport& a,
                                            const server::RunReport& b) {
  BenchResult ra, rb;
  append_server_metrics(ra, "", a);
  append_server_metrics(rb, "", b);
  if (ra.cycles != rb.cycles) return false;
  if (a.shards.size() != b.shards.size()) return false;
  for (std::size_t i = 0; i < a.shards.size(); ++i) {
    if (a.shards[i].events_digest != b.shards[i].events_digest) return false;
  }
  return true;
}

}  // namespace wsp::bench

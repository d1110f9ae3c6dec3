// Tier-2 tests for the secure-session server engine's determinism contract
// (docs/server.md) and its behaviour under sustained over-admission.
//
// The contract: for a fixed scenario seed, every metric on the virtual
// (platform-cycle) timeline — completed sessions, per-session byte totals,
// latency percentiles, drops, platform-equivalent cycles — is identical for
// ANY worker thread count.  Only wall time and backpressure accounting may
// differ.  These tests are also the designated TSan workload for the
// scheduler (tools/ci/sanitize.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "server/engine.h"
#include "server/record.h"
#include "server/session_table.h"
#include "server_section.h"
#include "support/mpsc_ring.h"

namespace wsp {
namespace {

server::TrafficScenario small_mix(std::uint64_t seed, std::size_t sessions,
                                  double load) {
  server::TrafficScenario s;
  s.seed = seed;
  s.record_bytes = 512;
  // Keep the grid small so sanitizer builds stay fast; still mixes stream
  // and block ciphers with short and long transactions.
  server::TrafficPhase ph;
  ph.sessions = sessions;
  ph.offered_load = load;
  ph.cipher_mix = {{ssl::Cipher::kRc4, 1}, {ssl::Cipher::kAes128Cbc, 1}};
  ph.size_mix = {{512, 1}, {2048, 1}};
  s.phases = {ph};
  return s;
}

server::RunReport run_with_threads(unsigned threads,
                                   const server::TrafficScenario& scenario,
                                   std::size_t queue_capacity = 32) {
  server::EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = 4;
  cfg.queue_capacity = queue_capacity;
  cfg.record_batch = 4;
  server::Engine engine(cfg);
  return engine.run(scenario);
}

void expect_same_deterministic_metrics(const server::RunReport& a,
                                       const server::RunReport& b,
                                       const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.degrade_enters, b.degrade_enters);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  // The digest folds every (id, bytes, records) triple: equality here means
  // per-session byte totals match, not just the sum.
  EXPECT_EQ(a.bytes_digest, b.bytes_digest);
  EXPECT_EQ(a.latency.p50, b.latency.p50);
  EXPECT_EQ(a.latency.p90, b.latency.p90);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.latency.max, b.latency.max);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.throughput_per_gcycle, b.throughput_per_gcycle);
  EXPECT_EQ(a.peak_virtual_depth, b.peak_virtual_depth);
  EXPECT_EQ(a.platform_cycles_base, b.platform_cycles_base);
  EXPECT_EQ(a.platform_cycles_optimized, b.platform_cycles_optimized);
  EXPECT_EQ(a.equivalent_speedup, b.equivalent_speedup);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t i = 0; i < a.shards.size(); ++i) {
    EXPECT_EQ(a.shards[i].admitted, b.shards[i].admitted) << "shard " << i;
    EXPECT_EQ(a.shards[i].dropped, b.shards[i].dropped) << "shard " << i;
    EXPECT_EQ(a.shards[i].wire_bytes, b.shards[i].wire_bytes) << "shard " << i;
    EXPECT_EQ(a.shards[i].completed, b.shards[i].completed) << "shard " << i;
    EXPECT_EQ(a.shards[i].aborted, b.shards[i].aborted) << "shard " << i;
    EXPECT_EQ(a.shards[i].retried, b.shards[i].retried) << "shard " << i;
    EXPECT_EQ(a.shards[i].repaired, b.shards[i].repaired) << "shard " << i;
    EXPECT_EQ(a.shards[i].faults_injected, b.shards[i].faults_injected)
        << "shard " << i;
    EXPECT_EQ(a.shards[i].events_digest, b.shards[i].events_digest)
        << "shard " << i;
  }
}

server::FaultConfig chaos_faults(double scale) {
  server::FaultConfig f;
  f.wire_flip_rate = 0.05 * scale;
  f.handshake_failure_rate = 0.05 * scale;
  f.abort_rate = 0.05 * scale;
  f.stall_rate = 0.05 * scale;
  return f;
}

server::RunReport run_chaos(unsigned threads,
                            const server::TrafficScenario& scenario,
                            const server::FaultConfig& faults,
                            std::size_t queue_capacity = 32) {
  server::EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = 4;
  cfg.queue_capacity = queue_capacity;
  cfg.record_batch = 4;
  cfg.faults = faults;
  server::Engine engine(cfg);
  return engine.run(scenario);
}

TEST(ServerDeterminism, ThreadCountInvariantOpenLoop) {
  const auto scenario = small_mix(4242, 24, 0.7);
  const auto base = run_with_threads(1, scenario);
  EXPECT_EQ(base.completed, base.admitted);
  EXPECT_GT(base.completed, 0u);
  for (unsigned threads : {2u, 4u}) {
    const auto rep = run_with_threads(threads, scenario);
    expect_same_deterministic_metrics(base, rep, "open loop");
  }
}

TEST(ServerDeterminism, ThreadCountInvariantClosedLoop) {
  auto scenario = small_mix(77, 16, 0.7);
  scenario.phases[0].model = server::ArrivalModel::kClosedLoop;
  scenario.phases[0].users = 4;
  scenario.phases[0].think_cycles = 1e6;
  const auto base = run_with_threads(1, scenario);
  EXPECT_GT(base.completed, 0u);
  const auto rep = run_with_threads(4, scenario);
  expect_same_deterministic_metrics(base, rep, "closed loop");
}

TEST(ServerDeterminism, RerunWithSameSeedIsBitIdentical) {
  const auto scenario = small_mix(99, 20, 0.8);
  expect_same_deterministic_metrics(run_with_threads(2, scenario),
                                    run_with_threads(2, scenario), "rerun");
}

TEST(ServerDeterminism, DifferentSeedsDiverge) {
  const auto a = run_with_threads(1, small_mix(1, 20, 0.8));
  const auto b = run_with_threads(1, small_mix(2, 20, 0.8));
  // Different arrival processes and session seeds: byte totals must differ.
  EXPECT_NE(a.bytes_digest, b.bytes_digest);
}

// Sustained over-admission: the engine must shed load (nonzero drops) while
// the bounded waiting room keeps queue depth and p99 latency finite.  Memory
// boundedness is expressed through the queue-depth bound: at most
// `queue_capacity` sessions wait per shard, on both timelines.
TEST(ServerSoak, OverAdmissionShedsLoadWithBoundedQueues) {
  const std::size_t kCap = 8;
  auto scenario = small_mix(4040, 96, 3.0);
  const auto rep = run_with_threads(2, scenario, kCap);

  EXPECT_EQ(rep.offered, 96u);
  EXPECT_GT(rep.dropped, 0u) << "3x over-admission must shed load";
  EXPECT_EQ(rep.admitted + rep.dropped, rep.offered);
  EXPECT_EQ(rep.completed, rep.admitted);

  // Bounded waiting room on both timelines.
  EXPECT_LE(rep.peak_virtual_depth, kCap);
  EXPECT_LE(rep.peak_real_depth, kCap);

  // With at most kCap sessions queued behind the one in service, waiting
  // time is bounded by (kCap + 1) maximal service demands.
  const auto costs = server::calibrated_costs(server::Pricing::kOptimized);
  double max_service = 0.0;
  for (const server::SizeMix& m : scenario.phases[0].size_mix) {
    max_service = std::max(
        max_service, ssl::transaction_cost(costs, m.bytes).total());
  }
  EXPECT_LE(rep.latency.max, (kCap + 1) * max_service);
  EXPECT_LE(rep.latency.p99, rep.latency.max);
  EXPECT_GT(rep.latency.p99, 0.0);

  // Drops are deterministic too: an independent rerun agrees exactly.
  const auto again = run_with_threads(4, scenario, kCap);
  expect_same_deterministic_metrics(rep, again, "overload rerun");
}

// The acceptance bar for the fault layer (ISSUE 5): with a fixed seed and
// ~5% fault rates, the whole RunReport — including the recovery counters
// and the per-session bytes_digest — is bit-identical for 1, 2 and 8
// worker threads.
TEST(ServerChaosDeterminism, ThreadCountInvariantUnderFaults) {
  const auto scenario = small_mix(20260805, 32, 0.8);
  const auto faults = chaos_faults(1.0);
  const auto base = run_chaos(1, scenario, faults);
  EXPECT_GT(base.faults_injected, 0u) << "chaos scenario must inject faults";
  EXPECT_EQ(base.completed + base.aborted, base.admitted)
      << "every admitted session must complete or abort";
  for (unsigned threads : {2u, 8u}) {
    const auto rep = run_chaos(threads, scenario, faults);
    expect_same_deterministic_metrics(base, rep, "chaos thread sweep");
  }
}

// Recovery actually recovers: under a wire-flip-only fault model (no
// scheduled aborts, no handshake budget exhaustion is guaranteed, but
// retries/rekeys are) the retry and repair counters are exercised and
// sessions still finish.
TEST(ServerChaosDeterminism, RepairLadderHealsFlippedRecords) {
  auto scenario = small_mix(5151, 24, 0.6);
  server::FaultConfig f;
  f.wire_flip_rate = 0.10;  // flips only: every session must survive
  const auto rep = run_chaos(1, scenario, f);
  EXPECT_GT(rep.faults_injected, 0u);
  EXPECT_GT(rep.retried, 0u) << "flipped records must be retransmitted";
  EXPECT_EQ(rep.aborted, 0u) << "a plain bit flip is always recoverable";
  EXPECT_EQ(rep.completed, rep.admitted);
  // CBC sessions need the rekey leg of the ladder (stream ciphers heal on
  // retransmit), and this mix includes AES-128-CBC.
  EXPECT_GT(rep.repaired, 0u) << "CBC desync requires rekey repairs";
}

// Chaos soak: higher load plus the full fault mix.  No session may leak
// (completed + aborted == admitted), no shard may wedge, and the real
// queue bound must hold throughout.  This is the designated TSan/ASan
// chaos workload (tools/ci/sanitize.sh).
TEST(ServerChaosSoak, NoSessionLeaksUnderFaultsAndOverload) {
  const std::size_t kCap = 8;
  auto scenario = small_mix(60606, 96, 2.0);
  const auto rep = run_chaos(4, scenario, chaos_faults(2.0), kCap);

  EXPECT_EQ(rep.offered, 96u);
  EXPECT_EQ(rep.admitted + rep.dropped, rep.offered);
  EXPECT_EQ(rep.completed + rep.aborted, rep.admitted) << "session leak";
  EXPECT_GT(rep.completed, 0u) << "chaos must not kill every session";
  EXPECT_GT(rep.aborted, 0u) << "10% abort rate must claim some sessions";
  EXPECT_LE(rep.peak_virtual_depth, kCap);
  EXPECT_LE(rep.peak_real_depth, kCap);
  // Aborted sessions ran on the same shards as everyone else; none of the
  // engine's closures may escape into the scheduler's containment path.
  EXPECT_EQ(rep.failed_tasks, 0u);

  const auto again = run_chaos(1, scenario, chaos_faults(2.0), kCap);
  expect_same_deterministic_metrics(rep, again, "chaos soak rerun");
}

// Degrade mode: a burst far over the degrade threshold must engage the
// mode (deterministically), shed load beyond the ordinary capacity drops,
// and release once drained — and the whole thing must be thread-invariant.
TEST(ServerChaosSoak, DegradeModeShedsAndRecovers) {
  auto scenario = small_mix(70707, 96, 3.0);
  server::EngineConfig cfg;
  cfg.threads = 2;
  cfg.shards = 4;
  cfg.queue_capacity = 8;
  cfg.record_batch = 4;
  cfg.degrade_depth = 12;  // well under 4 shards * capacity 8
  server::Engine engine(cfg);
  const auto rep = engine.run(scenario);

  EXPECT_GT(rep.degrade_enters, 0u) << "3x overload must trip degrade mode";
  EXPECT_GT(rep.shed, 0u) << "degrade mode must shed load";
  EXPECT_EQ(rep.admitted + rep.dropped, rep.offered);
  EXPECT_EQ(rep.completed + rep.aborted, rep.admitted);

  server::EngineConfig cfg2 = cfg;
  cfg2.threads = 8;
  const auto rep2 = server::Engine(cfg2).run(scenario);
  expect_same_deterministic_metrics(rep, rep2, "degrade thread sweep");
}

// --- million-session data plane (ISSUE 7) ---------------------------------

// Multi-producer soak for the scheduler's shard queue: several producers
// hammer one small ring while a single consumer drains it.  Per-producer
// FIFO order and exact delivery counts must survive; under TSan this is the
// designated race workload for support/mpsc_ring.h.
TEST(MpscRingSoak, MultiProducerSingleConsumerDeliversEverythingInOrder) {
  constexpr unsigned kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  support::MpscRing<std::uint64_t> ring(64);

  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        // High bits: producer id; low bits: that producer's sequence.
        std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | i;
        while (!ring.try_push(v)) std::this_thread::yield();
      }
    });
  }

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t popped = 0;
  while (popped < kProducers * kPerProducer) {
    std::uint64_t v = 0;
    if (!ring.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    const auto p = static_cast<unsigned>(v >> 32);
    ASSERT_LT(p, kProducers);
    EXPECT_EQ(v & 0xFFFFFFFFu, next_seq[p]) << "producer " << p;
    ++next_seq[p];
    ++popped;
  }
  for (auto& t : producers) t.join();

  std::uint64_t v = 0;
  EXPECT_FALSE(ring.try_pop(v));
  for (unsigned p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

// Concurrent churn through the sharded slab table: each worker owns a
// disjoint id range and repeatedly inserts, reads back and erases sessions.
// Size/peak accounting must come out exact and no worker may ever observe
// another worker's session through its own handles.
TEST(ServerTableSoak, ConcurrentInsertEraseChurnKeepsAccountingExact) {
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kIdsPerWorker = 200;
  constexpr int kWaves = 5;
  server::SessionTable table(4);
  std::atomic<bool> failed{false};

  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&table, &failed, w] {
      const std::uint64_t base = 1 + w * 100000ull;
      for (int wave = 0; wave < kWaves; ++wave) {
        std::vector<server::SessionHandle> handles;
        for (std::uint64_t i = 0; i < kIdsPerWorker; ++i) {
          server::SessionConfig cfg;
          cfg.id = base + i;
          cfg.transaction_bytes = 512;
          cfg.seed = cfg.id;
          const auto ins = table.insert(cfg);
          if (ins.session == nullptr || ins.session->id() != cfg.id) {
            failed = true;
            return;
          }
          handles.push_back(ins.handle);
        }
        for (const auto& h : handles) {
          server::Session* s = table.get(h);
          if (s == nullptr || s->id() < base ||
              s->id() >= base + kIdsPerWorker || !table.erase(h)) {
            failed = true;
            return;
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(table.size(), 0u);
  // Peak is at least one worker's full wave and at most everyone's.
  EXPECT_GE(table.peak_size(), kIdsPerWorker);
  EXPECT_LE(table.peak_size(), kWorkers * kIdsPerWorker);
}

// Resume mode (the million-session regime, docs/server.md): the abbreviated
// handshake path must honor the same thread-invariance contract as the full
// one, and the structural memory_per_session figure is a build constant.
TEST(ServerDeterminism, ResumeModeIsThreadCountInvariant) {
  auto scenario = small_mix(8181, 48, 0.9);
  scenario.phases[0].resume_fraction = 1.0;
  const auto base = run_with_threads(1, scenario);
  EXPECT_EQ(base.completed, base.admitted);
  EXPECT_GT(base.completed, 0u);
  EXPECT_EQ(base.memory_per_session, server::SessionTable::bytes_per_session());
  for (unsigned threads : {2u, 8u}) {
    const auto rep = run_with_threads(threads, scenario);
    expect_same_deterministic_metrics(base, rep, "resume thread sweep");
    EXPECT_EQ(rep.memory_per_session, base.memory_per_session);
  }
}

// Record a resume-mode run, replay it at other thread counts: RunReport,
// shard digests and the full event stream must verify bit-exactly — the
// scale scenario rides the same wsp-replay-v1 path as everything else.
TEST(ServerDeterminism, ResumeModeRecordReplayRoundTrip) {
  auto scenario = small_mix(9292, 40, 1.1);
  scenario.phases[0].resume_fraction = 1.0;
  server::EngineConfig cfg;
  cfg.threads = 2;
  cfg.shards = 4;
  cfg.queue_capacity = 32;
  cfg.record_batch = 4;

  const server::RunRecord rec = server::record_run(cfg, scenario);
  EXPECT_EQ(rec.scenario.phases[0].resume_fraction, 1.0);
  EXPECT_EQ(rec.report.memory_per_session,
            server::SessionTable::bytes_per_session());
  const auto bytes = server::encode_run_record(rec);
  const server::RunRecord decoded = server::decode_run_record(bytes);
  EXPECT_EQ(decoded.scenario.phases[0].resume_fraction, 1.0);
  EXPECT_EQ(decoded.report.memory_per_session, rec.report.memory_per_session);

  for (unsigned threads : {1u, 8u}) {
    const auto result = server::replay_run(decoded, threads);
    EXPECT_TRUE(result.ok()) << "threads=" << threads << ": "
                             << (result.mismatches.empty()
                                     ? ""
                                     : result.mismatches.front());
  }
}

// Scale soak: a 20k-session slice of the bench `scale` scenario (resumed
// sessions, RC4 short records, deep pinned-shard rings).  The leak
// invariant must hold with tens of thousands of live sessions churning
// through the slab table; this is the designated sanitizer workload for
// the scale path (tools/ci/sanitize.sh runs the 100k point separately).
TEST(ServerScaleSoak, TwentyThousandResumedSessionsDoNotLeak) {
  const auto scenario = bench::scale_scenario(75, 20000);
  server::EngineConfig cfg = bench::scale_config(4);
  server::Engine engine(cfg);
  const auto rep = engine.run(scenario);

  EXPECT_EQ(rep.offered, 20000u);
  EXPECT_EQ(rep.admitted + rep.dropped, rep.offered);
  EXPECT_EQ(rep.completed + rep.aborted, rep.admitted) << "session leak";
  EXPECT_GT(rep.completed, 0u);
  EXPECT_GT(rep.peak_sessions, 1000u) << "scale run must hold many live sessions";
  EXPECT_EQ(rep.failed_tasks, 0u);
  EXPECT_EQ(rep.memory_per_session, server::SessionTable::bytes_per_session());

  // Same scenario, different thread count: deterministic metrics agree.
  server::EngineConfig cfg2 = cfg;
  cfg2.threads = 1;
  const auto rep2 = server::Engine(cfg2).run(scenario);
  expect_same_deterministic_metrics(rep, rep2, "scale soak rerun");
}

}  // namespace
}  // namespace wsp

// Tier-2 determinism sweep for compiled .wsp traffic programs
// (docs/scenarios.md §5): the full deterministic RunReport — counters,
// latencies, per-shard event digests — must be bit-identical for any
// thread count, and a run recorded at one thread
// count must replay bit-exactly at another with the scenario source intact.
#include <gtest/gtest.h>

#include "scenario/compile.h"
#include "server/engine.h"
#include "server/record.h"
#include "record_util.h"

namespace wsp {
namespace {

// Exercises every program feature at once: defaults inheritance, an
// overload spike of resumed sessions, a closed-loop population, weighted
// mixes and a fault overlay.
const char* kSweepWsp =
    "scenario \"sweep\" {\n"
    "  seed 4242\n"
    "  record_bytes 512\n"
    "  defaults { arrivals open, mix { aes128: 2, 3des: 1 } }\n"
    "  phase \"calm\"  { sessions 24, load 0.5, sizes { 4096: 1 } }\n"
    "  phase \"spike\" { sessions 64, load 3.0, resume 0.75,\n"
    "                   sizes { 1024: 2, 2048: 1 } }\n"
    "  phase \"pool\"  { sessions 16, arrivals closed, users 4,\n"
    "                   think 20000, sizes { 8192: 1 } }\n"
    "  phase \"storm\" { sessions 24, load 0.8, resume 0.5,\n"
    "                   sizes { 4096: 1, 8192: 1 },\n"
    "                   faults { wire_flip_rate 0.05,\n"
    "                            handshake_failure_rate 0.1,\n"
    "                            record_retry_budget 2,\n"
    "                            handshake_retry_budget 2 } }\n"
    "}\n";

server::RunReport run_with(const server::TrafficScenario& sc,
                           unsigned threads) {
  server::EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = 4;
  server::Engine engine(cfg);
  return engine.run(sc);
}

TEST(ScenarioDeterminism, ReportBitIdenticalAcrossThreads) {
  const auto compiled = scenario::compile(kSweepWsp, "<sweep>");
  const auto reference = run_with(compiled.scenario, 1);
  EXPECT_EQ(reference.admitted, reference.completed + reference.aborted);
  EXPECT_GT(reference.faults_injected, 0u);
  for (unsigned threads : {2u, 8u}) {
    const auto rep = run_with(compiled.scenario, threads);
    const auto mismatches = server::compare_reports(reference, rep);
    EXPECT_TRUE(mismatches.empty())
        << "threads=" << threads << ": " << mismatches.front();
  }
}

TEST(ScenarioDeterminism, RecordReplayRoundTripWithEmbeddedSource) {
  const auto compiled = scenario::compile(kSweepWsp, "<sweep>");
  server::EngineConfig cfg;
  cfg.threads = 2;
  cfg.shards = 4;
  const server::RunRecord rec =
      test::record(cfg, compiled.scenario, compiled.source);

  // The codec round-trips the program and the source text bit-exactly.
  const auto bytes = server::encode_run_record(rec);
  const server::RunRecord back = server::decode_run_record(bytes);
  EXPECT_EQ(back.scenario_source, compiled.source);
  ASSERT_EQ(back.scenario.phases.size(), compiled.scenario.phases.size());
  for (std::size_t i = 0; i < back.scenario.phases.size(); ++i) {
    EXPECT_EQ(back.scenario.phases[i].name, compiled.scenario.phases[i].name);
    EXPECT_EQ(back.scenario.phases[i].sessions,
              compiled.scenario.phases[i].sessions);
  }

  // Replay the decoded record at different thread counts: bit-identical.
  for (unsigned threads : {1u, 8u}) {
    const server::ReplayResult result = test::replay(back, threads);
    EXPECT_TRUE(result.ok()) << "threads=" << threads << ": "
                             << (result.mismatches.empty()
                                     ? ""
                                     : result.mismatches.front());
  }
}

}  // namespace
}  // namespace wsp

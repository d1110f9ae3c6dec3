// Tier-2 replay determinism: a chaos-mode engine run recorded at one thread
// count must replay bit-identically at a different one — RunReport scalars,
// per-shard event digests and the full per-session event stream.  This is
// the thread-invariance contract (docs/server.md) enforced end-to-end
// through the wsp-replay-v1 trace, including a disk round trip, plus the
// negative control: a tampered record must be reported as a mismatch.
#include <gtest/gtest.h>

#include <cstdio>

#include "record_util.h"
#include "server_section.h"

namespace wsp {
namespace {

/// The bench chaos scenario (bench/scenarios/chaos.wsp on its bench engine)
/// at `threads` workers, with its seed and session count overridden.
bench::BenchScenario chaos(unsigned threads, std::uint64_t seed,
                           std::size_t sessions) {
  bench::BenchScenario b = bench::load_bench_scenario("chaos", threads);
  b.program.scenario.seed = seed;
  b.program.scenario.phases.at(0).sessions = sessions;
  return b;
}

TEST(ReplayDeterminism, RecordAtOneThreadReplayAtEight) {
  const auto b = chaos(1, 74, 64);
  const server::RunRecord rec = test::record(b.config, b.program.scenario);
  ASSERT_EQ(rec.recorded_threads, 1u);
  ASSERT_GT(rec.report.faults_injected, 0u) << "chaos plan injected nothing";
  ASSERT_EQ(rec.report.events.size(), rec.report.admitted);

  const server::ReplayResult res = test::replay(rec, 8);
  EXPECT_TRUE(res.ok()) << res.mismatches.size() << " mismatches, first: "
                        << (res.mismatches.empty() ? "" : res.mismatches[0]);
  EXPECT_EQ(res.report.threads, 8u);

  // Spot-check the per-session digests directly, not just via resume_run.
  ASSERT_EQ(res.report.events.size(), rec.report.events.size());
  for (std::size_t i = 0; i < rec.report.events.size(); ++i) {
    EXPECT_EQ(res.report.events[i].digest(), rec.report.events[i].digest())
        << "session event " << i;
  }
  ASSERT_EQ(res.report.shards.size(), rec.report.shards.size());
  for (std::size_t s = 0; s < rec.report.shards.size(); ++s) {
    EXPECT_EQ(res.report.shards[s].events_digest,
              rec.report.shards[s].events_digest)
        << "shard " << s;
  }
}

TEST(ReplayDeterminism, DiskRoundTripThenReplayAtDifferentThreads) {
  const auto b = chaos(2, 75, 48);
  const std::string path = ::testing::TempDir() + "/chaos_run.wspr";
  const server::RunRecord rec = server::decode_run_record(
      test::record_trace(b.config, b.program.scenario, {}, path));
  const server::RunRecord loaded =
      server::decode_run_record(replay::read_file(path));
  std::remove(path.c_str());

  EXPECT_EQ(loaded.report.events, rec.report.events);
  const server::ReplayResult res = test::replay(loaded, 5);
  EXPECT_TRUE(res.ok()) << (res.mismatches.empty() ? "" : res.mismatches[0]);
}

TEST(ReplayDeterminism, TamperedRecordReportsMismatch) {
  const auto b = chaos(1, 76, 32);
  server::RunRecord rec = test::record(b.config, b.program.scenario);
  ASSERT_FALSE(rec.report.events.empty());
  rec.report.events[0].wire_bytes ^= 1;  // claim a different byte total
  const server::ReplayResult res = test::replay(rec, 4);
  EXPECT_FALSE(res.ok());
}

}  // namespace
}  // namespace wsp

// Tier-2 acceptance suite for crash-fault tolerance (docs/recovery.md):
// crash -> restore -> continue must produce a RunReport — every
// deterministic scalar, latency quantile, per-shard events_digest and the
// full event stream — bit-identical to the uninterrupted run, for every
// --threads value, under benign and chaos fault mixes, and
// regardless of which thread count the torn trace was recorded at.  Also a
// designated sanitizer workload: sanitize.sh runs this suite under ASan and
// TSan (the quiesce barrier is a scheduler drain, so it races with the
// worker pool if anything is wrong).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "server/checkpoint.h"
#include "server/engine.h"
#include "server/record.h"
#include "support/replay.h"

namespace wsp {
namespace {

server::TrafficScenario storm_mix(std::uint64_t seed, std::size_t sessions) {
  server::TrafficScenario s;
  s.seed = seed;
  s.record_bytes = 512;
  server::TrafficPhase ph;
  ph.sessions = sessions;
  ph.offered_load = 0.9;
  ph.cipher_mix = {{ssl::Cipher::kRc4, 1},
                   {ssl::Cipher::kAes128Cbc, 1},
                   {ssl::Cipher::kTripleDesCbc, 1}};
  ph.size_mix = {{512, 1}, {2048, 1}, {4096, 1}};
  s.phases = {ph};
  return s;
}

server::FaultConfig chaos_faults() {
  server::FaultConfig f;
  f.wire_flip_rate = 0.05;
  f.handshake_failure_rate = 0.05;
  f.abort_rate = 0.05;
  f.stall_rate = 0.05;
  return f;
}

server::EngineConfig base_cfg(unsigned threads,
                              const server::FaultConfig& faults) {
  server::EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = 4;
  cfg.queue_capacity = 32;
  cfg.record_batch = 4;
  cfg.faults = faults;
  cfg.record_events = true;
  return cfg;
}

/// Records a run, kills it at `crash_frac` of the reference makespan, and
/// returns the torn trace's bytes.  The reference (uninterrupted) report is
/// returned through `ref`.
std::vector<std::uint8_t> torn_trace(const server::TrafficScenario& scenario,
                                     unsigned threads,
                                     const server::FaultConfig& faults,
                                     server::RunReport& ref,
                                     double crash_frac = 0.6) {
  server::EngineConfig cfg = base_cfg(threads, faults);
  ref = server::Engine(cfg).run(scenario);

  // A CrashFault fires at the first ARRIVAL past the deadline, so the
  // deadline must land inside the arrival span — under chaos stalls the
  // makespan tail stretches well past the last arrival, hence the
  // per-scenario fraction.  Barriers are paced off the crash time so a few
  // always precede it.
  cfg.checkpoint_every = ref.makespan_cycles * crash_frac / 4.0;
  cfg.faults.crash_at_cycles = ref.makespan_cycles * crash_frac;
  server::RunRecorder recorder(cfg, scenario);
  server::Engine engine(recorder.engine_config());
  try {
    (void)engine.run(scenario);
    ADD_FAILURE() << "expected CrashFault";
  } catch (const server::CrashFault&) {
    recorder.crash();
  }
  EXPECT_GT(recorder.checkpoints(), 0u)
      << "crash landed before the first barrier; shrink checkpoint_every";
  return recorder.bytes();
}

void expect_bit_identical(const server::RunReport& ref,
                          const server::RunReport& got, const char* what) {
  SCOPED_TRACE(what);
  const auto mismatches = server::compare_reports(ref, got);
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
  EXPECT_EQ(got.completed + got.aborted, got.admitted)
      << "resume broke the leak invariant";
}

// The acceptance bar: record + crash at 2 threads, then resume the same
// torn trace at 1, 2 and 8 threads.  All of them must reproduce the
// uninterrupted reference bit for bit.
TEST(CheckpointDeterminism, ResumeIsThreadInvariantBenign) {
  const auto scenario = storm_mix(8101, 48);
  server::RunReport ref;
  const auto bytes = torn_trace(scenario, 2, {}, ref);
  const auto scan = server::scan_trace_for_resume(bytes);
  EXPECT_FALSE(scan.complete);
  for (unsigned threads : {1u, 2u, 8u}) {
    const auto result = server::resume_run(scan, threads);
    expect_bit_identical(ref, result.report, "benign resume sweep");
  }
}

// Same bar under the full chaos mix: wire flips, handshake failures,
// scheduled aborts and stalls active on BOTH sides of the barrier.  The
// restored fault machinery must re-derive every per-session schedule
// exactly (they are functions of the scenario seed, never of the crash).
TEST(CheckpointDeterminism, ResumeIsThreadInvariantUnderChaos) {
  const auto scenario = storm_mix(8202, 48);
  server::RunReport ref;
  const auto bytes = torn_trace(scenario, 2, chaos_faults(), ref);
  EXPECT_GT(ref.faults_injected, 0u) << "chaos mix must inject faults";
  const auto scan = server::scan_trace_for_resume(bytes);
  for (unsigned threads : {1u, 2u, 8u}) {
    const auto result = server::resume_run(scan, threads);
    expect_bit_identical(ref, result.report, "chaos resume sweep");
  }
}

// Recording thread count is immaterial: traces recorded at 1 and at 8
// threads for the same scenario resume to the same reference.
TEST(CheckpointDeterminism, RecordingThreadCountIsImmaterial) {
  const auto scenario = storm_mix(8303, 40);
  server::RunReport ref1, ref8;
  const auto t1 = torn_trace(scenario, 1, chaos_faults(), ref1, 0.35);
  const auto t8 = torn_trace(scenario, 8, chaos_faults(), ref8, 0.35);
  expect_bit_identical(ref1, ref8, "references agree across recorders");

  const auto r1 = server::resume_run(server::scan_trace_for_resume(t1), 8);
  const auto r8 = server::resume_run(server::scan_trace_for_resume(t8), 1);
  expect_bit_identical(ref1, r1.report, "recorded at 1, resumed at 8");
  expect_bit_identical(ref1, r8.report, "recorded at 8, resumed at 1");
}

// Every barrier is an equally good restore point: resume from each prefix
// of the torn trace (not just the last checkpoint) and compare.
TEST(CheckpointDeterminism, EveryCheckpointPrefixResumesIdentically) {
  const auto scenario = storm_mix(8404, 40);
  server::EngineConfig cfg = base_cfg(2, chaos_faults());
  const auto ref = server::Engine(cfg).run(scenario);

  cfg.checkpoint_every = ref.makespan_cycles / 6.0;
  cfg.faults.crash_at_cycles = ref.makespan_cycles * 0.7;
  server::RunRecorder recorder(cfg, scenario);
  server::Engine engine(recorder.engine_config());
  try {
    (void)engine.run(scenario);
    ADD_FAILURE() << "expected CrashFault";
  } catch (const server::CrashFault&) {
    recorder.crash();
  }
  const auto& bytes = recorder.bytes();
  const auto& offsets = recorder.checkpoint_offsets();
  ASSERT_GE(offsets.size(), 2u);
  for (std::size_t k = 0; k <= offsets.size(); ++k) {
    const std::size_t cut = k < offsets.size() ? offsets[k] : bytes.size();
    std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    const auto scan = server::scan_trace_for_resume(prefix);
    EXPECT_EQ(scan.checkpoints.size(), k);
    const auto result = server::resume_run(scan, k % 2 == 0 ? 4 : 1);
    expect_bit_identical(ref, result.report, "prefix resume");
  }
}

// Degrade mode state crosses the barrier: crash while the engine is shedding
// load and the resumed run must still agree on shed/degrade_enters.
TEST(CheckpointDeterminism, DegradeStateSurvivesRestore) {
  auto scenario = storm_mix(8505, 96);
  scenario.phases[0].offered_load = 3.0;
  server::EngineConfig cfg = base_cfg(2, {});
  cfg.queue_capacity = 8;
  cfg.degrade_depth = 12;
  const auto ref = server::Engine(cfg).run(scenario);
  EXPECT_GT(ref.degrade_enters, 0u) << "overload must trip degrade mode";
  EXPECT_GT(ref.shed, 0u);

  cfg.checkpoint_every = ref.makespan_cycles / 8.0;
  cfg.faults.crash_at_cycles = ref.makespan_cycles * 0.5;
  server::RunRecorder recorder(cfg, scenario);
  server::Engine engine(recorder.engine_config());
  try {
    (void)engine.run(scenario);
    ADD_FAILURE() << "expected CrashFault";
  } catch (const server::CrashFault&) {
    recorder.crash();
  }
  ASSERT_GT(recorder.checkpoints(), 0u);
  const auto result =
      server::resume_run(server::scan_trace_for_resume(recorder.bytes()), 8);
  expect_bit_identical(ref, result.report, "degrade resume");
  EXPECT_EQ(result.report.degrade_enters, ref.degrade_enters);
  EXPECT_EQ(result.report.shed, ref.shed);
}

}  // namespace
}  // namespace wsp

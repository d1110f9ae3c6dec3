// Tier-1 tests for the crash-fault tolerance layer (docs/recovery.md):
// TrafficGenerator state snapshots, the EngineCheckpoint chunk codec and
// its semantic validator, checkpoint-cut invariants (the sink's stream is
// thread-invariant with many cuts pending, due cuts reach the sink before
// a CrashFault, a throwing sink unwinds cleanly), the CrashFault
// contract, RunRecorder torn traces, and the scan -> resume pipeline —
// including truncation at every checkpoint-chunk boundary, rejection of
// CRC-valid-but-lying checkpoints (stale slab handles, tampered digests,
// unreachable generator cursors), and the traces earlier builds recorded
// (tests/data/lanes8_parked.wspr with parked entries, and
// tests/data/flat_closed.wspr from a flat closed-loop scenario).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/checkpoint.h"
#include "server/engine.h"
#include "server/record.h"
#include "server/traffic.h"
#include "support/replay.h"

namespace wsp {
namespace {

using replay::ErrorKind;
using replay::ReplayError;

server::TrafficScenario crash_mix(std::uint64_t seed, std::size_t sessions) {
  server::TrafficScenario s;
  s.seed = seed;
  s.record_bytes = 512;
  server::TrafficPhase ph;
  ph.sessions = sessions;
  ph.offered_load = 0.8;
  ph.cipher_mix = {{ssl::Cipher::kRc4, 1},
                   {ssl::Cipher::kAes128Cbc, 1},
                   {ssl::Cipher::kTripleDesCbc, 1}};
  ph.size_mix = {{512, 1}, {2048, 1}};
  s.phases = {ph};
  return s;
}

/// A two-phase traffic program over the same kind of mix (phases exercise
/// the generator's phase cursor).
server::TrafficScenario phased_mix(std::uint64_t seed) {
  server::TrafficScenario s;
  s.seed = seed;
  s.record_bytes = 512;
  for (const double load : {0.6, 0.9}) {
    server::TrafficPhase ph;
    ph.name = load < 0.7 ? "calm" : "busy";
    ph.sessions = 16;
    ph.offered_load = load;
    ph.cipher_mix = {{ssl::Cipher::kRc4, 1}, {ssl::Cipher::kAes128Cbc, 1}};
    ph.size_mix = {{512, 1}, {2048, 1}};
    s.phases.push_back(ph);
  }
  return s;
}

server::EngineConfig engine_cfg(unsigned threads) {
  server::EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = 4;
  cfg.queue_capacity = 32;
  cfg.record_batch = 4;
  cfg.record_events = true;
  return cfg;
}

/// The trace an earlier build recorded at lane width 8 and killed
/// mid-run: seed 903, 24 sessions, 2 shards, checkpoints every makespan/5,
/// crash at 0.7 makespan.  Its checkpoints hold parked entries.
std::vector<std::uint8_t> legacy_parked_trace() {
  return replay::read_file(WSP_TEST_DATA_DIR "/lanes8_parked.wspr");
}

/// A complete trace an earlier build recorded from a FLAT closed-loop
/// scenario: seed 907, 24 sessions, 4 users, think 6e6 cycles, RC4/AES ×
/// {512, 2048} B, 2 shards, rsa_bits 512, checkpoints every makespan/5.
std::vector<std::uint8_t> legacy_closed_trace() {
  return replay::read_file(WSP_TEST_DATA_DIR "/flat_closed.wspr");
}

/// Payload of the first `tag` chunk of a trace, read up to its tear.
std::vector<std::uint8_t> chunk_payload(const std::vector<std::uint8_t>& bytes,
                                        server::RecordChunk tag) {
  replay::ChunkReader reader(bytes);
  while (const auto chunk = reader.next()) {
    if (chunk->tag == static_cast<std::uint64_t>(tag)) return chunk->payload;
  }
  ADD_FAILURE() << "no chunk with tag " << static_cast<std::uint64_t>(tag);
  return {};
}

/// The chaos fault mix: every fault kind at 5%.
server::FaultConfig chaos_faults() {
  server::FaultConfig f;
  f.wire_flip_rate = 0.05;
  f.handshake_failure_rate = 0.05;
  f.abort_rate = 0.05;
  f.stall_rate = 0.05;
  return f;
}

/// Captures every barrier checkpoint by value.
struct CollectSink final : server::CheckpointSink {
  std::vector<server::EngineCheckpoint> taken;
  void on_checkpoint(const server::EngineCheckpoint& cp) override {
    taken.push_back(cp);
  }
};

/// Runs `cfg` with a CollectSink installed and returns what the sink got.
std::vector<server::EngineCheckpoint> sink_stream(
    server::EngineConfig cfg, const server::TrafficScenario& scenario) {
  CollectSink sink;
  cfg.checkpoint_sink = &sink;
  (void)server::Engine(cfg).run(scenario);
  return sink.taken;
}

// --- traffic generator snapshots -------------------------------------------

TEST(CheckpointGenerator, SnapshotRestoreResumesDrawSequenceExactly) {
  const auto scenario = crash_mix(11, 40);
  server::TrafficGenerator gen(scenario, {5.0e6}, 4);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(gen.next().has_value());

  const server::TrafficGeneratorState snap = gen.state();
  server::TrafficGenerator fresh(scenario, {5.0e6}, 4);
  fresh.restore(snap);

  // Every remaining draw must be identical, field for field.
  while (true) {
    const auto a = gen.next();
    const auto b = fresh.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    EXPECT_EQ(a->id, b->id);
    EXPECT_EQ(a->at_cycles, b->at_cycles);
    EXPECT_EQ(a->cipher, b->cipher);
    EXPECT_EQ(a->transaction_bytes, b->transaction_bytes);
    EXPECT_EQ(a->session_seed, b->session_seed);
    EXPECT_EQ(a->phase, b->phase);
    EXPECT_EQ(a->resume, b->resume);
  }
}

TEST(CheckpointGenerator, ClosedLoopPendingArrivalsSurviveSnapshot) {
  auto scenario = crash_mix(12, 24);
  scenario.phases[0].model = server::ArrivalModel::kClosedLoop;
  scenario.phases[0].users = 4;
  scenario.phases[0].think_cycles = 1e6;
  server::TrafficGenerator gen(scenario, {5.0e6}, 4);
  // Drain a few arrivals and feed completions back so the ready heap has
  // genuine content when the snapshot is taken.
  for (int i = 0; i < 6; ++i) {
    const auto a = gen.next();
    ASSERT_TRUE(a.has_value());
    gen.on_outcome(*a, a->at_cycles + 2.0e6, false);
  }
  const auto snap = gen.state();
  EXPECT_FALSE(snap.ready.empty());

  server::TrafficGenerator fresh(scenario, {5.0e6}, 4);
  fresh.restore(snap);
  const auto a = gen.next();
  const auto b = fresh.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->id, b->id);
  EXPECT_EQ(a->at_cycles, b->at_cycles);
  EXPECT_EQ(a->user, b->user);
}

// --- checkpoint codec -------------------------------------------------------

/// Runs the scenario with barriers armed and returns the captured
/// checkpoints (at least one, asserted).
std::vector<server::EngineCheckpoint> capture_checkpoints(
    const server::TrafficScenario& scenario, unsigned threads, double every) {
  CollectSink sink;
  server::EngineConfig cfg = engine_cfg(threads);
  cfg.checkpoint_every = every;
  cfg.checkpoint_sink = &sink;
  server::Engine engine(cfg);
  (void)engine.run(scenario);
  EXPECT_FALSE(sink.taken.empty()) << "barrier interval too long for this run";
  return sink.taken;
}

TEST(CheckpointCodec, EncodeDecodeIsIdentityOnRealCheckpoints) {
  const auto scenario = crash_mix(21, 32);
  for (const auto& cp : capture_checkpoints(scenario, 2, 2.0e7)) {
    std::vector<std::uint8_t> payload;
    server::encode_checkpoint(payload, cp);
    const server::EngineCheckpoint back = server::decode_checkpoint(payload);
    EXPECT_EQ(back, cp) << "seq " << cp.seq;
    // A freshly captured checkpoint must also pass semantic validation.
    EXPECT_NO_THROW(server::validate_checkpoint(back));
  }
}

TEST(CheckpointCodec, TruncatedPayloadThrowsTyped) {
  const auto scenario = crash_mix(22, 24);
  const auto cps = capture_checkpoints(scenario, 1, 3.0e7);
  std::vector<std::uint8_t> payload;
  server::encode_checkpoint(payload, cps.back());
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, payload.size() / 2,
                          payload.size() - 1}) {
    std::vector<std::uint8_t> prefix(payload.begin(), payload.begin() + cut);
    EXPECT_THROW((void)server::decode_checkpoint(prefix), ReplayError)
        << "cut=" << cut;
  }
  // Trailing garbage is damage too, not padding.
  auto padded = payload;
  padded.push_back(0);
  EXPECT_THROW((void)server::decode_checkpoint(padded), ReplayError);
}

TEST(CheckpointCodec, StaleSlabHandleGenerationIsMalformed) {
  // Parked sessions only exist in traces of earlier builds, whose batched
  // plane left staged-but-unflushed cohort members at the barrier.
  const auto scan = server::scan_trace_for_resume(legacy_parked_trace());
  bool saw_parked = false;
  for (auto cp : scan.checkpoints) {
    for (auto& entry : cp.entries) {
      if (!entry.parked) continue;
      saw_parked = true;
      // A live handle's generation is odd; an even one is a handle that was
      // already recycled when the checkpoint claims it was live.
      EXPECT_EQ(entry.parked_info.handle.gen % 2, 1u);
      server::EngineCheckpoint bad = cp;
      for (auto& e : bad.entries) {
        if (e.parked) e.parked_info.handle.gen &= ~1u;
      }
      try {
        server::validate_checkpoint(bad);
        FAIL() << "stale generation accepted";
      } catch (const ReplayError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kMalformed);
        EXPECT_NE(std::string(e.what()).find("stale"), std::string::npos);
      }
      break;
    }
  }
  EXPECT_TRUE(saw_parked) << "the legacy fixture holds no parked entries";
}

TEST(CheckpointCodec, TamperedShardDigestIsMalformed) {
  const auto scenario = crash_mix(24, 32);
  auto cps = capture_checkpoints(scenario, 1, 2.0e7);
  server::EngineCheckpoint cp = cps.back();
  ASSERT_FALSE(cp.shards.empty());
  // Find a shard with finalized entries (nonzero digest chain) and lie
  // about it: the validator recomputes the chain and must disagree.
  bool tampered = false;
  for (auto& sh : cp.shards) {
    if (sh.events_digest == 0) continue;
    sh.events_digest ^= 0x1;
    tampered = true;
    break;
  }
  ASSERT_TRUE(tampered) << "no shard had finalized entries at the barrier";
  try {
    server::validate_checkpoint(cp);
    FAIL() << "tampered digest accepted";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed);
  }
}

// --- cut invariants ---------------------------------------------------------

TEST(CheckpointQuiesce, ScalarPlaneParksNothing) {
  const auto scenario = crash_mix(31, 32);
  for (const auto& cp : capture_checkpoints(scenario, 4, 1.5e7)) {
    for (const auto& entry : cp.entries) {
      EXPECT_FALSE(entry.parked)
          << "a cut must finalize every session admitted before it";
    }
    EXPECT_EQ(cp.latencies.size(), cp.admitted());
  }
}

TEST(CheckpointQuiesce, CountsAndTimesAreCoherent) {
  const auto scenario = crash_mix(32, 48);
  double prev_now = -1.0;
  std::uint64_t seq = 0;
  for (const auto& cp : capture_checkpoints(scenario, 2, 1.0e7)) {
    EXPECT_EQ(cp.seq, seq++);
    EXPECT_GT(cp.virtual_now, prev_now);
    prev_now = cp.virtual_now;
    EXPECT_LE(cp.admitted(), cp.offered);
    EXPECT_EQ(cp.shards.size(), 4u);
    std::uint64_t shard_admitted = 0;
    for (const auto& sh : cp.shards) shard_admitted += sh.admitted;
    EXPECT_EQ(shard_admitted, cp.admitted());
  }
}

TEST(CheckpointCut, ManyPendingCutsGiveTheOneThreadStreamUnderChaos) {
  // A barrier every few arrivals while 4 workers run full handshakes: cuts
  // pile up behind unfinished sessions, yet the sink must see exactly the
  // 1-thread stream, in seq order.
  const auto scenario = crash_mix(35, 64);
  server::EngineConfig cfg = engine_cfg(1);
  cfg.faults = chaos_faults();
  const auto ref = server::Engine(cfg).run(scenario);
  cfg.checkpoint_every = ref.makespan_cycles / 48.0;
  const auto serial = sink_stream(cfg, scenario);
  ASSERT_GE(serial.size(), 24u);
  for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(serial[i].seq, i);
  cfg.threads = 4;
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(sink_stream(cfg, scenario) == serial) << "round " << round;
  }
}

TEST(CheckpointCut, ThrowingSinkUnwindsWithNoWorkerInFlight) {
  // The sink throws on its k-th checkpoint while workers run sessions
  // admitted after that cut: the exception must reach the caller, and the
  // data plane must drain before it frees anything (the sanitizer builds
  // see a worker that outlives it).
  struct Boom {};
  struct ThrowingSink final : server::CheckpointSink {
    std::size_t calls = 0;
    std::size_t throw_at = 0;
    void on_checkpoint(const server::EngineCheckpoint&) override {
      if (++calls == throw_at) throw Boom{};
    }
  };
  const auto scenario = crash_mix(36, 48);
  server::EngineConfig cfg = engine_cfg(4);
  const auto ref = server::Engine(cfg).run(scenario);
  cfg.checkpoint_every = ref.makespan_cycles / 24.0;
  for (const std::size_t k : {1u, 5u, 12u}) {
    ThrowingSink sink;
    sink.throw_at = k;
    cfg.checkpoint_sink = &sink;
    EXPECT_THROW((void)server::Engine(cfg).run(scenario), Boom) << "k=" << k;
    EXPECT_EQ(sink.calls, k) << "no checkpoint may follow the throw";
  }
  // Nothing the aborted runs left behind reaches a later run.
  cfg.checkpoint_sink = nullptr;
  const auto again = server::Engine(cfg).run(scenario);
  const auto mismatches = server::compare_reports(ref, again);
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
}

// --- crash + restore --------------------------------------------------------

TEST(CheckpointCrash, CrashFaultCarriesTimingAndFiresDueBarriers) {
  const auto scenario = crash_mix(41, 32);
  const auto ref = server::Engine(engine_cfg(1)).run(scenario);
  const double crash_at = ref.makespan_cycles * 0.5;

  CollectSink sink;
  server::EngineConfig cfg = engine_cfg(1);
  cfg.checkpoint_every = crash_at / 4.0;
  cfg.checkpoint_sink = &sink;
  cfg.faults.crash_at_cycles = crash_at;
  server::Engine engine(cfg);
  try {
    (void)engine.run(scenario);
    FAIL() << "expected CrashFault";
  } catch (const server::CrashFault& e) {
    EXPECT_EQ(e.deadline_cycles(), crash_at);
    EXPECT_GE(e.at_cycles(), crash_at) << "death precedes the deadline";
  }
  // Every barrier due at or before the crash fired first, none after.
  ASSERT_FALSE(sink.taken.empty());
  for (const auto& cp : sink.taken) EXPECT_LE(cp.virtual_now, crash_at);
}

TEST(CheckpointCrash, CrashAtFourThreadsDeliversEveryDueCutInOrder) {
  // At 4 threads several cuts are still waiting on their sessions when the
  // crash deadline arrives: all of them must reach the sink, in seq order,
  // before CrashFault — the same stream a 1-thread run delivers.  Chaos
  // stalls stretch the makespan well past the last arrival, so the
  // deadline sits at a third of it.
  const auto scenario = crash_mix(47, 48);
  server::EngineConfig cfg = engine_cfg(1);
  cfg.faults = chaos_faults();
  const auto ref = server::Engine(cfg).run(scenario);
  const double crash_at = ref.makespan_cycles * 0.3;
  cfg.checkpoint_every = crash_at / 16.0;
  cfg.faults.crash_at_cycles = crash_at;
  std::vector<server::EngineCheckpoint> streams[2];
  for (const unsigned threads : {1u, 4u}) {
    CollectSink sink;
    cfg.threads = threads;
    cfg.checkpoint_sink = &sink;
    EXPECT_THROW((void)server::Engine(cfg).run(scenario), server::CrashFault)
        << threads << " threads";
    streams[threads == 4].swap(sink.taken);
  }
  ASSERT_GE(streams[0].size(), 8u);
  ASSERT_EQ(streams[1].size(), streams[0].size());
  for (std::size_t i = 0; i < streams[1].size(); ++i) {
    EXPECT_EQ(streams[1][i].seq, i);
    EXPECT_LE(streams[1][i].virtual_now, crash_at);
    EXPECT_TRUE(streams[1][i] == streams[0][i]) << "seq " << i;
  }
}

TEST(CheckpointCrash, RestoreFromAnyBarrierMatchesUninterruptedRun) {
  const auto scenario = crash_mix(42, 40);
  const auto ref = server::Engine(engine_cfg(2)).run(scenario);
  const auto cps =
      capture_checkpoints(scenario, 2, ref.makespan_cycles / 5.0);
  for (const auto& cp : cps) {
    server::Engine engine(engine_cfg(2));
    const auto resumed = engine.run(scenario, cp);
    const auto mismatches = server::compare_reports(ref, resumed);
    EXPECT_TRUE(mismatches.empty())
        << "seq " << cp.seq << ": " << mismatches.front();
  }
}

TEST(CheckpointCrash, RestoreRejectsWrongScenarioStructurally) {
  const auto scenario = crash_mix(43, 32);
  const auto cps = capture_checkpoints(scenario, 1, 2.0e7);
  auto other = crash_mix(43, 8);  // fewer sessions than the checkpoint offered
  server::Engine engine(engine_cfg(1));
  EXPECT_THROW((void)engine.run(other, cps.back()), std::logic_error);
}

TEST(CheckpointCrash, CorruptEntryRejectedBeforeParkedSessionsRun) {
  // The legacy fixture's checkpoints park sessions; restoring one pushes
  // each parked session to a worker.  A bad entry after them must be
  // rejected before any push, or the throw unwinds under running workers.
  const auto scan = server::scan_trace_for_resume(legacy_parked_trace());
  const auto& cps = scan.checkpoints;
  const unsigned shards = scan.record.config.shards;
  const auto it = std::find_if(cps.begin(), cps.end(), [](const auto& cp) {
    return cp.entries.size() >= 2 &&
           std::any_of(cp.entries.begin(), cp.entries.end() - 1,
                       [](const auto& e) { return e.parked; });
  });
  ASSERT_NE(it, cps.end()) << "no checkpoint parks a session before its last entry";
  server::EngineCheckpoint cp = *it;
  server::SessionEvent& last = cp.entries.back().event;
  last.shard = (last.shard + 1) % shards;
  server::Engine engine(scan.record.config);
  EXPECT_THROW((void)engine.run(scan.record.scenario, cp), std::logic_error);
}

TEST(CheckpointCrash, CraftedGeneratorCursorRejectedByBothEntryPoints) {
  // A generator cursor the scenario cannot reach — here a phase fully drawn
  // while later arrivals remain, or a phase that does not exist — would send
  // TrafficGenerator::next past scenario.phases.  Such a checkpoint is
  // internally consistent: it survives encode -> decode + validate, so only
  // the fit check stops it.
  const auto scenario = phased_mix(45);
  const auto ref = server::Engine(engine_cfg(1)).run(scenario);
  server::EngineConfig cfg = engine_cfg(1);
  cfg.checkpoint_every = ref.makespan_cycles / 4.0;
  cfg.faults.crash_at_cycles = ref.makespan_cycles * 0.6;
  server::RunRecorder recorder(cfg, scenario);
  server::Engine recording(recorder.engine_config());
  EXPECT_THROW((void)recording.run(scenario), server::CrashFault);
  recorder.crash();
  const auto scan = server::scan_trace_for_resume(recorder.bytes());
  ASSERT_FALSE(scan.checkpoints.empty());
  ASSERT_LT(scan.checkpoints.back().generator.next_id,
            scenario.total_sessions());
  for (const auto& cp : scan.checkpoints) {
    EXPECT_NO_THROW(server::check_checkpoint_fits(cp, scenario, 4))
        << "a genuine checkpoint must fit, seq " << cp.seq;
  }

  const std::uint64_t last = scenario.phases.size() - 1;
  for (const std::uint64_t phase_idx : {last, std::uint64_t{7}}) {
    server::EngineCheckpoint cp = scan.checkpoints.back();
    cp.generator.phase_idx = phase_idx;
    cp.generator.phase_done =
        phase_idx == last ? scenario.phases[last].sessions : 0;
    std::vector<std::uint8_t> payload;
    server::encode_checkpoint(payload, cp);
    EXPECT_EQ(server::decode_checkpoint(payload), cp) << phase_idx;

    server::ResumeScan crafted = scan;
    crafted.checkpoints.back() = cp;
    try {
      (void)server::resume_run(crafted);
      ADD_FAILURE() << "resume_run accepted phase_idx " << phase_idx;
    } catch (const ReplayError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kMalformed) << phase_idx;
    }
    server::Engine engine(engine_cfg(2));
    EXPECT_THROW((void)engine.run(scenario, cp), std::logic_error)
        << phase_idx;
  }
}

TEST(CheckpointCrash, ParkedIdAtGeneratorCursorRejectedByBothEntryPoints) {
  // A parked entry renamed to the id the generator draws next, on the same
  // shard.  Parked entries are outside the digest chains, so the checkpoint
  // stays self-consistent and validate_checkpoint accepts it; resuming it
  // would admit that id twice — once restored, once drawn — and the second
  // table insert would throw while the first still ran on a worker.  The
  // id fit rule rejects it before any push, typed through both entry
  // points.
  const auto scan = server::scan_trace_for_resume(legacy_parked_trace());
  const unsigned shards = scan.record.config.shards;
  server::EngineConfig cfg = scan.record.config;
  cfg.threads = 4;
  std::size_t crafted = 0;
  for (const auto& original : scan.checkpoints) {
    const std::uint64_t next_id = original.generator.next_id;
    for (std::size_t i = 0; i < original.entries.size(); ++i) {
      const auto& e = original.entries[i];
      if (!e.parked || e.event.shard != next_id % shards) continue;
      server::EngineCheckpoint cp = original;
      cp.entries[i].event.id = next_id;
      EXPECT_NO_THROW(server::validate_checkpoint(cp));
      server::ResumeScan resume = scan;
      resume.checkpoints = {cp};
      try {
        (void)server::resume_run(resume, 4);
        ADD_FAILURE() << "resume_run accepted entry id " << next_id;
      } catch (const ReplayError& err) {
        EXPECT_EQ(err.kind(), ErrorKind::kMalformed);
      }
      server::Engine engine(cfg);
      EXPECT_THROW((void)engine.run(scan.record.scenario, cp),
                   std::logic_error);
      ++crafted;
    }
  }
  EXPECT_GE(crafted, 1u) << "no parked entry shares a shard with the cursor";
}

TEST(CheckpointCrash, ParkedEntryItsPhaseCannotDrawIsRejected) {
  // A parked entry re-runs on the data plane, so its size, cipher and
  // resume flag must be ones its phase draws: an unbounded size would run
  // without end, and a full handshake in a resume-only run has no server
  // key.  Parked entries sit outside the digest chains, so only the fit
  // check sees such an edit.
  const auto scan = server::scan_trace_for_resume(legacy_parked_trace());
  const auto& scenario = scan.record.scenario;
  server::EngineConfig cfg = scan.record.config;
  cfg.threads = 2;
  const server::EngineCheckpoint* base = nullptr;
  std::size_t index = 0;
  for (const auto& cp : scan.checkpoints) {
    for (std::size_t i = 0; i < cp.entries.size() && base == nullptr; ++i) {
      if (cp.entries[i].parked) {
        base = &cp;
        index = i;
      }
    }
  }
  ASSERT_NE(base, nullptr);
  const auto& phase = scenario.phases[base->entries[index].parked_info.phase];
  ASSERT_TRUE(phase.resume_fraction == 0.0 || phase.resume_fraction == 1.0);
  const std::uint64_t huge = std::uint64_t{1} << 40;
  ASSERT_TRUE(std::none_of(phase.size_mix.begin(), phase.size_mix.end(),
                           [&](const auto& m) { return m.bytes == huge; }));

  for (int edit = 0; edit < 2; ++edit) {
    server::EngineCheckpoint cp = *base;
    server::ParkedSession& p = cp.entries[index].parked_info;
    if (edit == 0) {
      p.transaction_bytes = huge;
    } else {
      p.resume = !p.resume;
    }
    EXPECT_NO_THROW(server::validate_checkpoint(cp)) << edit;
    try {
      server::check_checkpoint_fits(cp, scenario, cfg.shards);
      ADD_FAILURE() << "fit check accepted edit " << edit;
    } catch (const ReplayError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kMalformed) << edit;
    }
    server::Engine engine(cfg);
    EXPECT_THROW((void)engine.run(scenario, cp), std::logic_error) << edit;
  }
}

TEST(CheckpointCrash, EntryIdFitRuleHoldsOnCommittedFixtures) {
  // Every checkpoint of both fixtures satisfies the id rule, so tightening
  // it loses no legacy trace.
  for (const auto& bytes : {legacy_parked_trace(), legacy_closed_trace()}) {
    const auto scan = server::scan_trace_for_resume(bytes);
    ASSERT_FALSE(scan.checkpoints.empty());
    for (const auto& cp : scan.checkpoints) {
      EXPECT_NO_THROW(server::check_checkpoint_fits(
          cp, scan.record.scenario, scan.record.config.shards))
          << "seq " << cp.seq;
    }
  }
}

// --- traces of earlier builds -----------------------------------------------

TEST(CheckpointLegacy, ParkedFixtureResumesFromEveryCheckpoint) {
  // Parked entries come only from traces of earlier builds.  They decode,
  // validate and run on the pump after restore, bit-identical to the
  // uninterrupted run of the recorded scenario under the recorded config.
  const auto scan = server::scan_trace_for_resume(legacy_parked_trace());
  ASSERT_FALSE(scan.complete) << "the fixture is a torn trace";
  ASSERT_FALSE(scan.checkpoints.empty());
  std::size_t parked = 0;
  for (const auto& cp : scan.checkpoints) {
    for (const auto& e : cp.entries) parked += e.parked ? 1 : 0;
  }
  EXPECT_GE(parked, 1u);

  server::EngineConfig cfg = scan.record.config;
  cfg.record_events = true;
  const auto reference = server::Engine(cfg).run(scan.record.scenario);
  for (std::size_t k = 0; k < scan.checkpoints.size(); ++k) {
    server::ResumeScan upto = scan;
    upto.checkpoints.resize(k + 1);
    for (const unsigned threads : {1u, 4u}) {
      const auto result = server::resume_run(upto, threads);
      const auto mismatches = server::compare_reports(reference, result.report);
      EXPECT_TRUE(mismatches.empty()) << "checkpoint " << k << ", " << threads
                                      << " threads: " << mismatches.front();
    }
  }
}

TEST(CheckpointLegacy, FlatClosedLoopFixtureReplaysAndResumes) {
  // The recorded report is the oracle here: it came from the flat
  // generator of an earlier build.  Replay runs the lowered one-phase
  // program; resume additionally needs each checkpoint's flat generator
  // state mapped onto that phase (phase_done = next_id, phase_entered),
  // or the fit check rejects it and a restored population would be
  // re-staggered.
  const auto bytes = legacy_closed_trace();
  const server::RunRecord rec = server::decode_run_record(bytes);
  ASSERT_EQ(rec.scenario.phases.size(), 1u);
  EXPECT_EQ(rec.scenario.phases[0].model, server::ArrivalModel::kClosedLoop);
  EXPECT_EQ(rec.scenario.phases[0].users, 4u);
  for (const unsigned threads : {1u, 4u}) {
    const auto replayed =
        server::resume_run({.record = rec, .complete = true}, threads);
    EXPECT_TRUE(replayed.ok()) << threads << " threads: "
                               << replayed.mismatches.front();
  }

  const auto scan = server::scan_trace_for_resume(bytes);
  ASSERT_TRUE(scan.complete);
  ASSERT_GE(scan.checkpoints.size(), 2u);
  for (std::size_t k = 0; k < scan.checkpoints.size(); ++k) {
    const auto& g = scan.checkpoints[k].generator;
    EXPECT_TRUE(g.phase_entered);
    EXPECT_EQ(g.phase_done, g.next_id);
    EXPECT_FALSE(g.ready.empty()) << "closed-loop users must be pending";
    server::ResumeScan upto = scan;
    upto.checkpoints.resize(k + 1);
    for (const unsigned threads : {1u, 4u}) {
      const auto result = server::resume_run(upto, threads);
      const auto mismatches =
          server::compare_reports(scan.record.report, result.report);
      EXPECT_TRUE(mismatches.empty()) << "checkpoint " << k << ", " << threads
                                      << " threads: " << mismatches.front();
    }
  }
}

TEST(CheckpointLegacy, TrailingLanesVarintIsReadAndIgnored) {
  // The earlier build appended its lane width (8) to the config chunk.  The
  // decoder skips it and the encoder no longer writes it, so recording the
  // decoded config gives the same chunk without that last byte.
  const auto bytes = legacy_parked_trace();
  const auto legacy = chunk_payload(bytes, server::RecordChunk::kConfig);
  ASSERT_FALSE(legacy.empty());
  EXPECT_EQ(legacy.back(), 8u);
  const auto scan = server::scan_trace_for_resume(bytes);
  EXPECT_EQ(scan.record.config.shards, 2u);
  server::RunRecorder recorder(scan.record.config, scan.record.scenario);
  const auto now =
      chunk_payload(recorder.bytes(), server::RecordChunk::kConfig);
  EXPECT_EQ(now, std::vector<std::uint8_t>(legacy.begin(), legacy.end() - 1));
}

// --- config validation ------------------------------------------------------

TEST(CheckpointConfig, InvalidIntervalsAndCrashTimesRejected) {
  const auto scenario = crash_mix(51, 8);
  {
    server::EngineConfig cfg = engine_cfg(1);
    cfg.checkpoint_every = -1.0;
    EXPECT_THROW(server::Engine{cfg}, std::invalid_argument);
  }
  {
    server::EngineConfig cfg = engine_cfg(1);
    cfg.checkpoint_every = std::numeric_limits<double>::infinity();
    EXPECT_THROW(server::Engine{cfg}, std::invalid_argument);
  }
  {
    server::EngineConfig cfg = engine_cfg(1);
    cfg.faults.crash_at_cycles = -5.0;
    EXPECT_THROW(server::Engine{cfg}, std::invalid_argument);
  }
  {
    // checkpoint_every without a sink is legal and inert.
    server::EngineConfig cfg = engine_cfg(1);
    cfg.checkpoint_every = 1.0e7;
    const auto rep = server::Engine(cfg).run(scenario);
    EXPECT_EQ(rep.completed + rep.aborted, rep.admitted);
  }
}

// --- RunRecorder + scan + resume -------------------------------------------

struct TornTrace {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets;  ///< checkpoint chunk boundaries
  server::RunReport reference;       ///< the uninterrupted run
};

TornTrace record_torn_trace(const server::TrafficScenario& scenario,
                            unsigned threads, double crash_frac = 0.6) {
  TornTrace out;
  server::EngineConfig cfg = engine_cfg(threads);
  out.reference = server::Engine(cfg).run(scenario);

  cfg.checkpoint_every = out.reference.makespan_cycles / 6.0;
  cfg.faults.crash_at_cycles = out.reference.makespan_cycles * crash_frac;
  server::RunRecorder recorder(cfg, scenario);
  server::Engine engine(recorder.engine_config());
  try {
    (void)engine.run(scenario);
    ADD_FAILURE() << "expected CrashFault";
  } catch (const server::CrashFault&) {
    recorder.crash();
  }
  EXPECT_GT(recorder.checkpoints(), 0u);
  out.bytes = recorder.bytes();
  out.offsets = recorder.checkpoint_offsets();
  return out;
}

TEST(CheckpointResume, TornTraceScansAndResumesBitIdentically) {
  const auto scenario = crash_mix(61, 40);
  const TornTrace torn = record_torn_trace(scenario, 2);

  const auto scan = server::scan_trace_for_resume(torn.bytes);
  EXPECT_FALSE(scan.complete);
  EXPECT_FALSE(scan.tear.empty()) << "a torn trace must report its tear";
  EXPECT_EQ(scan.checkpoints.size(), torn.offsets.size());
  EXPECT_EQ(scan.scanned_bytes, torn.bytes.size());

  const auto result = server::resume_run(scan);
  EXPECT_TRUE(result.ok());
  const auto mismatches = server::compare_reports(torn.reference, result.report);
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
  EXPECT_EQ(result.report.completed + result.report.aborted,
            result.report.admitted)
      << "resume must preserve the leak invariant";
}

TEST(CheckpointResume, TruncationAtEveryCheckpointBoundaryStillResumes) {
  const auto scenario = crash_mix(62, 40);
  const TornTrace torn = record_torn_trace(scenario, 1);
  ASSERT_GE(torn.offsets.size(), 2u);

  // Cutting at checkpoint k's first header byte leaves exactly k usable
  // checkpoints; resume from each prefix must still match the reference.
  for (std::size_t k = 0; k < torn.offsets.size(); ++k) {
    std::vector<std::uint8_t> prefix(torn.bytes.begin(),
                                     torn.bytes.begin() + torn.offsets[k]);
    const auto scan = server::scan_trace_for_resume(prefix);
    EXPECT_EQ(scan.checkpoints.size(), k) << "cut at checkpoint " << k;
    const auto result = server::resume_run(scan);
    const auto mismatches =
        server::compare_reports(torn.reference, result.report);
    EXPECT_TRUE(mismatches.empty())
        << "cut at checkpoint " << k << ": " << mismatches.front();
  }
}

TEST(CheckpointResume, MidChunkTearFallsBackToPreviousCheckpoint) {
  const auto scenario = crash_mix(63, 40);
  const TornTrace torn = record_torn_trace(scenario, 2);
  ASSERT_GE(torn.offsets.size(), 2u);

  // Tear a few bytes into the LAST checkpoint chunk: the scan must stop at
  // the previous one and the resume must still verify.
  std::vector<std::uint8_t> mid(torn.bytes.begin(),
                                torn.bytes.begin() + torn.offsets.back() + 3);
  const auto scan = server::scan_trace_for_resume(mid);
  EXPECT_EQ(scan.checkpoints.size(), torn.offsets.size() - 1);
  EXPECT_FALSE(scan.tear.empty());
  const auto result = server::resume_run(scan);
  const auto mismatches = server::compare_reports(torn.reference, result.report);
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
}

TEST(CheckpointResume, CompleteTraceVerifiesAgainstItsOwnRecording) {
  const auto scenario = crash_mix(64, 32);
  server::EngineConfig cfg = engine_cfg(2);
  server::RunRecorder recorder(cfg, scenario);
  cfg = recorder.engine_config();
  cfg.checkpoint_every = 2.0e7;
  server::Engine engine(cfg);
  ASSERT_TRUE(recorder.finish(engine.run(scenario)));

  const auto scan = server::scan_trace_for_resume(recorder.bytes());
  EXPECT_TRUE(scan.complete);
  EXPECT_TRUE(scan.tear.empty());
  // Complete trace: resume_run verifies against the recorded report, at a
  // different thread count than the recording ran with.
  const auto result = server::resume_run(scan, 8);
  EXPECT_TRUE(result.ok()) << result.mismatches.front();
}

TEST(CheckpointResume, InputDamageRethrowsScanDamageIsTyped) {
  const auto scenario = crash_mix(65, 24);
  const TornTrace torn = record_torn_trace(scenario, 1);

  // Damage BEFORE the inputs complete: no run to resume, scan throws.
  std::vector<std::uint8_t> early(torn.bytes.begin(), torn.bytes.begin() + 12);
  EXPECT_THROW((void)server::scan_trace_for_resume(early), ReplayError);

  // A CRC-valid checkpoint that lies about the scenario: resume_run must
  // reject it as typed kMalformed, never feed it to the engine.
  auto scan = server::scan_trace_for_resume(torn.bytes);
  ASSERT_FALSE(scan.checkpoints.empty());
  scan.checkpoints.back().offered = scenario.total_sessions() + 1000;
  try {
    (void)server::resume_run(scan);
    FAIL() << "lying checkpoint accepted";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed);
  }
}

TEST(CheckpointResume, RecorderReportsFileErrors) {
  const auto scenario = crash_mix(66, 8);
  server::EngineConfig cfg = engine_cfg(1);
  server::RunRecorder recorder(cfg, scenario, {}, "/nonexistent-dir-xyz/t.wspr");
  EXPECT_FALSE(recorder.ok());
  EXPECT_NE(recorder.error().find("/nonexistent-dir-xyz"), std::string::npos);
}

}  // namespace
}  // namespace wsp

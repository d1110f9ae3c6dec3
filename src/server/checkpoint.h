// EngineCheckpoint — the full deterministic run state captured at a quiesce
// barrier, and its wsp-replay-v1 chunk codec (docs/recovery.md).
//
// A checkpoint is taken by Engine::run between two arrivals, after the
// RecordScheduler has quiesced: every pushed work item has executed and
// every admitted session has finalized, so the session table is empty and
// the captured state is exact and thread-invariant:
//
//   * every admitted session's outcome (a SessionEvent) in arrival order;
//   * the virtual queueing model (per-shard busy_until + pending
//     completions, counters, latencies, degrade state);
//   * the traffic generator's full state, snapshotted BEFORE the draw of
//     the arrival that crossed the barrier, so resume re-draws it;
//   * per-shard running event digests over the finalized entries — a
//     cross-check the resume path recomputes and compares, so a trace
//     corrupted in a CRC-preserving way still fails loudly.
//
// Traces of earlier builds, whose batched record plane staged sessions in
// cohorts, may also hold PARKED entries: a session admitted but not yet
// run, stored as its admission config (phase, cipher, size, seed, resume
// flag) plus its slab handle.  A kPending session is a pure function of
// its config, so no key material is serialized.  Such entries still
// decode, validate and resume: the restore path runs them on the pump.
//
// Restoring a checkpoint into Engine::run(scenario, checkpoint) and letting
// the run finish produces a RunReport bit-identical to the uninterrupted
// run on every deterministic field, for any --threads value.
//
// Wire format: one kCheckpoint chunk per barrier, appended to the trace
// after the input chunks (server/record.h).  Legacy readers skip unknown
// chunk tags, so pre-checkpoint tooling still decodes these traces.
#pragma once

#include <cstdint>
#include <vector>

#include "server/engine.h"
#include "support/arena.h"
#include "support/replay.h"

namespace wsp::server {

/// One shard's virtual service-unit state plus its running accounting.
struct CheckpointShard {
  double busy_until = 0.0;  ///< virtual time the shard frees up
  /// Virtual completion times still pending in the shard's waiting room,
  /// in queue (ascending) order.
  std::vector<double> completions;
  std::uint64_t admitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t peak_virtual_depth = 0;
  /// Running digest chain over this shard's FINALIZED entries in arrival
  /// order (parked entries are not yet part of the chain).
  std::uint64_t events_digest = 0;

  bool operator==(const CheckpointShard&) const = default;
};

/// A parked session (written only by earlier builds: a staged-but-unflushed
/// cohort member of the deleted batched plane): everything needed to
/// re-admit it on resume.  The fault schedule and handshake budget are NOT
/// stored — both are re-derived from (scenario seed, id, phase) exactly as
/// at original admission.
struct ParkedSession {
  std::uint32_t phase = 0;  ///< scenario phase it arrived in (0 when flat)
  ssl::Cipher cipher = ssl::Cipher::kRc4;
  std::uint64_t transaction_bytes = 0;
  std::uint64_t session_seed = 0;
  bool resume = false;
  /// The session's slab handle at capture time — recorded so fuzzers and
  /// validators can prove handle hygiene (a live handle's generation is
  /// odd); resume re-inserts and gets a fresh handle.
  support::SlabRef handle;

  bool operator==(const ParkedSession&) const = default;
};

/// One admitted session, in arrival order: either finalized (its event
/// counters are complete) or parked (event carries only id/shard and the
/// parked_info says how to re-admit it).
struct CheckpointEntry {
  SessionEvent event;
  bool parked = false;
  ParkedSession parked_info;

  bool operator==(const CheckpointEntry&) const = default;
};

/// Full deterministic engine state at one quiesce barrier.
struct EngineCheckpoint {
  std::uint64_t seq = 0;       ///< barrier index within the run (0-based)
  double virtual_now = 0.0;    ///< the barrier's virtual time (a multiple of
                               ///< checkpoint_every)
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::uint64_t degrade_enters = 0;
  bool degraded = false;
  double makespan_cycles = 0.0;
  std::uint64_t peak_sessions = 0;
  double platform_cycles_base = 0.0;
  double platform_cycles_optimized = 0.0;
  std::vector<CheckpointShard> shards;
  /// Per-admission virtual sojourn times, admission order.
  std::vector<double> latencies;
  /// Every admitted session so far, arrival order.
  std::vector<CheckpointEntry> entries;
  TrafficGeneratorState generator;

  bool operator==(const EngineCheckpoint&) const = default;

  std::uint64_t admitted() const {
    return static_cast<std::uint64_t>(entries.size());
  }
};

/// Appends the kCheckpoint chunk payload for `cp` to `out`.
void encode_checkpoint(std::vector<std::uint8_t>& out,
                       const EngineCheckpoint& cp);

/// Decodes one kCheckpoint chunk payload.  Structural damage — truncation,
/// overlong varints, trailing garbage, out-of-range enums, even slab-handle
/// generations, impossible counts — throws a typed replay::ReplayError;
/// nothing is clamped or guessed.
EngineCheckpoint decode_checkpoint(const std::vector<std::uint8_t>& payload);

/// Semantic validation beyond what decoding can see: entry/latency/admitted
/// count agreement, per-shard digest chains recomputed from the finalized
/// entries and compared against the stored values, shard indices in range,
/// monotone completions, parked-handle hygiene.  Throws
/// replay::ReplayError(kMalformed) on any violation — this is what stands
/// between a CRC-valid-but-corrupt checkpoint and the engine.
void validate_checkpoint(const EngineCheckpoint& cp);

/// The checkpoint-vs-run fit rules: the shard count matches `shards`, no
/// more arrivals were offered than the scenario holds, every entry sits on
/// the shard its id routes to, parked entries name an existing phase and
/// distinct ids, and the generator cursor is one the scenario can reach
/// (for a program: phase_idx in range, phase_done within that phase, and
/// next_id equal to the sessions of the earlier phases plus phase_done).
/// Throws replay::ReplayError(kMalformed) on the first misfit.  Both
/// resume paths call it before any session is pushed: resume_run lets the
/// typed error through, Engine::run(scenario, checkpoint) rethrows it as
/// std::logic_error.
void check_checkpoint_fits(const EngineCheckpoint& cp,
                           const TrafficScenario& scenario, unsigned shards);

}  // namespace wsp::server

// Record/replay of whole engine runs (docs/benchmarks.md §replay).
//
// A RunRecord captures everything a run's deterministic outputs depend on —
// scenario (seed, record size, phase program), EngineConfig (shards,
// capacities, fault plan), the calibrated platform costs baked into the
// recording binary, and the recording git_rev — plus the expected outcome:
// every deterministic RunReport field, the per-shard event digests, and the
// full per-session event stream.  Encoded with the support/replay codec
// (varint + delta ids + bit-exact doubles, CRC-framed chunks), a typical
// record is a few KB for a few hundred sessions.
//
// One writer, one reader, one re-run.  A RunRecorder writes every trace,
// incrementally: inputs first, then one kCheckpoint chunk per checkpoint
// barrier, then the report/events/end tag once the run completes; a run
// killed by a CrashFault leaves a torn trace (inputs + some checkpoints, no
// end tag).  One chunk walker reads both shapes through two entry points:
// decode_run_record() demands a complete trace and throws a typed
// ReplayError on any damage, scan_trace_for_resume() stops at the first
// tear.  resume_run() re-runs the engine from the inputs — or from the last
// valid checkpoint — at ANY thread count, since threads are outside the
// determinism contract, and, for a complete trace, verifies the outcome
// bit-exactly through compare_reports(), naming every mismatching field.  A
// calibration mismatch (the binary's calibrated_costs differ from the
// recording's) is refused while reading, before the engine even runs, so a
// replay on a drifted build fails loudly instead of chasing phantom
// regressions (docs/recovery.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/checkpoint.h"
#include "server/engine.h"
#include "support/replay.h"

namespace wsp::server {

/// Chunk tags of the wsp-replay-v1 run-record layout.
enum class RecordChunk : std::uint64_t {
  kMeta = 1,      ///< git_rev, recorded thread count
  /// TrafficScenario.  Records of earlier builds may hold a flat scenario
  /// (no phases); decoding lowers it to a one-phase program.
  kScenario = 2,
  kConfig = 3,    ///< EngineConfig (minus threads) + FaultConfig
  kCosts = 4,     ///< calibrated base/opt PlatformCosts of the recorder
  kReport = 5,    ///< deterministic RunReport scalars + per-shard reports
  kEvents = 6,    ///< per-session event stream (delta-coded ids)
  /// The .wsp source text the scenario was compiled from (optional,
  /// informational).  Replay always runs from the lowered kScenario chunk;
  /// pre-existing binaries skip this tag, so no format version bump.
  kScenarioSource = 7,
  /// One barrier's EngineCheckpoint (server/checkpoint.h), appended
  /// after the input chunks by RunRecorder.  Pre-existing binaries skip the
  /// unknown tag, so completed traces with checkpoints still replay on
  /// them; only the resume path reads these.
  kCheckpoint = 8,
};

struct RunRecord {
  std::string git_rev;            ///< of the recording binary
  unsigned recorded_threads = 1;  ///< informational; replay may differ
  TrafficScenario scenario;
  /// .wsp text the scenario was compiled from; empty for hand-built
  /// scenarios and for records written before the scenario compiler.
  std::string scenario_source;
  EngineConfig config;            ///< threads carried but not authoritative
  RunReport report;               ///< deterministic fields + events only
};

/// The in-memory codec pair.  encode_run_record writes the chunks a
/// RunRecorder writes for a finished run without checkpoints.
std::vector<std::uint8_t> encode_run_record(const RunRecord& record);

/// Reads a complete trace strictly.  Throws replay::ReplayError on any
/// malformed/truncated/version-skewed input, with its kind and byte offset;
/// a structurally valid stream missing a required chunk, or whose scenario
/// TrafficScenario::validate() rejects, or whose checkpoints fail the
/// checks scan_trace_for_resume applies, is ErrorKind::kMalformed.  Throws
/// exactly when scan_trace_for_resume() would not call the trace complete.
RunRecord decode_run_record(const std::vector<std::uint8_t>& bytes);

struct ReplayResult {
  std::vector<std::string> mismatches;  ///< empty = bit-identical
  RunReport report;                     ///< the re-run's report

  bool ok() const { return mismatches.empty(); }
};

/// Field-by-field comparison of two reports' deterministic sections —
/// scalars, latency quantiles, per-shard reports (event digests first) and
/// the full event streams.  Returns one human-readable line per mismatch;
/// empty = bit-identical.  NaN latencies compare equal.  The one report
/// equality: resume_run verifies with it, and the bench gates and tests
/// compare two runs with `compare_reports(a, b).empty()` (both runs need
/// record_events for their event streams to match).
std::vector<std::string> compare_reports(const RunReport& want,
                                         const RunReport& got);

/// The worker count a replay or resume runs at: `threads_override` when
/// nonzero, else the recorded count capped to [1, hardware threads].  The
/// recorded count comes from an untrusted trace, and reports do not depend
/// on it, so a crafted value must not decide how many threads start.
unsigned replay_threads(unsigned recorded_threads, unsigned threads_override);

// --- incremental recording + crash/resume ----------------------------------

/// The wsp-replay-v1 writer and the standard CheckpointSink: the
/// input chunks (meta/scenario/source/config/costs) are written by the
/// constructor, each on_checkpoint() appends one kCheckpoint chunk (flushed
/// to the OS immediately, so a later kill loses at most the bytes after the
/// last barrier), and finish() completes the trace with report + events +
/// end tag.  The whole stream is mirrored in memory; `path` may be empty
/// for memory-only recording (tests, fuzzing).
///
/// Expected use:
///
///   RunRecorder rec(cfg, scenario, src, "run.wspr");
///   Engine engine(rec.engine_config());
///   try { rec.finish(engine.run(scenario)); }
///   catch (const CrashFault&) { rec.crash(); }   // trace left torn
///
class RunRecorder final : public CheckpointSink {
 public:
  /// Resolves `config` (auto-shards, clamps) exactly like Engine would and
  /// writes the input chunks.  Throws std::invalid_argument on an invalid
  /// config and replay-layer errors never; file I/O failures are reported
  /// through ok()/error(), not exceptions.
  RunRecorder(const EngineConfig& config, const TrafficScenario& scenario,
              std::string scenario_source = {}, const std::string& path = {});
  ~RunRecorder() override;

  /// The resolved config to build the recording Engine from: record_events
  /// on, checkpoint_sink pointing at this recorder, checkpoint_every as the
  /// caller configured it.
  EngineConfig engine_config();

  void on_checkpoint(const EngineCheckpoint& checkpoint) override;

  /// Writes the report/events chunks and the end tag, closing the file.
  /// Returns ok() — false when any write failed.
  bool finish(const RunReport& report);

  /// Abandons the trace mid-stream (simulated process death): the file is
  /// closed WITHOUT the end tag and, when `torn_tail_bytes` > 0, that many
  /// bytes are torn off the tail — a write that died partway through a
  /// checkpoint chunk.  The memory mirror is torn identically.
  void crash(std::size_t torn_tail_bytes = 0);

  /// The stream so far (post-crash: already torn).
  const std::vector<std::uint8_t>& bytes() const;
  std::size_t checkpoints() const { return checkpoint_offsets_.size(); }
  /// Byte offset of each kCheckpoint chunk's first header byte — the tear
  /// boundaries the fuzzer truncates at.
  const std::vector<std::size_t>& checkpoint_offsets() const {
    return checkpoint_offsets_;
  }
  bool ok() const;
  /// Empty while ok(); otherwise the first file-sink failure, with path.
  std::string error() const;

 private:
  struct Tee;  // VectorSink mirror + optional FileSink

  EngineConfig resolved_;
  std::string path_;
  std::unique_ptr<Tee> tee_;
  std::unique_ptr<replay::ChunkWriter> writer_;
  std::vector<std::size_t> checkpoint_offsets_;
  bool closed_ = false;
};

/// What a resume scan found in a (possibly torn) trace.
struct ResumeScan {
  /// Inputs are always populated; report/events only when `complete`.
  RunRecord record;
  /// Trace carries the end tag plus report and events: a finished run.
  bool complete = false;
  /// Every checkpoint up to the first tear, stream order (seq 0, 1, ...).
  std::vector<EngineCheckpoint> checkpoints{};
  /// Bytes consumed before the scan stopped (tear point or stream end).
  std::size_t scanned_bytes = 0;
  /// Empty for a clean scan; otherwise why it stopped early (the tear).
  std::string tear{};
};

/// Reads a possibly torn trace for crash recovery, through the same chunk
/// walker as decode_run_record.  The input chunks MUST decode — any
/// error before meta/scenario/config/costs are all present is rethrown
/// (such a trace identifies no run to resume), as is a calibration
/// mismatch against this binary.  PAST the inputs, damage is expected —
/// that is what a crash leaves behind — so framing/CRC/decode/validation
/// failures stop the scan at the last good chunk and are reported in
/// `tear` instead of thrown.  Checkpoints must arrive in seq order with
/// strictly increasing virtual_now; a violator is treated as the tear.
/// When the trace holds a flat scenario of an earlier build, each
/// checkpoint's generator state is mapped onto the lowered one-phase
/// program (phase_done = next_id, phase_entered = true).
ResumeScan scan_trace_for_resume(const std::vector<std::uint8_t>& bytes);

/// The one re-run: restores the scan's last valid checkpoint and continues
/// the run at replay_threads() workers (the resume determinism contract
/// covers any count).  With no checkpoint the run starts from the
/// beginning — a plain replay is `resume_run({decode_run_record(bytes),
/// true})`, and a torn trace with none left still resumes: recovery work
/// is what checkpoints buy.  Never re-crashes regardless of the recorded
/// fault config.  When the scan is `complete`, the re-run's report is
/// verified against the recorded one with compare_reports(); for torn
/// traces mismatches stays empty — the caller compares against an
/// uninterrupted reference run instead.
/// Throws replay::ReplayError(kMalformed) when the checkpoint does not fit
/// the recorded scenario/config (CRC-valid corruption).
ReplayResult resume_run(const ResumeScan& scan, unsigned threads_override = 0);

}  // namespace wsp::server

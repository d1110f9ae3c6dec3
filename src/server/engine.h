// wsp::server::Engine — the secure-session server: concurrent session
// execution over the sharded table and record scheduler, with a
// deterministic virtual-time queueing model for admission control and
// latency accounting.
//
// Two timelines run side by side:
//
//   * VIRTUAL (platform cycles), owned by VirtualModel (virtual_model.h):
//     each session's crypto work is priced through the ssl::workload cost
//     model (transaction_cost), and each shard is modeled as a FIFO service
//     unit with a bounded waiting room of `queue_capacity` sessions.
//     Arrivals, admissions, DROPS, queue depths, latencies and throughput
//     all live on this timeline and are computed in arrival order on the
//     calling thread — bit-identical for any worker-thread count.
//
//   * REAL (host), owned by DataPlane (data_plane.h): every admitted
//     session actually performs its handshake (real RSA), record stream
//     (real MAC-then-encrypt seal/open) and teardown on the thread pool via
//     the RecordScheduler, which bounds real queue memory through blocking
//     backpressure.  Completed-session counts and per-session byte totals
//     come from this execution; they are deterministic because every
//     session's randomness is derived from its own seed.
//
// run() loops over arrivals: fire due quiesce barriers, check the crash
// deadline, model.offer, plane.admit; restored parked entries take the
// same admit path.  The data plane drains in its destructor, so every
// exception unwinds with no worker in flight.
//
// Fault injection and recovery (docs/faults.md): when EngineConfig.faults
// carries nonzero rates, a FaultPlan derives each session's schedule purely
// from (scenario seed, session id).  Real execution runs the repair ladder
// (retransmit → rekey → abort) against genuinely corrupted wire bytes; the
// virtual timeline prices the same schedule — failed handshakes with
// bounded exponential backoff, retransmission surcharge, stalls — so both
// timelines stay deterministic for any `--threads`.  When the modeled
// in-system depth crosses `degrade_depth` the engine enters degrade mode:
// it sheds load (halved waiting rooms) and halves the record batch until
// depth falls back under half the threshold (hysteresis).
//
// The determinism contract (what `--threads N` may never change) is spelled
// out in docs/server.md.
#pragma once

#include <cstdint>
#include <vector>

#include "server/faults.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "server/traffic.h"
#include "ssl/workload.h"

namespace wsp::server {

struct EngineCheckpoint;  // full definition in server/checkpoint.h

/// Receives each quiesce-barrier checkpoint as it is taken (EngineConfig::
/// checkpoint_sink).  Called on the engine's run() thread while the data
/// plane is fully drained; the checkpoint reference is valid only for the
/// duration of the call.  Implementations must not call back into the
/// engine.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  virtual void on_checkpoint(const EngineCheckpoint& checkpoint) = 0;
};

/// Which platform configuration prices the virtual service times.
enum class Pricing { kBase, kOptimized };

/// Fig. 8 component costs measured on the ISS (seed 21, RSA-1024, 3DES
/// record cipher) — the bench_fig8/bench_report measurement, baked in so
/// the server's virtual timeline never depends on re-running the ISS.
ssl::PlatformCosts calibrated_costs(Pricing pricing);

/// Validated by Engine's constructor: queue_capacity and record_batch must
/// be positive, rsa_bits at least 512, and the fault rates well-formed —
/// violations throw std::invalid_argument instead of being silently
/// clamped.  `threads` is host-dependent anyway and is clamped to >= 1.
struct EngineConfig {
  unsigned threads = 1;          ///< worker threads (clamped >= 1)
  /// Session-table / scheduler / service shards.  0 (the default) resolves
  /// to the hardware core count (clamped to [1, 64]) in Engine's
  /// constructor — read it back via config().shards.  NOTE: the shard
  /// count shapes the virtual queueing model, so results are deterministic
  /// *per shard count*; benches and replay pin an explicit value.
  unsigned shards = 0;
  std::size_t queue_capacity = 64;  ///< per-shard waiting room AND real bound
  std::size_t record_batch = 16;    ///< records per execution quantum
  std::size_t rsa_bits = 512;    ///< server key size for the real handshakes
  Pricing pricing = Pricing::kOptimized;  ///< service-time platform
  FaultConfig faults;            ///< all-zero rates (default) = no injection
  /// Total modeled in-system sessions that trips degrade mode; 0 disables.
  /// Exit is at degrade_depth / 2 (hysteresis, so the mode cannot flap on
  /// every arrival).
  std::size_t degrade_depth = 0;
  /// Fill RunReport.events with the per-session outcome stream (arrival
  /// order).  Off by default: the record/replay layer (server/record.h)
  /// turns it on; large-scale benches leave it off to avoid the per-session
  /// allocation.  Per-shard event digests are computed either way.
  bool record_events = false;
  /// Virtual-cycle interval between quiesce-barrier checkpoints (0 = off,
  /// validated finite and >= 0).  At every multiple, before admitting the
  /// arrival that crossed it, the engine drains the scheduler and hands a
  /// full EngineCheckpoint to `checkpoint_sink`.  Barriers fire only when a
  /// sink is installed.  Checkpoint content is deterministic
  /// (docs/recovery.md); the host-side cost is the drain, so pick intervals
  /// per run, not per arrival.
  double checkpoint_every = 0.0;
  /// Where checkpoints go (borrowed, not owned; nullptr = no barriers).
  /// server/record.h's RunRecorder is the standard sink, appending
  /// kCheckpoint chunks to the run's trace.
  CheckpointSink* checkpoint_sink = nullptr;
};

/// One admitted session's deterministic outcome — the unit of the replay
/// event stream.  Every field is identical for any --threads value.
struct SessionEvent {
  std::uint64_t id = 0;
  std::uint32_t shard = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t records = 0;
  std::uint32_t retries = 0;
  std::uint32_t repairs = 0;
  std::uint32_t faults = 0;
  bool completed = false;  ///< false = aborted (no third outcome exists)

  /// FNV-1a over every field; the per-shard event digests chain these.
  std::uint64_t digest() const;

  bool operator==(const SessionEvent&) const = default;
};

/// One step of a per-shard events-digest chain (ShardReport::events_digest,
/// CheckpointShard::events_digest): folds `event`'s digest into `chain`.
std::uint64_t chain_event(std::uint64_t chain, const SessionEvent& event);

struct LatencyStats {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;  ///< virtual cycles
};

struct ShardReport {
  std::uint64_t admitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t retried = 0;
  std::uint64_t repaired = 0;
  std::uint64_t faults_injected = 0;
  std::size_t peak_virtual_depth = 0;
  /// FNV-1a chain over this shard's SessionEvent digests in arrival order:
  /// one number that pins the shard's whole deterministic event stream
  /// (replay verification compares these before diving into events).
  std::uint64_t events_digest = 0;
};

struct RunReport {
  // --- deterministic (identical for any --threads) ---
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;  ///< sessions fully executed and torn down
  std::uint64_t dropped = 0;
  /// Recovery accounting.  Leak invariant: completed + aborted == admitted.
  std::uint64_t aborted = 0;    ///< sessions that exhausted recovery budgets
  std::uint64_t retried = 0;    ///< record retransmissions + handshake retries
  std::uint64_t repaired = 0;   ///< rekey() repairs that revived a session
  std::uint64_t faults_injected = 0;  ///< wire flips + corrupted handshakes
  std::uint64_t shed = 0;       ///< drops caused by degrade-mode shedding
  std::uint64_t degrade_enters = 0;  ///< times degrade mode engaged
  std::uint64_t records = 0;
  std::uint64_t wire_bytes = 0;
  /// FNV-1a over (id, wire_bytes, records) in arrival order, folded to 32
  /// bits: one number that pins every per-session byte total.  Aborted
  /// sessions mix their partial totals plus an 0xAB tag, so benign runs
  /// keep their historical digests.
  std::uint32_t bytes_digest = 0;
  LatencyStats latency;
  double makespan_cycles = 0.0;  ///< last virtual completion
  double throughput_per_gcycle = 0.0;  ///< completed sessions per 1e9 cycles
  std::size_t peak_virtual_depth = 0;  ///< max modeled queue depth, any shard
  std::size_t peak_sessions = 0;  ///< max concurrent live sessions (virtual)
  double mean_service_cycles = 0.0;
  /// Structural bytes one live session costs in the data plane (hot slab
  /// slot + cold key block + index share) — SessionTable::bytes_per_session.
  /// A property of the build, so it sits on the deterministic side.
  std::uint64_t memory_per_session = 0;
  /// Total crypto work of the completed sessions priced through the cost
  /// model for both platform configurations ("platform-equivalent" cost).
  double platform_cycles_base = 0.0;
  double platform_cycles_optimized = 0.0;
  double equivalent_speedup = 0.0;
  std::vector<ShardReport> shards;
  /// Per-session outcome stream in arrival order; empty unless
  /// EngineConfig.record_events was set (see server/record.h).
  std::vector<SessionEvent> events;

  // --- intentionally non-deterministic (host-dependent) ---
  std::uint64_t wall_ns = 0;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t failed_tasks = 0;  ///< scheduler-contained raw task failures
  std::size_t peak_real_depth = 0;
  unsigned threads = 1;
};

class Engine {
 public:
  /// Throws std::invalid_argument on an invalid config (see EngineConfig).
  explicit Engine(const EngineConfig& config);

  /// Offers the scenario's traffic — its phase program
  /// (TrafficScenario.phases, docs/scenarios.md) — executes every admitted
  /// session to completion, and reports.
  /// Synchronous; callable repeatedly.  Throws std::invalid_argument on a
  /// degenerate scenario (TrafficScenario::validate).  When
  /// config.faults.crash_at_cycles (or a phase overlay's) is armed, throws
  /// CrashFault at the first arrival at/after the earliest such deadline —
  /// after firing every checkpoint barrier due at or before it.
  RunReport run(const TrafficScenario& scenario);

  /// Resume form: restores `checkpoint` (taken by a checkpoint sink during
  /// an earlier run of the SAME scenario under the SAME deterministic
  /// config) and continues the run from that barrier.  The resulting report
  /// is bit-identical to the uninterrupted run's on every deterministic
  /// field, for any --threads value (docs/recovery.md).  A checkpoint that
  /// does not fit the scenario or config (check_checkpoint_fits) throws
  /// std::logic_error before any session is pushed; use server/record.h's
  /// resume path for typed validation of untrusted traces.
  RunReport run(const TrafficScenario& scenario,
                const EngineCheckpoint& checkpoint);

  const EngineConfig& config() const { return config_; }

 private:
  RunReport run_internal(const TrafficScenario& scenario,
                         const EngineCheckpoint* checkpoint);

  EngineConfig config_;
};

}  // namespace wsp::server

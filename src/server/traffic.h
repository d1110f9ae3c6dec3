// Deterministic, seeded traffic generation for the secure-session engine.
//
// Two arrival models, both driven entirely by one seeded Rng and the
// engine's *virtual* clock (platform cycles), so the offered stream — ids,
// arrival times, cipher/size mix, per-session seeds — is bit-identical for
// a fixed scenario regardless of worker-thread count or host speed:
//
//   * open loop:   sessions arrive with exponential inter-arrival times at
//     `offered_load` times the modeled aggregate service capacity;
//     arrivals never wait for completions (the overload knob: load > 1
//     must produce drops);
//   * closed loop: a fixed population of `users`, each issuing its next
//     session when the previous one completes (plus exponential think
//     time) — the classic benchmark-client shape.
//
// A scenario is a PROGRAM: a non-empty `phases` list, compiled from a .wsp
// file (src/scenario, docs/scenarios.md) or built by hand.  It is the only
// scenario form; traces of earlier builds that stored a flat parameter set
// are lowered to a one-phase program when they are decoded
// (server/record.cpp).  The phases execute back to back on the virtual
// clock; each carries its own arrival model, load/population, WEIGHTED
// cipher×size mix (by default the Fig. 8 measurement grid, 1KB..32KB,
// crossed with the three record ciphers, unit weights), resumption fraction
// and optional fault overlay.  Per arrival the generator draws, in this
// fixed order: arrival time, cipher, size, session seed, and — only when
// the phase's resume_fraction is strictly between 0 and 1 — the resume
// coin.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "server/faults.h"
#include "ssl/ssl.h"
#include "support/random.h"

namespace wsp::server {

enum class ArrivalModel { kOpenLoop, kClosedLoop };

/// One weighted entry of a phase's cipher mix.  Weights are relative
/// (integers >= 1); unit weights draw uniformly.
struct CipherMix {
  ssl::Cipher cipher = ssl::Cipher::kRc4;
  std::uint32_t weight = 1;
};

/// One weighted entry of a phase's transaction-size mix.
struct SizeMix {
  std::size_t bytes = 0;
  std::uint32_t weight = 1;
};

/// One phase of a traffic program: `sessions` arrivals under one parameter
/// set.  The defaults are the paper's Fig. 8 grid under a steady open loop;
/// a .wsp `phase` block (src/scenario/sema.cpp) overrides them, and
/// hand-built phases must set `sessions` and satisfy
/// TrafficScenario::validate().
struct TrafficPhase {
  std::string name;           ///< diagnostic label ("flash", "night", ...)
  std::size_t sessions = 0;   ///< arrivals this phase offers (> 0)
  ArrivalModel model = ArrivalModel::kOpenLoop;
  double offered_load = 0.6;  ///< open loop, fraction of modeled capacity
  unsigned users = 8;         ///< closed loop population
  double think_cycles = 0.0;  ///< closed loop mean think time
  /// Fraction of this phase's sessions that resume with cached credentials
  /// (abbreviated handshake, resumed pricing).  0 = all full handshakes,
  /// 1 = all resumed; in between, a per-arrival deterministic coin.
  double resume_fraction = 0.0;
  std::vector<CipherMix> cipher_mix = {{ssl::Cipher::kTripleDesCbc, 1},
                                       {ssl::Cipher::kAes128Cbc, 1},
                                       {ssl::Cipher::kRc4, 1}};
  std::vector<SizeMix> size_mix = {{1024, 1}, {2048, 1},  {4096, 1},
                                   {8192, 1}, {16384, 1}, {32768, 1}};
  /// Overrides the engine's FaultConfig for sessions arriving in this phase
  /// (rekey storms, adversarial floods); nullopt inherits the engine's.
  std::optional<FaultConfig> faults;
};

struct TrafficScenario {
  std::uint64_t seed = 1;
  std::size_t record_bytes = 1024;
  /// The traffic program; the phases execute back to back.
  std::vector<TrafficPhase> phases;

  /// Total arrivals the scenario offers (the sum over its phases).
  std::size_t total_sessions() const;

  /// Rejects degenerate scenarios with std::invalid_argument: no phases,
  /// zero sessions, empty mixes, zero mix weights or sizes, non-finite or
  /// non-positive offered_load, negative/non-finite think_cycles, zero
  /// users on a closed loop, resume fractions outside [0, 1], bad fault
  /// overlays, zero record_bytes.  Engine::run calls this before touching
  /// any state.
  void validate() const;
};

struct SessionArrival {
  std::uint64_t id = 0;
  double at_cycles = 0.0;  ///< virtual arrival time
  unsigned user = 0;       ///< closed loop: issuing user
  ssl::Cipher cipher = ssl::Cipher::kRc4;
  std::size_t transaction_bytes = 0;
  std::uint64_t session_seed = 0;
  std::uint32_t phase = 0;  ///< index into scenario.phases
  /// Whether THIS session resumes (the phase's resume_fraction, possibly a
  /// per-arrival deterministic coin).
  bool resume = false;
};

/// The generator's full mutable state — Rng words, id/phase cursors, the
/// virtual-clock cursor and every pending closed-loop arrival.  Snapshotting
/// it at a checkpoint barrier and restoring into a freshly constructed
/// generator (same scenario, same mean-service figures) resumes the arrival
/// stream bit-exactly; the constructor-derived rate/weight tables are pure
/// functions of the scenario and are NOT part of the state.  Serialized into
/// kCheckpoint chunks by server/record.h (docs/recovery.md).
struct TrafficGeneratorState {
  Rng::State rng;
  std::uint64_t next_id = 0;
  double interarrival_mean = 0.0;
  double open_clock = 0.0;
  std::uint64_t phase_idx = 0;
  std::uint64_t phase_done = 0;
  bool phase_entered = false;
  /// Pending closed-loop arrivals as (ready time, user), ascending.  The
  /// heap's pop order is a pure function of this multiset (ties break on the
  /// user index), so rebuilding the heap from the sorted list is exact.
  std::vector<std::pair<double, unsigned>> ready;

  bool operator==(const TrafficGeneratorState&) const = default;
};

class TrafficGenerator {
 public:
  /// One pre-priced mean service figure per phase (same order as
  /// scenario.phases; the engine computes them from each phase's weighted
  /// mix); `service_units` is the number of shards.  Together they convert
  /// each open phase's `offered_load` into an arrival rate.  Throws
  /// std::logic_error on a length mismatch and std::invalid_argument on a
  /// scenario validate() rejects.
  TrafficGenerator(const TrafficScenario& scenario,
                   const std::vector<double>& phase_mean_service_cycles,
                   unsigned service_units);

  /// Next arrival in virtual-time order; nullopt once all arrivals have
  /// been offered (or, closed loop, no user has a pending arrival —
  /// report outcomes to keep the loop running).
  std::optional<SessionArrival> next();

  /// Closed-loop feedback: schedules the issuing user's next arrival at
  /// the session's virtual completion (or, for drops, at the arrival time
  /// itself) plus think time.  No-op for open-loop arrivals and for
  /// arrivals from an already-finished phase.
  void on_outcome(const SessionArrival& arrival, double completion_cycles,
                  bool dropped);

  double interarrival_mean_cycles() const { return interarrival_mean_; }

  /// Snapshot of everything next()/on_outcome() mutate.  Taken BEFORE a
  /// next() call, a later restore() re-draws that same arrival first.
  TrafficGeneratorState state() const;

  /// Restores a snapshot taken from a generator built over the same
  /// scenario and mean-service figures; the subsequent draw sequence is
  /// bit-identical to the original generator's.
  void restore(const TrafficGeneratorState& state);

 private:
  double exp_draw(double mean);
  void enter_phase(std::size_t idx);
  std::size_t pick_weighted(std::uint64_t total,
                            const std::vector<std::uint32_t>& weights);

  TrafficScenario scenario_;
  Rng rng_;
  std::uint64_t next_id_ = 0;
  std::size_t total_sessions_ = 0;
  double interarrival_mean_ = 0.0;
  double open_clock_ = 0.0;

  // Current phase, arrivals emitted within it, and the pre-computed
  // per-phase rate/weight tables.
  std::size_t phase_idx_ = 0;
  std::size_t phase_done_ = 0;
  bool phase_entered_ = false;
  std::vector<double> phase_mean_service_;
  std::vector<double> phase_interarrival_;
  std::vector<std::uint64_t> cipher_weight_total_;
  std::vector<std::uint64_t> size_weight_total_;
  std::vector<std::vector<std::uint32_t>> cipher_weights_;
  std::vector<std::vector<std::uint32_t>> size_weights_;

  // Closed loop: min-heap of (ready time, user), deterministic tie-break
  // on user index.
  using Pending = std::pair<double, unsigned>;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      ready_;
};

}  // namespace wsp::server

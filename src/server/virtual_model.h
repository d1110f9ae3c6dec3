// wsp::server::VirtualModel — the engine's virtual timeline (engine.h) as
// one pure, single-threaded unit: arrivals in, admissions or drops out.
// It owns pricing (per-phase mean service, modeled_service under each
// session's fault schedule), the per-shard virtual FIFO queues, degrade
// hysteresis, and the counters, latencies and platform cycles.  No
// threads, no crypto, no session state, so it runs alone at native speed
// and equals a full Engine::run on every virtual field (docs/server.md
// §2).  Its state is exactly the non-entry part of EngineCheckpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "server/checkpoint.h"
#include "server/engine.h"
#include "server/faults.h"
#include "server/session.h"
#include "server/traffic.h"
#include "ssl/workload.h"

namespace wsp::server {

/// One admitted session as the data plane runs it: everything the pump
/// task needs, decided on the virtual timeline so it is thread-invariant.
struct Admission {
  unsigned shard = 0;
  SessionConfig session;  ///< id, cipher, size, seed, fault schedule
  bool resume = false;    ///< abbreviated handshake instead of RSA
  unsigned handshake_budget = 0;  ///< handshake retries before abort
  std::size_t batch = 1;  ///< records per pump quantum
  /// Virtual completion time; the closed-loop generator schedules the
  /// issuing user's next arrival from it (TrafficGenerator::on_outcome).
  double completion = 0.0;
};

class VirtualModel {
 public:
  /// `config` must be resolved (Engine::config(), so shards > 0) and
  /// `scenario` valid (TrafficScenario::validate).
  VirtualModel(const EngineConfig& config, const TrafficScenario& scenario);

  /// One mean service figure per phase, for the TrafficGenerator.
  const std::vector<double>& phase_means() const { return phase_means_; }

  /// The earliest armed crash_at_cycles across the engine config and every
  /// phase overlay (0 = none).
  double crash_at() const { return crash_at_; }

  /// Offers one arrival: evicts every shard's virtual completions up to
  /// its time, updates degrade mode, then either drops it (nullopt) or
  /// queues and prices it and returns its Admission.
  std::optional<Admission> offer(const SessionArrival& arrival);

  /// The Admission of a parked checkpoint entry (traces of earlier builds):
  /// built exactly as offer() builds a fresh one, under the current
  /// degrade state, without touching the virtual timeline — the session
  /// was priced and queued when it first arrived.  Throws std::out_of_range
  /// on a phase the scenario does not have.
  Admission readmit(const CheckpointEntry& entry) const;

  /// Writes the model's state into the non-entry fields of `cp` (sizing
  /// cp.shards; events digests are the data plane's).
  void capture(EngineCheckpoint& cp) const;
  /// Re-arms the model from a checkpoint that fits the run
  /// (check_checkpoint_fits).
  void restore(const EngineCheckpoint& cp);

  /// Fills the virtual fields of `rep` (rep.shards must be sized to the
  /// shard count): counters, latency quantiles, makespan, peaks, mean
  /// service, platform cycles.  Sorts the latency ledger, so it is the
  /// model's last call.
  void finish(RunReport& rep);

 private:
  struct Shard {
    std::deque<double> completions;  ///< scheduled completion times, FIFO
    double busy_until = 0.0;
    std::uint64_t admitted = 0;
    std::uint64_t dropped = 0;
    std::size_t peak_depth = 0;
  };

  /// The one SessionConfig build and the one degrade batch rule.
  Admission admission(const SessionArrival& arrival,
                      const FaultSchedule& schedule) const;
  /// Pops every completion at or before `now`; returns the in-system total.
  std::size_t evict(double now);
  void update_degrade(std::size_t in_system);

  EngineConfig config_;
  std::size_t record_bytes_;
  ssl::PlatformCosts price_, base_, opt_;
  std::vector<double> phase_means_;
  double mean_service_ = 0.0;
  std::vector<FaultConfig> phase_faults_;
  std::vector<FaultPlan> phase_plans_;
  double crash_at_ = 0.0;

  std::vector<Shard> shards_;
  std::uint64_t offered_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t degrade_enters_ = 0;
  bool degraded_ = false;
  double makespan_ = 0.0;
  std::size_t peak_sessions_ = 0;
  double platform_base_ = 0.0;
  double platform_opt_ = 0.0;
  std::vector<double> latencies_;
};

}  // namespace wsp::server

#include "server/virtual_model.h"

#include <algorithm>
#include <string>

#include "support/trace.h"

namespace wsp::server {

ssl::PlatformCosts calibrated_costs(Pricing pricing) {
  // Component costs from the Fig. 8 ISS measurement (bench::fig8 in
  // bench/figures.cpp, seed 21: RSA-1024 ops, 3DES record cipher on the
  // base and TIE-optimized cores; test_figures keeps the two equal).  Baked in as constants so pricing a
  // session is arithmetic, not an ISS run; the unaccelerated misc/hash
  // shares come from ssl::misc_cost_defaults() either way.
  ssl::PlatformCosts c = ssl::misc_cost_defaults();
  if (pricing == Pricing::kBase) {
    c.rsa_private_cycles = 89884113.0;
    c.rsa_public_cycles = 997801.0;
    c.symmetric_cycles_per_byte = 1660.8;
  } else {
    c.rsa_private_cycles = 3869594.0;
    c.rsa_public_cycles = 175720.0;
    c.symmetric_cycles_per_byte = 44.3;
  }
  return c;
}

namespace {

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double price_one(const ssl::PlatformCosts& costs, std::size_t bytes,
                 bool resumed) {
  return resumed ? ssl::resumed_transaction_cost(costs, bytes).total()
                 : ssl::transaction_cost(costs, bytes).total();
}

/// Bounded exponential backoff after the i-th failed handshake attempt
/// (virtual cycles).
double backoff_cycles(const FaultConfig& fc, unsigned attempt) {
  double b = fc.backoff_base_cycles;
  for (unsigned i = 0; i < attempt && b < fc.backoff_cap_cycles; ++i) b *= 2.0;
  return std::min(b, fc.backoff_cap_cycles);
}

/// Virtual-timeline service time for one session under its fault schedule.
/// This is a queueing MODEL of the recovery machinery, not a cycle-accurate
/// replay of it: what matters is that it is a pure function of the schedule
/// (hence identical for any --threads) and moves in the right direction —
/// failed handshakes add asymmetric work plus backoff, wire flips add a
/// retransmission surcharge, a poisoned record truncates the stream after
/// the doomed repair ladder, a stall adds dead time.
double modeled_service(const ssl::PlatformCosts& price, std::size_t bytes,
                       std::size_t record_bytes, const FaultSchedule& f,
                       const FaultConfig& fc, bool resume) {
  double service = 0.0;
  // A failed full exchange pays both asymmetric operations before the
  // premaster check rejects it; a failed resumption only burns the
  // abbreviated protocol work (the ticket is rejected before any key
  // exchange).  Either way the backoff follows.
  const double failed_attempt_cycles =
      resume ? 0.25 * price.handshake_misc_cycles
             : price.rsa_private_cycles + price.rsa_public_cycles;
  const unsigned failures =
      std::min(f.handshake_failures, fc.handshake_retry_budget + 1);
  for (unsigned i = 0; i < failures; ++i) {
    service += failed_attempt_cycles;
    service += backoff_cycles(fc, i);
  }
  if (f.handshake_failures > fc.handshake_retry_budget) {
    return service;  // aborted before any record moved
  }
  double body = price_one(price, bytes, resume);
  if (f.wire_flip_rate > 0.0) {
    body *= 1.0 + f.wire_flip_rate;  // retransmission surcharge
  }
  if (f.abort_scheduled) {
    const std::uint64_t total_records =
        std::max<std::uint64_t>(1, (bytes + record_bytes - 1) / record_bytes);
    const double per_record = body / static_cast<double>(total_records);
    const double done = std::min<double>(static_cast<double>(f.abort_record),
                                         static_cast<double>(total_records));
    // Stream up to the poisoned record, then the full (losing) repair
    // ladder: budgeted retransmits, one rekey, one last retransmit.
    body = done * per_record +
           static_cast<double>(f.record_retry_budget + 2) * per_record;
  }
  service += body;
  if (f.stall_scheduled) service += f.stall_cycles;
  return service;
}

}  // namespace

VirtualModel::VirtualModel(const EngineConfig& config,
                           const TrafficScenario& scenario)
    : config_(config),
      record_bytes_(scenario.record_bytes),
      price_(calibrated_costs(config.pricing)),
      base_(calibrated_costs(Pricing::kBase)),
      opt_(calibrated_costs(Pricing::kOptimized)),
      shards_(config.shards) {
  // Mean service time: one weighted figure per phase (size-mix weights,
  // blended across the resume fraction); the report carries the
  // session-weighted mean.
  phase_means_.reserve(scenario.phases.size());
  for (const TrafficPhase& ph : scenario.phases) {
    double full = 0.0, resumed = 0.0;
    std::uint64_t wsum = 0;
    for (const SizeMix& m : ph.size_mix) {
      const double w = static_cast<double>(m.weight);
      full += price_one(price_, m.bytes, false) * w;
      resumed += price_one(price_, m.bytes, true) * w;
      wsum += m.weight;
    }
    full /= static_cast<double>(wsum);
    resumed /= static_cast<double>(wsum);
    const double f = ph.resume_fraction;
    phase_means_.push_back(f <= 0.0   ? full
                           : f >= 1.0 ? resumed
                                      : (1.0 - f) * full + f * resumed);
  }
  if (scenario.phases.size() == 1) {
    // Exactly the single phase's figure, with no weighting round-trip:
    // perfbench's phase_means() and the bench baselines pin these bits.
    mean_service_ = phase_means_[0];
  } else {
    double acc = 0.0;
    for (std::size_t i = 0; i < scenario.phases.size(); ++i) {
      acc += phase_means_[i] * static_cast<double>(scenario.phases[i].sessions);
    }
    mean_service_ = acc / static_cast<double>(scenario.total_sessions());
  }

  // Fault plans, one per phase: a .wsp fault overlay replaces the engine's
  // FaultConfig for its phase (rekey storms, adversarial floods).  Every
  // plan keys off the scenario seed, so schedules stay pure in
  // (seed, session id) regardless of which phase a session lands in.  The
  // crash deadline is the earliest armed crash_at_cycles among them and
  // the engine's own; it is detected at arrival granularity.
  crash_at_ = config_.faults.crash_at_cycles;
  phase_plans_.reserve(scenario.phases.size());
  for (const TrafficPhase& ph : scenario.phases) {
    const FaultConfig& fc = ph.faults ? *ph.faults : config_.faults;
    phase_faults_.push_back(fc);
    phase_plans_.emplace_back(fc, scenario.seed);
    if (fc.crash_at_cycles > 0.0 &&
        (crash_at_ <= 0.0 || fc.crash_at_cycles < crash_at_)) {
      crash_at_ = fc.crash_at_cycles;
    }
  }
}

std::size_t VirtualModel::evict(double now) {
  // Every shard, not just the arrival's, so the in-system count — the
  // degrade-mode signal and the peak_sessions source — is exact, not the
  // lazily-evicted per-shard view.
  std::size_t in_system = 0;
  for (Shard& s : shards_) {
    while (!s.completions.empty() && s.completions.front() <= now) {
      s.completions.pop_front();
    }
    in_system += s.completions.size();
  }
  return in_system;
}

void VirtualModel::update_degrade(std::size_t in_system) {
  // Hysteresis: engage at degrade_depth, release only once the system has
  // drained to half of it.
  if (config_.degrade_depth == 0) return;
  if (!degraded_ && in_system >= config_.degrade_depth) {
    degraded_ = true;
    ++degrade_enters_;
    WSP_TRACE_INSTANT_V("server", "degrade/enter",
                        static_cast<double>(in_system));
  } else if (degraded_ && in_system <= config_.degrade_depth / 2) {
    degraded_ = false;
    WSP_TRACE_INSTANT_V("server", "degrade/exit",
                        static_cast<double>(in_system));
  }
}

Admission VirtualModel::admission(const SessionArrival& arrival,
                                  const FaultSchedule& schedule) const {
  Admission a;
  a.shard = static_cast<unsigned>(arrival.id % shards_.size());
  a.session.id = arrival.id;
  a.session.cipher = arrival.cipher;
  a.session.transaction_bytes = arrival.transaction_bytes;
  a.session.record_bytes = record_bytes_;
  a.session.seed = arrival.session_seed;
  a.session.faults = schedule;
  a.resume = arrival.resume;
  a.handshake_budget = phase_faults_[arrival.phase].handshake_retry_budget;
  // Sessions admitted while degraded run at half the record batch: finer
  // quanta interleave shard work and cap how long one session can hold the
  // pump.  A host-side quantum only — outcomes do not depend on it.
  a.batch = degraded_ ? std::max<std::size_t>(1, config_.record_batch / 2)
                      : config_.record_batch;
  return a;
}

std::optional<Admission> VirtualModel::offer(const SessionArrival& arrival) {
  ++offered_;
  const std::size_t in_system = evict(arrival.at_cycles);
  update_degrade(in_system);

  const unsigned shard = static_cast<unsigned>(arrival.id % shards_.size());
  Shard& v = shards_[shard];
  const std::size_t room =
      degraded_ ? std::max<std::size_t>(1, config_.queue_capacity / 2)
                : config_.queue_capacity;
  if (v.completions.size() >= room) {
    ++v.dropped;
    if (degraded_ && v.completions.size() < config_.queue_capacity) {
      ++shed_;  // would have been admitted at full capacity
    }
    WSP_TRACE_INSTANT("server", "drop/shard" + std::to_string(shard));
    return std::nullopt;
  }

  const FaultSchedule schedule =
      phase_plans_[arrival.phase].schedule_for(arrival.id);
  if (schedule.stall_scheduled) {
    WSP_TRACE_INSTANT_V("server.fault", "stall/shard" + std::to_string(shard),
                        schedule.stall_cycles);
  }
  const double service =
      modeled_service(price_, arrival.transaction_bytes, record_bytes_,
                      schedule, phase_faults_[arrival.phase], arrival.resume);
  const double start = std::max(v.busy_until, arrival.at_cycles);
  const double completion = start + service;
  v.busy_until = completion;
  v.completions.push_back(completion);
  v.peak_depth = std::max(v.peak_depth, v.completions.size());
  peak_sessions_ = std::max(peak_sessions_, in_system + 1);
  latencies_.push_back(completion - arrival.at_cycles);
  makespan_ = std::max(makespan_, completion);
  platform_base_ += price_one(base_, arrival.transaction_bytes, arrival.resume);
  platform_opt_ += price_one(opt_, arrival.transaction_bytes, arrival.resume);
  ++v.admitted;

  Admission a = admission(arrival, schedule);
  a.completion = completion;
  return a;
}

Admission VirtualModel::readmit(const CheckpointEntry& entry) const {
  const ParkedSession& p = entry.parked_info;
  SessionArrival arrival;
  arrival.id = entry.event.id;
  arrival.cipher = p.cipher;
  arrival.transaction_bytes = static_cast<std::size_t>(p.transaction_bytes);
  arrival.session_seed = p.session_seed;
  arrival.phase = p.phase;
  arrival.resume = p.resume;
  return admission(arrival, phase_plans_.at(p.phase).schedule_for(arrival.id));
}

void VirtualModel::capture(EngineCheckpoint& cp) const {
  cp.offered = offered_;
  cp.shed = shed_;
  cp.degrade_enters = degrade_enters_;
  cp.degraded = degraded_;
  cp.makespan_cycles = makespan_;
  cp.peak_sessions = peak_sessions_;
  cp.platform_cycles_base = platform_base_;
  cp.platform_cycles_optimized = platform_opt_;
  cp.shards.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    CheckpointShard& csh = cp.shards[s];
    csh.busy_until = shards_[s].busy_until;
    csh.completions.assign(shards_[s].completions.begin(),
                           shards_[s].completions.end());
    csh.admitted = shards_[s].admitted;
    csh.dropped = shards_[s].dropped;
    csh.peak_virtual_depth = shards_[s].peak_depth;
  }
}

void VirtualModel::capture_latencies(EngineCheckpoint& cp,
                                     std::size_t count) const {
  cp.latencies.assign(latencies_.begin(),
                      latencies_.begin() + static_cast<std::ptrdiff_t>(count));
}

void VirtualModel::restore(const EngineCheckpoint& cp) {
  offered_ = cp.offered;
  shed_ = cp.shed;
  degrade_enters_ = cp.degrade_enters;
  degraded_ = cp.degraded;
  makespan_ = cp.makespan_cycles;
  peak_sessions_ = static_cast<std::size_t>(cp.peak_sessions);
  platform_base_ = cp.platform_cycles_base;
  platform_opt_ = cp.platform_cycles_optimized;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const CheckpointShard& csh = cp.shards.at(s);
    shards_[s].busy_until = csh.busy_until;
    shards_[s].completions.assign(csh.completions.begin(),
                                  csh.completions.end());
    shards_[s].admitted = csh.admitted;
    shards_[s].dropped = csh.dropped;
    shards_[s].peak_depth = static_cast<std::size_t>(csh.peak_virtual_depth);
  }
  latencies_ = cp.latencies;
}

void VirtualModel::finish(RunReport& rep) {
  rep.offered = offered_;
  rep.shed = shed_;
  rep.degrade_enters = degrade_enters_;
  rep.makespan_cycles = makespan_;
  rep.peak_sessions = peak_sessions_;
  rep.mean_service_cycles = mean_service_;
  rep.platform_cycles_base = platform_base_;
  rep.platform_cycles_optimized = platform_opt_;
  if (platform_opt_ > 0.0) {
    rep.equivalent_speedup = platform_base_ / platform_opt_;
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardReport& sh = rep.shards.at(s);
    sh.admitted = shards_[s].admitted;
    sh.dropped = shards_[s].dropped;
    sh.peak_virtual_depth = shards_[s].peak_depth;
    rep.admitted += sh.admitted;
    rep.dropped += sh.dropped;
    rep.peak_virtual_depth =
        std::max(rep.peak_virtual_depth, sh.peak_virtual_depth);
  }
  std::sort(latencies_.begin(), latencies_.end());
  rep.latency.p50 = quantile(latencies_, 0.50);
  rep.latency.p90 = quantile(latencies_, 0.90);
  rep.latency.p99 = quantile(latencies_, 0.99);
  rep.latency.max = latencies_.empty() ? 0.0 : latencies_.back();
}

}  // namespace wsp::server

#include "server/traffic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wsp::server {

namespace {

void check(bool ok, const char* msg) {
  if (!ok) throw std::invalid_argument(std::string("traffic: ") + msg);
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

std::size_t TrafficScenario::total_sessions() const {
  std::size_t total = 0;
  for (const TrafficPhase& ph : phases) total += ph.sessions;
  return total;
}

void TrafficScenario::validate() const {
  check(record_bytes > 0, "record_bytes must be > 0");
  check(!phases.empty(), "scenario has no phases");
  for (const TrafficPhase& ph : phases) {
    check(ph.sessions > 0, "phase sessions must be > 0");
    check(!ph.cipher_mix.empty(), "phase has an empty cipher mix");
    check(!ph.size_mix.empty(), "phase has an empty size mix");
    for (const CipherMix& m : ph.cipher_mix) {
      check(m.weight > 0, "cipher mix weights must be > 0");
    }
    for (const SizeMix& m : ph.size_mix) {
      check(m.bytes > 0, "transaction sizes must be > 0");
      check(m.weight > 0, "size mix weights must be > 0");
    }
    if (ph.model == ArrivalModel::kOpenLoop) {
      check(finite_positive(ph.offered_load),
            "offered_load must be finite and > 0");
    } else {
      check(ph.users > 0, "closed loop needs users > 0");
    }
    check(std::isfinite(ph.think_cycles) && ph.think_cycles >= 0.0,
          "think_cycles must be finite and >= 0");
    check(std::isfinite(ph.resume_fraction) && ph.resume_fraction >= 0.0 &&
              ph.resume_fraction <= 1.0,
          "resume_fraction must be in [0, 1]");
    if (ph.faults) ph.faults->validate();
  }
}

TrafficGenerator::TrafficGenerator(
    const TrafficScenario& scenario,
    const std::vector<double>& phase_mean_service_cycles,
    unsigned service_units)
    : scenario_(scenario), rng_(scenario.seed) {
  if (phase_mean_service_cycles.size() != scenario_.phases.size()) {
    throw std::logic_error(
        "traffic: one mean service figure per phase is required");
  }
  scenario_.validate();
  total_sessions_ = scenario_.total_sessions();
  phase_mean_service_ = phase_mean_service_cycles;
  const double units = static_cast<double>(std::max(1u, service_units));
  phase_interarrival_.reserve(scenario_.phases.size());
  for (std::size_t i = 0; i < scenario_.phases.size(); ++i) {
    const TrafficPhase& ph = scenario_.phases[i];
    phase_interarrival_.push_back(
        ph.model == ArrivalModel::kOpenLoop
            ? phase_mean_service_[i] / (units * ph.offered_load)
            : 0.0);
    std::uint64_t ctotal = 0, stotal = 0;
    std::vector<std::uint32_t> cw, sw;
    for (const CipherMix& m : ph.cipher_mix) {
      ctotal += m.weight;
      cw.push_back(m.weight);
    }
    for (const SizeMix& m : ph.size_mix) {
      stotal += m.weight;
      sw.push_back(m.weight);
    }
    cipher_weight_total_.push_back(ctotal);
    size_weight_total_.push_back(stotal);
    cipher_weights_.push_back(std::move(cw));
    size_weights_.push_back(std::move(sw));
  }
}

double TrafficGenerator::exp_draw(double mean) {
  if (mean <= 0.0) return 0.0;
  // Inverse-CDF with u in [0, 1); 1-u is in (0, 1] so log() is finite.
  return -mean * std::log(1.0 - rng_.next_double());
}

void TrafficGenerator::enter_phase(std::size_t idx) {
  const TrafficPhase& ph = scenario_.phases[idx];
  interarrival_mean_ = phase_interarrival_[idx];
  if (ph.model == ArrivalModel::kClosedLoop) {
    // A fresh population: leftover pending arrivals from an earlier closed
    // phase are dropped, and the new users' first arrivals are staggered
    // across one mean think (or service) interval from the current
    // virtual-clock cursor, so they don't all collide at the phase start.
    ready_ = {};
    const double spread =
        ph.think_cycles > 0.0 ? ph.think_cycles : phase_mean_service_[idx];
    for (unsigned u = 0; u < ph.users; ++u) {
      ready_.emplace(open_clock_ + exp_draw(spread), u);
    }
  }
  phase_entered_ = true;
}

std::size_t TrafficGenerator::pick_weighted(
    std::uint64_t total, const std::vector<std::uint32_t>& weights) {
  // One Rng draw; with unit weights `total == weights.size()`, so the
  // consumed value AND the picked index equal a uniform `below(n)`.
  std::uint64_t r = rng_.below(total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  return weights.size() - 1;  // unreachable: r < total == sum(weights)
}

std::optional<SessionArrival> TrafficGenerator::next() {
  if (next_id_ >= total_sessions_) return std::nullopt;
  SessionArrival a;
  while (phase_done_ >= scenario_.phases[phase_idx_].sessions) {
    ++phase_idx_;
    phase_done_ = 0;
    phase_entered_ = false;
  }
  if (!phase_entered_) enter_phase(phase_idx_);
  const TrafficPhase& ph = scenario_.phases[phase_idx_];
  if (ph.model == ArrivalModel::kOpenLoop) {
    open_clock_ += exp_draw(interarrival_mean_);
    a.at_cycles = open_clock_;
  } else {
    if (ready_.empty()) return std::nullopt;  // all users awaiting outcomes
    const auto [at, user] = ready_.top();
    ready_.pop();
    a.at_cycles = at;
    a.user = user;
    // Keep the cursor monotone so a following open phase resumes from the
    // latest arrival, not from before this phase ran.
    open_clock_ = std::max(open_clock_, at);
  }
  a.id = next_id_++;
  ++phase_done_;
  a.phase = static_cast<std::uint32_t>(phase_idx_);
  a.cipher =
      ph.cipher_mix[pick_weighted(cipher_weight_total_[phase_idx_],
                                  cipher_weights_[phase_idx_])]
          .cipher;
  a.transaction_bytes =
      ph.size_mix[pick_weighted(size_weight_total_[phase_idx_],
                                size_weights_[phase_idx_])]
          .bytes;
  a.session_seed = rng_.next_u64();
  // The resume coin consumes a draw ONLY for a genuinely mixed fraction, so
  // all-full and all-resumed phases draw exactly four values per arrival.
  if (ph.resume_fraction >= 1.0) {
    a.resume = true;
  } else if (ph.resume_fraction > 0.0) {
    a.resume = rng_.next_double() < ph.resume_fraction;
  }
  return a;
}

TrafficGeneratorState TrafficGenerator::state() const {
  TrafficGeneratorState st;
  st.rng = rng_.state();
  st.next_id = next_id_;
  st.interarrival_mean = interarrival_mean_;
  st.open_clock = open_clock_;
  st.phase_idx = phase_idx_;
  st.phase_done = phase_done_;
  st.phase_entered = phase_entered_;
  // Drain a copy of the heap so the snapshot lists pending arrivals in
  // ascending (time, user) order — a canonical form, so two snapshots of
  // the same logical state compare equal byte for byte.
  auto pending = ready_;
  st.ready.reserve(pending.size());
  while (!pending.empty()) {
    st.ready.push_back(pending.top());
    pending.pop();
  }
  return st;
}

void TrafficGenerator::restore(const TrafficGeneratorState& state) {
  rng_.set_state(state.rng);
  next_id_ = state.next_id;
  interarrival_mean_ = state.interarrival_mean;
  open_clock_ = state.open_clock;
  phase_idx_ = static_cast<std::size_t>(state.phase_idx);
  phase_done_ = static_cast<std::size_t>(state.phase_done);
  phase_entered_ = state.phase_entered;
  ready_ = {};
  for (const auto& pending : state.ready) ready_.push(pending);
}

void TrafficGenerator::on_outcome(const SessionArrival& arrival,
                                  double completion_cycles, bool dropped) {
  // Feedback only drives the arrival's own phase; once the program has
  // moved on, the user population it belonged to is gone.
  if (arrival.phase != phase_idx_) return;
  const TrafficPhase& ph = scenario_.phases[arrival.phase];
  if (ph.model != ArrivalModel::kClosedLoop) return;
  const double base = dropped ? arrival.at_cycles : completion_cycles;
  ready_.emplace(base + exp_draw(ph.think_cycles), arrival.user);
}

}  // namespace wsp::server

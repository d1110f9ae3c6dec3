#include "server/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>

#include "server/checkpoint.h"
#include "server/data_plane.h"
#include "server/virtual_model.h"
#include "support/trace.h"

namespace wsp::server {

namespace {

/// One quiesce barrier (docs/recovery.md): drain the data plane, capture
/// the model and the finalized events, and hand the checkpoint to the
/// sink.  `pre_draw` is the generator state from BEFORE the draw of the
/// arrival that crossed the barrier, so resume re-draws that arrival.
void take_checkpoint(CheckpointSink& sink, std::uint64_t seq, double at,
                     const VirtualModel& model, DataPlane& plane,
                     const TrafficGeneratorState& pre_draw) {
  WSP_TRACE_SPAN("server", "checkpoint");
  plane.quiesce();
  EngineCheckpoint cp;
  cp.seq = seq;
  cp.virtual_now = at;
  model.capture(cp);
  plane.capture(cp);
  cp.generator = pre_draw;
  sink.on_checkpoint(cp);
}

}  // namespace

Engine::Engine(const EngineConfig& config) : config_(config) {
  if (config_.shards == 0) {
    // Auto: scale the data plane with the machine.  Callers that need
    // cross-host reproducible virtual timelines pin an explicit count.
    const unsigned hw = std::thread::hardware_concurrency();
    config_.shards = std::clamp(hw == 0 ? 4u : hw, 1u, 64u);
  }
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument(
        "server: EngineConfig.queue_capacity must be > 0");
  }
  if (config_.record_batch == 0) {
    throw std::invalid_argument(
        "server: EngineConfig.record_batch must be > 0");
  }
  if (config_.rsa_bits < 512) {
    throw std::invalid_argument(
        "server: EngineConfig.rsa_bits must be >= 512");
  }
  config_.faults.validate();
  if (!std::isfinite(config_.checkpoint_every) ||
      config_.checkpoint_every < 0.0) {
    throw std::invalid_argument(
        "server: EngineConfig.checkpoint_every must be finite and >= 0");
  }
  config_.threads = std::max(1u, config_.threads);
}

RunReport Engine::run(const TrafficScenario& scenario) {
  return run_internal(scenario, nullptr);
}

RunReport Engine::run(const TrafficScenario& scenario,
                      const EngineCheckpoint& checkpoint) {
  return run_internal(scenario, &checkpoint);
}

RunReport Engine::run_internal(const TrafficScenario& scenario,
                               const EngineCheckpoint* restore) {
  WSP_TRACE_SPAN("server", "run");
  const auto t0 = std::chrono::steady_clock::now();

  // Reject degenerate scenarios (zero sessions, empty mixes, non-finite
  // loads, ...) and checkpoints that do not fit this run before any state
  // is built.  A misfit is a programming error here (std::logic_error);
  // server/record.h's resume path runs the same rules first as typed
  // validation of untrusted traces.
  scenario.validate();
  if (restore != nullptr) {
    try {
      check_checkpoint_fits(*restore, scenario, config_.shards);
    } catch (const replay::ReplayError& e) {
      throw std::logic_error(std::string("server: ") + e.what());
    }
  }

  VirtualModel model(config_, scenario);
  TrafficGenerator gen(scenario, model.phase_means(), config_.shards);
  DataPlane plane(config_, scenario);

  // Checkpoint barriers fire at every multiple of checkpoint_every on the
  // virtual clock, counting on from the restored barrier.
  CheckpointSink* const sink = config_.checkpoint_sink;
  const double cp_every = config_.checkpoint_every;
  const bool checkpointing = sink != nullptr && cp_every > 0.0;
  std::uint64_t checkpoint_seq = 0;
  double next_cp = cp_every;

  // Restore: re-arm the model, refill the event ledger in arrival order —
  // finalized outcomes verbatim, parked sessions (which only traces of
  // earlier builds carry) admitted like fresh arrivals — and rewind the
  // generator to the pre-draw state.
  if (restore != nullptr) {
    model.restore(*restore);
    for (const CheckpointEntry& e : restore->entries) {
      if (e.parked) {
        plane.admit(model.readmit(e));
      } else {
        plane.restore(e.event);
      }
    }
    gen.restore(restore->generator);
    checkpoint_seq = restore->seq + 1;
    next_cp = restore->virtual_now + cp_every;
  }

  const double crash_at = model.crash_at();
  TrafficGeneratorState pre_draw;
  for (;;) {
    if (checkpointing) pre_draw = gen.state();
    const std::optional<SessionArrival> arrival = gen.next();
    if (!arrival) break;
    // Barriers due at/before this arrival fire first (over the pre-draw
    // generator state), then an armed crash kills the run before the
    // arrival is offered.  The order matters: a barrier scheduled before
    // the crash deadline must reach the trace even when both land between
    // the same two arrivals.
    const double now = arrival->at_cycles;
    const bool crash_now = crash_at > 0.0 && now >= crash_at;
    const double barrier_limit = crash_now ? crash_at : now;
    for (; checkpointing && next_cp <= barrier_limit; next_cp += cp_every) {
      take_checkpoint(*sink, checkpoint_seq++, next_cp, model, plane,
                      pre_draw);
    }
    if (crash_now) throw CrashFault(now, crash_at);

    const std::optional<Admission> admission = model.offer(*arrival);
    // Closed-loop feedback runs on virtual completions (drops: the
    // arrival time), never on the data plane.
    gen.on_outcome(*arrival, admission ? admission->completion : now,
                   /*dropped=*/!admission);
    if (admission) plane.admit(*admission);
  }

  RunReport rep;
  rep.threads = config_.threads;
  rep.shards.resize(config_.shards);
  model.finish(rep);
  plane.fold(rep);
  if (rep.makespan_cycles > 0.0) {
    rep.throughput_per_gcycle =
        static_cast<double>(rep.completed) * 1e9 / rep.makespan_cycles;
  }
  rep.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return rep;
}

}  // namespace wsp::server

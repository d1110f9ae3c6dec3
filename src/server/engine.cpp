#include "server/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <string>
#include <thread>

#include "server/checkpoint.h"
#include "server/data_plane.h"
#include "server/virtual_model.h"
#include "support/trace.h"

namespace wsp::server {

namespace {

/// One checkpoint barrier's cut (docs/recovery.md §1), taken when the
/// barrier fires: the model's O(shards + waiting room) state, the pre-draw
/// generator state (from BEFORE the draw of the arrival that crossed the
/// barrier, so resume re-draws that arrival), and the prefix lengths of
/// the two append-only ledgers.  The O(admitted) entries and latencies are
/// copied only when the cut is emitted.
struct PendingCut {
  EngineCheckpoint cp;
  std::size_t latencies = 0;
  DataPlane::Cut plane;
};

PendingCut cut(std::uint64_t seq, double at, const VirtualModel& model,
               const DataPlane& plane, const TrafficGeneratorState& pre_draw) {
  PendingCut c;
  c.cp.seq = seq;
  c.cp.virtual_now = at;
  model.capture(c.cp);
  c.cp.generator = pre_draw;
  c.latencies = model.latency_count();
  c.plane = plane.cut();
  return c;
}

/// Hands pending cuts to the sink in seq order: each ready one at the
/// front, or with `all` (after a drain) every one — DataPlane::capture
/// throws std::logic_error on a cut the drain left unfinished.
void emit(std::deque<PendingCut>& pending, bool all, CheckpointSink& sink,
          const VirtualModel& model, const DataPlane& plane) {
  while (!pending.empty() && (all || plane.ready(pending.front().plane))) {
    WSP_TRACE_SPAN("server", "checkpoint");
    PendingCut& c = pending.front();
    model.capture_latencies(c.cp, c.latencies);
    plane.capture(c.plane, c.cp);
    sink.on_checkpoint(c.cp);
    pending.pop_front();
  }
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
  // virtual clock, counting on from the restored barrier.  A barrier cuts
  // the admission order and the run keeps admitting: each pending cut goes
  // to the sink, in seq order, once every session admitted before it has
  // finalized, and at the latest after the drain that ends the run or
  // precedes a CrashFault (flush).
  CheckpointSink* const sink = config_.checkpoint_sink;
  const double cp_every = config_.checkpoint_every;
  const bool checkpointing = sink != nullptr && cp_every > 0.0;
  std::uint64_t checkpoint_seq = 0;
  double next_cp = cp_every;
  std::deque<PendingCut> pending;
  const auto flush = [&] {
    if (pending.empty()) return;
    plane.drain();
    emit(pending, /*all=*/true, *sink, model, plane);
  };

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
    // Barriers due at/before this arrival are cut first (over the pre-draw
    // generator state), then an armed crash kills the run before the
    // arrival is offered.  The order matters: a barrier scheduled before
    // the crash deadline must reach the trace even when both land between
    // the same two arrivals, so the crash flushes every pending cut.
    const double now = arrival->at_cycles;
    const bool crash_now = crash_at > 0.0 && now >= crash_at;
    const double barrier_limit = crash_now ? crash_at : now;
    for (; checkpointing && next_cp <= barrier_limit; next_cp += cp_every) {
      pending.push_back(cut(checkpoint_seq++, next_cp, model, plane, pre_draw));
    }
    if (crash_now) {
      flush();
      throw CrashFault(now, crash_at);
    }

    const std::optional<Admission> admission = model.offer(*arrival);
    // Closed-loop feedback runs on virtual completions (drops: the
    // arrival time), never on the data plane.
    gen.on_outcome(*arrival, admission ? admission->completion : now,
                   /*dropped=*/!admission);
    if (admission) plane.admit(*admission);
    if (!pending.empty()) emit(pending, /*all=*/false, *sink, model, plane);
  }
  flush();  // before model.finish sorts the latency ledger

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

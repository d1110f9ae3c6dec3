#include "server/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace wsp::server {

using replay::Cursor;
using replay::ErrorKind;
using replay::ReplayError;
using replay::put_double;
using replay::put_varint;
using replay::put_zigzag;

namespace {

[[noreturn]] void malformed(const Cursor& c, const std::string& detail) {
  throw ReplayError(ErrorKind::kMalformed, c.offset(), detail);
}

bool get_flag(Cursor& c, const char* name) {
  const std::uint64_t v = c.varint();
  if (v > 1) malformed(c, std::string(name) + " flag must be 0 or 1");
  return v != 0;
}

double get_finite(Cursor& c, const char* name) {
  const double v = c.f64();
  if (!std::isfinite(v)) malformed(c, std::string(name) + " is not finite");
  return v;
}

}  // namespace

void encode_checkpoint(std::vector<std::uint8_t>& out,
                       const EngineCheckpoint& cp) {
  put_varint(out, cp.seq);
  put_double(out, cp.virtual_now);
  put_varint(out, cp.offered);
  put_varint(out, cp.shed);
  put_varint(out, cp.degrade_enters);
  put_varint(out, cp.degraded ? 1 : 0);
  put_double(out, cp.makespan_cycles);
  put_varint(out, cp.peak_sessions);
  put_double(out, cp.platform_cycles_base);
  put_double(out, cp.platform_cycles_optimized);

  put_varint(out, cp.shards.size());
  for (const CheckpointShard& sh : cp.shards) {
    put_double(out, sh.busy_until);
    put_varint(out, sh.admitted);
    put_varint(out, sh.dropped);
    put_varint(out, sh.peak_virtual_depth);
    put_varint(out, sh.events_digest);
    put_varint(out, sh.completions.size());
    for (const double at : sh.completions) put_double(out, at);
  }

  put_varint(out, cp.latencies.size());
  for (const double lat : cp.latencies) put_double(out, lat);

  put_varint(out, cp.entries.size());
  std::int64_t prev_id = 0;  // ids ascend in arrival order; delta-code them
  for (const CheckpointEntry& e : cp.entries) {
    put_zigzag(out, static_cast<std::int64_t>(e.event.id) - prev_id);
    prev_id = static_cast<std::int64_t>(e.event.id);
    put_varint(out, e.event.shard);
    put_varint(out, e.parked ? 1 : 0);
    if (e.parked) {
      put_varint(out, e.parked_info.phase);
      put_varint(out, static_cast<std::uint64_t>(e.parked_info.cipher));
      put_varint(out, e.parked_info.transaction_bytes);
      put_varint(out, e.parked_info.session_seed);
      put_varint(out, e.parked_info.resume ? 1 : 0);
      put_varint(out, e.parked_info.handle.slot);
      put_varint(out, e.parked_info.handle.gen);
    } else {
      put_varint(out, e.event.wire_bytes);
      put_varint(out, e.event.records);
      put_varint(out, e.event.retries);
      put_varint(out, e.event.repairs);
      put_varint(out, e.event.faults);
      put_varint(out, e.event.completed ? 1 : 0);
    }
  }

  const TrafficGeneratorState& g = cp.generator;
  for (int i = 0; i < 4; ++i) put_varint(out, g.rng.s[i]);
  put_varint(out, g.next_id);
  put_double(out, g.interarrival_mean);
  put_double(out, g.open_clock);
  put_varint(out, g.phase_idx);
  put_varint(out, g.phase_done);
  put_varint(out, g.phase_entered ? 1 : 0);
  put_varint(out, g.ready.size());
  for (const auto& [at, user] : g.ready) {
    put_double(out, at);
    put_varint(out, user);
  }
}

EngineCheckpoint decode_checkpoint(const std::vector<std::uint8_t>& payload) {
  Cursor c(payload);
  EngineCheckpoint cp;
  cp.seq = c.varint();
  cp.virtual_now = get_finite(c, "virtual_now");
  cp.offered = c.varint();
  cp.shed = c.varint();
  cp.degrade_enters = c.varint();
  cp.degraded = get_flag(c, "degraded");
  cp.makespan_cycles = get_finite(c, "makespan_cycles");
  cp.peak_sessions = c.varint();
  cp.platform_cycles_base = get_finite(c, "platform_cycles_base");
  cp.platform_cycles_optimized = get_finite(c, "platform_cycles_optimized");

  const std::uint64_t shards = c.varint();
  if (shards == 0 || shards > 64) {
    malformed(c, "shard count " + std::to_string(shards) +
                     " outside [1, 64]");
  }
  cp.shards.resize(static_cast<std::size_t>(shards));
  for (CheckpointShard& sh : cp.shards) {
    sh.busy_until = get_finite(c, "busy_until");
    sh.admitted = c.varint();
    sh.dropped = c.varint();
    sh.peak_virtual_depth = c.varint();
    sh.events_digest = c.varint();
    const std::uint64_t pending = c.varint();
    if (pending > sh.admitted) {
      malformed(c, "shard has more pending completions than admissions");
    }
    sh.completions.reserve(static_cast<std::size_t>(pending));
    for (std::uint64_t i = 0; i < pending; ++i) {
      sh.completions.push_back(get_finite(c, "completion time"));
    }
  }

  const std::uint64_t latencies = c.varint();
  if (latencies > payload.size()) {
    // Every latency costs >= 8 payload bytes; a count beyond the payload
    // size is corrupt, and rejecting it here keeps the reserve bounded.
    malformed(c, "latency count exceeds payload size");
  }
  cp.latencies.reserve(static_cast<std::size_t>(latencies));
  for (std::uint64_t i = 0; i < latencies; ++i) {
    cp.latencies.push_back(get_finite(c, "latency"));
  }

  const std::uint64_t entries = c.varint();
  if (entries > payload.size()) {
    malformed(c, "entry count exceeds payload size");
  }
  cp.entries.reserve(static_cast<std::size_t>(entries));
  std::int64_t prev_id = 0;
  for (std::uint64_t i = 0; i < entries; ++i) {
    CheckpointEntry e;
    const std::int64_t id = prev_id + c.zigzag();
    if (id < 0) malformed(c, "negative session id after delta decode");
    prev_id = id;
    e.event.id = static_cast<std::uint64_t>(id);
    e.event.shard = static_cast<std::uint32_t>(c.varint());
    if (e.event.shard >= cp.shards.size()) {
      malformed(c, "entry shard index out of range");
    }
    e.parked = get_flag(c, "parked");
    if (e.parked) {
      e.parked_info.phase = static_cast<std::uint32_t>(c.varint());
      const std::uint64_t raw_cipher = c.varint();
      if (raw_cipher > static_cast<std::uint64_t>(ssl::Cipher::kRc4)) {
        malformed(c, "unknown cipher id " + std::to_string(raw_cipher));
      }
      e.parked_info.cipher = static_cast<ssl::Cipher>(raw_cipher);
      e.parked_info.transaction_bytes = c.varint();
      if (e.parked_info.transaction_bytes == 0) {
        malformed(c, "parked session with zero transaction bytes");
      }
      e.parked_info.session_seed = c.varint();
      e.parked_info.resume = get_flag(c, "resume");
      e.parked_info.handle.slot = static_cast<std::uint32_t>(c.varint());
      e.parked_info.handle.gen = static_cast<std::uint32_t>(c.varint());
      if ((e.parked_info.handle.gen & 1u) == 0) {
        // A live slab handle's generation is odd by construction
        // (support/arena.h).  An even or zero generation means the
        // checkpoint references a freed/stale slot — the handle-hygiene
        // violation the fuzzer drives at this decoder.
        malformed(c, "parked session handle generation " +
                         std::to_string(e.parked_info.handle.gen) +
                         " is stale (live handles are odd)");
      }
    } else {
      e.event.wire_bytes = c.varint();
      e.event.records = c.varint();
      e.event.retries = static_cast<std::uint32_t>(c.varint());
      e.event.repairs = static_cast<std::uint32_t>(c.varint());
      e.event.faults = static_cast<std::uint32_t>(c.varint());
      e.event.completed = get_flag(c, "completed");
    }
    cp.entries.push_back(std::move(e));
  }

  TrafficGeneratorState& g = cp.generator;
  for (int i = 0; i < 4; ++i) g.rng.s[i] = c.varint();
  if (g.rng.s[0] == 0 && g.rng.s[1] == 0 && g.rng.s[2] == 0 &&
      g.rng.s[3] == 0) {
    malformed(c, "generator rng state is all-zero (xoshiro dead state)");
  }
  g.next_id = c.varint();
  g.interarrival_mean = get_finite(c, "interarrival_mean");
  g.open_clock = get_finite(c, "open_clock");
  g.phase_idx = c.varint();
  g.phase_done = c.varint();
  g.phase_entered = get_flag(c, "phase_entered");
  const std::uint64_t ready = c.varint();
  if (ready > payload.size()) {
    malformed(c, "pending-arrival count exceeds payload size");
  }
  g.ready.reserve(static_cast<std::size_t>(ready));
  double prev_at = -1.0;
  for (std::uint64_t i = 0; i < ready; ++i) {
    const double at = get_finite(c, "pending arrival time");
    const unsigned user = static_cast<unsigned>(c.varint());
    if (at < prev_at) {
      malformed(c, "pending arrivals out of ascending order");
    }
    prev_at = at;
    g.ready.emplace_back(at, user);
  }

  if (!c.done()) malformed(c, "trailing bytes after checkpoint payload");
  validate_checkpoint(cp);
  return cp;
}

void validate_checkpoint(const EngineCheckpoint& cp) {
  auto reject = [](const std::string& detail) {
    throw ReplayError(ErrorKind::kMalformed, 0, "checkpoint: " + detail);
  };

  std::uint64_t admitted_by_shard = 0;
  for (const CheckpointShard& sh : cp.shards) {
    admitted_by_shard += sh.admitted;
    double prev = -1.0;
    for (const double at : sh.completions) {
      if (at < prev) reject("shard completions out of queue order");
      prev = at;
    }
  }
  if (admitted_by_shard != cp.entries.size()) {
    reject("per-shard admission counts (" +
           std::to_string(admitted_by_shard) + ") disagree with entry list (" +
           std::to_string(cp.entries.size()) + ")");
  }
  if (cp.latencies.size() != cp.entries.size()) {
    reject("latency count " + std::to_string(cp.latencies.size()) +
           " != admitted count " + std::to_string(cp.entries.size()));
  }
  if (cp.admitted() > cp.offered) {
    reject("more admissions than offered arrivals");
  }
  if (cp.generator.next_id < cp.offered) {
    reject("generator id cursor behind the offered count");
  }

  // Recompute each shard's digest chain from the finalized entries and the
  // per-entry admission counts; both must agree with the stored values.
  // (decode_checkpoint already bounds shards and handle generations, but
  // callers also hand this validator checkpoints built or mutated in
  // memory, so the structural checks repeat here.)
  std::vector<std::uint64_t> digests(cp.shards.size(), 0);
  std::vector<std::uint64_t> admitted(cp.shards.size(), 0);
  for (const CheckpointEntry& e : cp.entries) {
    if (e.event.shard >= cp.shards.size()) {
      reject("entry shard index out of range");
    }
    if (e.parked && (e.parked_info.handle.gen & 1u) == 0) {
      reject("parked session handle generation " +
             std::to_string(e.parked_info.handle.gen) +
             " is stale (live handles are odd)");
    }
    ++admitted[e.event.shard];
    if (!e.parked) {
      digests[e.event.shard] = chain_event(digests[e.event.shard], e.event);
    }
  }
  for (std::size_t i = 0; i < cp.shards.size(); ++i) {
    if (admitted[i] != cp.shards[i].admitted) {
      reject("shard " + std::to_string(i) + " admission count mismatch");
    }
    if (digests[i] != cp.shards[i].events_digest) {
      reject("shard " + std::to_string(i) +
             " events digest does not match its entries — the checkpoint "
             "was altered after capture");
    }
  }
}

void check_checkpoint_fits(const EngineCheckpoint& cp,
                           const TrafficScenario& scenario, unsigned shards) {
  auto reject = [](const std::string& detail) {
    throw ReplayError(ErrorKind::kMalformed, 0,
                      "checkpoint does not fit this run: " + detail);
  };
  if (cp.shards.size() != shards) {
    reject("checkpoint has " + std::to_string(cp.shards.size()) +
           " shards, the run has " + std::to_string(shards));
  }
  const std::uint64_t total = scenario.total_sessions();
  if (cp.offered > total) {
    reject("checkpoint offered " + std::to_string(cp.offered) +
           " arrivals, the scenario holds only " + std::to_string(total));
  }

  // The generator cursor: TrafficGenerator::next indexes scenario.phases
  // with it, so it must be a state the scenario's own draws can reach.
  const TrafficGeneratorState& g = cp.generator;
  if (g.next_id > total) reject("generator cursor past the scenario end");
  if (g.phase_idx >= scenario.phases.size()) {
    reject("generator phase index " + std::to_string(g.phase_idx) +
           " out of range");
  }
  const auto idx = static_cast<std::size_t>(g.phase_idx);
  if (g.phase_done > scenario.phases[idx].sessions) {
    reject("generator has drawn " + std::to_string(g.phase_done) +
           " arrivals of phase " + std::to_string(idx) + ", which holds " +
           std::to_string(scenario.phases[idx].sessions));
  }
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < idx; ++i) before += scenario.phases[i].sessions;
  if (g.next_id != before + g.phase_done) {
    reject("generator id cursor " + std::to_string(g.next_id) +
           " disagrees with its phase cursor (" + std::to_string(before) +
           " + " + std::to_string(g.phase_done) + ")");
  }

  // Entry ids: strictly increasing (arrival order, no duplicates) and all
  // below the generator cursor, so no restored session can collide with
  // another or with an arrival the resumed run is still to draw.
  std::uint64_t prev_id = 0;
  for (std::size_t i = 0; i < cp.entries.size(); ++i) {
    const CheckpointEntry& e = cp.entries[i];
    const std::uint64_t id = e.event.id;
    if (i > 0 && id <= prev_id) {
      reject("entry ids not strictly increasing (" + std::to_string(prev_id) +
             " then " + std::to_string(id) + ")");
    }
    prev_id = id;
    if (id >= g.next_id) {
      reject("entry for session " + std::to_string(id) +
             " is not below the generator cursor " +
             std::to_string(g.next_id));
    }
    if (e.event.shard != id % shards) {
      reject("entry for session " + std::to_string(id) + " names shard " +
             std::to_string(e.event.shard) + ", routing places it on " +
             std::to_string(id % shards));
    }
    if (!e.parked) continue;
    // A parked session re-runs on the data plane, so it must be one its
    // phase could have drawn: a cipher and size from the phase's mixes and
    // a resume flag its resume fraction allows.
    const ParkedSession& p = e.parked_info;
    if (p.phase >= scenario.phases.size()) {
      reject("parked session " + std::to_string(id) + " names phase " +
             std::to_string(p.phase) + ", which the scenario does not have");
    }
    const TrafficPhase& ph = scenario.phases[p.phase];
    const bool cipher_ok =
        std::any_of(ph.cipher_mix.begin(), ph.cipher_mix.end(),
                    [&](const CipherMix& m) { return m.cipher == p.cipher; });
    const bool size_ok =
        std::any_of(ph.size_mix.begin(), ph.size_mix.end(),
                    [&](const SizeMix& m) {
                      return m.bytes == p.transaction_bytes;
                    });
    const bool resume_ok =
        p.resume ? ph.resume_fraction > 0.0 : ph.resume_fraction < 1.0;
    if (!cipher_ok || !size_ok || !resume_ok) {
      reject("parked session " + std::to_string(id) +
             " is not one phase " + std::to_string(p.phase) + " can draw");
    }
  }
}

}  // namespace wsp::server

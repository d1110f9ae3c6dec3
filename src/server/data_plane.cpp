#include "server/data_plane.h"

#include <algorithm>
#include <stdexcept>

#include "support/trace.h"

namespace wsp::server {

namespace {

// FNV-1a over the per-session (id, wire_bytes, records) triples, folded to
// 32 bits so the digest survives a double-typed JSON field exactly.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  std::uint32_t fold() const {
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }
};

/// Establishes the session: the abbreviated handshake, or the full RSA
/// exchange under the explored-optimal server modexp configuration, with
/// the handshake retry ladder.  Returns true when the session aborted
/// instead of establishing.  The matching exponential backoff is priced on
/// the virtual timeline (VirtualModel).
bool establish(Session& session, const rsa::PrivateKey* server_key,
               bool resume, unsigned budget) {
  for (unsigned attempt = 0;; ++attempt) {
    try {
      if (resume) {
        session.resume();  // no key exchange, no modexp engines
      } else {
        ModexpEngine client_engine{ModexpConfig{}};
        ModexpConfig server_cfg;
        server_cfg.mul = MulAlgo::kMontCIOS;
        server_cfg.window_bits = 5;
        server_cfg.crt = CrtMode::kGarner;
        server_cfg.caching = Caching::kFull;
        ModexpEngine server_engine(server_cfg);
        session.handshake(*server_key, client_engine, server_engine);
      }
      return false;
    } catch (const SessionError& e) {
      if (e.kind() != SessionErrorKind::kHandshakeFailed || attempt >= budget) {
        session.abort();
        return true;
      }
    }
  }
}

}  // namespace

std::uint64_t SessionEvent::digest() const {
  Digest d;
  d.mix(id);
  d.mix(shard);
  d.mix(wire_bytes);
  d.mix(records);
  d.mix(retries);
  d.mix(repairs);
  d.mix(faults);
  d.mix(completed ? 1 : 0xAB);
  return d.h;
}

std::uint64_t chain_event(std::uint64_t chain, const SessionEvent& event) {
  return (chain ^ event.digest()) * 1099511628211ULL + 1;
}

DataPlane::DataPlane(const EngineConfig& config,
                     const TrafficScenario& scenario)
    : record_events_(config.record_events),
      pool_(config.threads),
      table_(config.shards),
      pushed_(config.shards, 0),
      finalized_(config.shards),
      sched_(pool_, config.shards, config.queue_capacity,
             config.record_batch) {
  // One server key per run (the server's identity).  Resumed sessions
  // never touch it, so skip the generation when every phase resumes — at
  // 512 bits it otherwise dominates the wall time of small resumed runs.
  for (const TrafficPhase& ph : scenario.phases) {
    if (ph.resume_fraction < 1.0) {
      Rng key_rng(scenario.seed ^ 0xC3A5C85C97CB3127ULL);
      server_key_ = rsa::generate_key(config.rsa_bits, key_rng);
      break;
    }
  }
}

// Implicitly noexcept: should the wait itself fail, the program terminates
// rather than free state under running workers.
DataPlane::~DataPlane() { sched_.drain(); }

void DataPlane::admit(const Admission& a) {
  if (!a.resume && !server_key_) {
    throw std::logic_error(
        "server: full handshake admitted into a run without a server key");
  }
  SessionEvent& event = events_.emplace_back();
  event.id = a.session.id;
  event.shard = a.shard;
  const SessionTable::Inserted ins = table_.insert(a.session);
  WSP_TRACE_COUNTER("server", "live_sessions",
                    static_cast<double>(table_.size()));
  // Slab addresses are stable for the session's life, and a shard's tasks
  // run FIFO on one worker (scheduler.h), so the task owns both pointers.
  sched_.push(a.shard, [this, ev = &event, session = ins.session,
                        handle = ins.handle, resume = a.resume,
                        budget = a.handshake_budget, batch = a.batch] {
    run_session(*ev, session, handle, resume, budget, batch);
  });
  ++pushed_.at(a.shard);
}

void DataPlane::run_session(SessionEvent& event, Session* session,
                            SessionHandle handle, bool resume,
                            unsigned budget, std::size_t batch) {
  try {
    const rsa::PrivateKey* key = server_key_ ? &*server_key_ : nullptr;
    if (!establish(*session, key, resume, budget)) {
      while (!session->finished()) session->pump(batch);
      session->teardown();
      event.completed = true;
    }
  } catch (...) {
    // SessionError(kAborted) from the exhausted repair ladder, or any
    // unexpected failure: the session is finished either way.  abort() is
    // idempotent and safe from every state but kClosed.
    session->abort();
  }
  event.wire_bytes = session->wire_bytes();
  event.records = session->records();
  const std::uint32_t attempts = session->handshake_attempts();
  event.retries = session->retries() + (attempts > 0 ? attempts - 1 : 0);
  event.repairs = session->repairs();
  event.faults = session->faults_seen();
  table_.erase(handle);
  // The event is final: publish it to the run() thread's cut (ready()).  An
  // RMW, so whichever worker runs the shard next extends the release
  // sequence.
  finalized_[event.shard].fetch_add(1, std::memory_order_release);
}

void DataPlane::restore(const SessionEvent& event) { events_.push_back(event); }

DataPlane::Cut DataPlane::cut() const { return Cut{events_.size(), pushed_}; }

bool DataPlane::ready(const Cut& cut) const {
  for (std::size_t s = 0; s < cut.pushed.size(); ++s) {
    if (finalized_.at(s).load(std::memory_order_acquire) < cut.pushed[s]) {
      return false;
    }
  }
  return true;
}

void DataPlane::capture(const Cut& cut, EngineCheckpoint& cp) const {
  if (!ready(cut)) {
    throw std::logic_error(
        "server: checkpoint cut captured before every session in it "
        "finalized");
  }
  cp.entries.reserve(cut.events);
  for (std::size_t i = 0; i < cut.events; ++i) {
    const SessionEvent& event = events_[i];
    CheckpointShard& csh = cp.shards.at(event.shard);
    csh.events_digest = chain_event(csh.events_digest, event);
    cp.entries.push_back(CheckpointEntry{event, false, {}});
  }
}

void DataPlane::drain() { sched_.drain(); }

void DataPlane::fold(RunReport& rep) {
  drain();
  Digest digest;
  if (record_events_) rep.events.reserve(events_.size());
  for (const SessionEvent& event : events_) {
    // Events are in arrival order, so every fold here is thread-invariant.
    ShardReport& sh = rep.shards.at(event.shard);
    sh.events_digest = chain_event(sh.events_digest, event);
    if (record_events_) rep.events.push_back(event);
    rep.retried += event.retries;
    rep.repaired += event.repairs;
    rep.faults_injected += event.faults;
    sh.retried += event.retries;
    sh.repaired += event.repairs;
    sh.faults_injected += event.faults;
    rep.wire_bytes += event.wire_bytes;
    rep.records += event.records;
    sh.wire_bytes += event.wire_bytes;
    sh.records += event.records;
    // Anything not completed is aborted — the pump task guarantees one of
    // the two — so completed + aborted == admitted (no leaked sessions).
    if (event.completed) {
      ++rep.completed;
      ++sh.completed;
    } else {
      ++rep.aborted;
      ++sh.aborted;
    }
    digest.mix(event.id);
    digest.mix(event.wire_bytes);
    digest.mix(event.records);
    // Distinguish an aborted triple from a completed one.
    if (!event.completed) digest.mix(0xAB);
  }
  rep.bytes_digest = digest.fold();
  rep.memory_per_session = SessionTable::bytes_per_session();
  for (unsigned s = 0; s < sched_.shard_count(); ++s) {
    const ShardCounters counters = sched_.counters(s);
    rep.backpressure_waits += counters.backpressure_waits;
    rep.failed_tasks += counters.failed;
    rep.peak_real_depth = std::max(rep.peak_real_depth, counters.peak_depth);
  }
}

}  // namespace wsp::server

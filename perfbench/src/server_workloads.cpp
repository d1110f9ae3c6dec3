// Server workloads W1-W3 (README.md): fig8_handshake, resume_churn and
// checkpointed_chaos.  Each is a .wsp program in ../workloads compiled with
// scenario::compile; the seed argument replaces the program's seed.
//
// Timed run (--trace 0): Engine::run at up to 4 worker threads, repeated for
// --seconds; every repetition's outputs are checked.  Traced run
// (--trace 1): Engine::run at 1 thread, then a walk that replays the same
// arrivals through the public layer calls on the benchmark thread, timing
// each call from outside.
#include <algorithm>
#include <functional>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "crypto/aes.h"
#include "crypto/des.h"
#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "crypto/rc4.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "scenario/compile.h"
#include "server/checkpoint.h"
#include "server/engine.h"
#include "server/record.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "server/session_table.h"
#include "server/traffic.h"
#include "ssl/ssl.h"
#include "ssl/workload.h"
#include "support/random.h"
#include "support/threadpool.h"

namespace perfbench {
namespace {

using namespace wsp;
using server::EngineConfig;
using server::RunReport;
using server::TrafficScenario;

struct ServerSpec {
  const char* name;
  const char* file;
  unsigned shards;
  std::size_t queue_capacity;    ///< per-shard waiting room
  std::size_t degrade_depth;     ///< 0 = degrade mode off
  double checkpoint_every;       ///< virtual cycles; 0 = no checkpoints
};

// Engine-side settings the .wsp language does not carry.  batch_lanes stays
// at its default on purpose.  resume_churn offers 1.2x capacity for its
// whole length, so its waiting room is sized to hold the backlog: the
// overload shows as queueing (latency, live sessions) instead of drops.
const ServerSpec kSpecs[] = {
    {"fig8_handshake", "fig8_handshake.wsp", 4, 64, 0, 0.0},
    {"resume_churn", "resume_churn.wsp", 8, 4096, 0, 0.0},
    {"checkpointed_chaos", "checkpointed_chaos.wsp", 4, 64, 24, 1.0e8},
};

/// Output digests of the default seed (kDefaultSeed), pinned from a run of
/// this benchmark; any change to what the server computes shows here.
struct Pinned {
  const char* name;
  std::uint32_t bytes_digest;
  std::vector<std::uint64_t> events_digests;
};
const Pinned kPinned[] = {
    {"fig8_handshake",
     0x5890c2e4u,
     {0x4ed20860a5595334ull, 0xa25c174e3dc46894ull, 0x907345288e415facull,
      0xe3e69224ddbdf63cull}},
    {"resume_churn",
     0xe848fefbu,
     {0xa60c7f26aef37216ull, 0x6115044ffc0880f0ull, 0xceea410ed841e4d6ull,
      0x478ed98d51cb2fbcull, 0x0104619d48813e46ull, 0xee8dbd04127beec6ull,
      0xebe439f475a6cf66ull, 0x465ccfed12763618ull}},
    {"checkpointed_chaos",
     0xb47e9f5fu,
     {0xb363a1c59a9a06daull, 0x2d4f871f821fc309ull, 0x04867e345db03068ull,
      0x73efb87e815c312eull}},
};

const ServerSpec& spec_for(const std::string& name) {
  for (const ServerSpec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown server workload " + name);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Compiles the workload program and applies the seed argument.
scenario::CompiledScenario compile_workload(const std::string& source,
                                            const ServerSpec& spec,
                                            std::uint64_t seed) {
  scenario::CompiledScenario c = scenario::compile(source, spec.file);
  c.scenario.seed = seed;
  for (const server::TrafficPhase& ph : c.scenario.phases) {
    if (ph.model != server::ArrivalModel::kOpenLoop) {
      throw std::invalid_argument("perfbench: server workloads are open loop");
    }
  }
  return c;
}

EngineConfig engine_config(const ServerSpec& spec, unsigned threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.shards = spec.shards;
  cfg.queue_capacity = spec.queue_capacity;
  cfg.degrade_depth = spec.degrade_depth;
  cfg.checkpoint_every = spec.checkpoint_every;
  return cfg;
}

std::uint64_t shard_sum(const RunReport& r, std::uint64_t server::ShardReport::*f) {
  std::uint64_t s = 0;
  for (const auto& sh : r.shards) s += sh.*f;
  return s;
}

std::string hex(std::uint64_t v, int digits) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%0*llx", digits,
                static_cast<unsigned long long>(v));
  return buf;
}

/// Invariants every run must satisfy, plus the pinned digests at the
/// default seed.
void check_report(Checks& checks, const RunReport& rep, const std::string& name,
                  std::uint64_t seed, const char* what) {
  const std::string tag = std::string(what) + ": ";
  checks.expect(rep.completed + rep.aborted == rep.admitted,
                tag + "leak invariant completed + aborted == admitted");
  checks.expect(rep.failed_tasks == 0, tag + "failed_tasks == 0");
  checks.expect(rep.admitted + rep.dropped == rep.offered,
                tag + "admitted + dropped == offered");
  checks.expect(shard_sum(rep, &server::ShardReport::completed) == rep.completed,
                tag + "per-shard completed sums to the total");
  if (seed != kDefaultSeed) return;
  for (const Pinned& p : kPinned) {
    if (name != p.name) continue;
    // The observed values are in the message, so that re-pinning after an
    // intended change of outputs only means reading a failed run at seed 42.
    checks.expect(rep.bytes_digest == p.bytes_digest,
                  tag + "bytes_digest " + hex(rep.bytes_digest, 8) +
                      " equals the pinned " + hex(p.bytes_digest, 8));
    bool same = rep.shards.size() == p.events_digests.size();
    std::string seen;
    for (std::size_t i = 0; i < rep.shards.size(); ++i) {
      same = same && rep.shards[i].events_digest == p.events_digests[i];
      seen += (i ? ", " : "") + hex(rep.shards[i].events_digest, 16);
    }
    checks.expect(same, tag + "per-shard events_digest {" + seen +
                            "} equal the pinned values");
  }
}

/// Deterministic end-to-end values of one report, keyed like the report
/// line.  Must repeat exactly across repetitions and thread counts.
std::vector<Metric> deterministic_metrics(const RunReport& rep) {
  return {
      {"latency_p50_cycles", rep.latency.p50, "cycles"},
      {"latency_p99_cycles", rep.latency.p99, "cycles"},
      {"throughput_per_gcycle", rep.throughput_per_gcycle, "sessions/Gcycle"},
      {"platform_equiv_speedup", rep.equivalent_speedup, "x"},
  };
}

/// Cuts a finished recording after its middle checkpoint, partway into the
/// next checkpoint chunk: the trace a kill during that write leaves behind.
/// Returns the number of checkpoints that survive intact.
std::size_t tear_after_middle(const server::RunRecorder& rec,
                              std::vector<std::uint8_t>& torn) {
  const auto& offs = rec.checkpoint_offsets();
  if (offs.size() < 3) {
    throw std::runtime_error("perfbench: recording has fewer than 3 checkpoints");
  }
  const std::size_t keep = offs.size() / 2 + 1;  // checkpoints 0..mid
  const std::size_t cut = offs[keep] + (offs[keep] - offs[keep - 1]) / 2;
  torn.assign(rec.bytes().begin(),
              rec.bytes().begin() + static_cast<std::ptrdiff_t>(cut));
  return keep;
}

/// Checkpoint sink of the traced run: times encode_checkpoint, keeps the
/// payload for the decode/validate timings, then forwards the checkpoint to
/// the RunRecorder.
class TimingSink final : public server::CheckpointSink {
 public:
  server::CheckpointSink* target = nullptr;
  double encode_ns = 0.0;
  double sink_ns = 0.0;  ///< everything this sink did, forwarding included
  std::uint64_t entries = 0;
  std::uint64_t parked = 0;
  std::vector<std::vector<std::uint8_t>> payloads;

  void on_checkpoint(const server::EngineCheckpoint& cp) override {
    const auto t0 = Clock::now();
    std::vector<std::uint8_t> payload;
    server::encode_checkpoint(payload, cp);
    encode_ns += ns_since(t0);
    payloads.push_back(std::move(payload));
    entries += cp.entries.size();
    for (const auto& e : cp.entries) parked += e.parked ? 1 : 0;
    target->on_checkpoint(cp);
    sink_ns += ns_since(t0);
  }
};

/// One recording + recovery repetition of checkpointed_chaos: the recorded
/// Engine::run (checkpoints into an in-memory RunRecorder), then the trace
/// torn after its middle checkpoint, scanned and resumed.
struct ChaosRep {
  RunReport report;
  double run_s = 0.0;
  double recovery_s = 0.0;
  double scan_ns = 0.0;
  double resume_ns = 0.0;
  std::size_t trace_bytes = 0;
};

ChaosRep chaos_repetition(Checks& checks, const EngineConfig& cfg,
                          const scenario::CompiledScenario& c,
                          TimingSink* timing = nullptr) {
  ChaosRep out;
  server::RunRecorder rec(cfg, c.scenario, c.source);
  EngineConfig ec = rec.engine_config();
  if (timing != nullptr) {
    timing->target = ec.checkpoint_sink;
    ec.checkpoint_sink = timing;
  }
  server::Engine engine(ec);
  const auto t0 = Clock::now();
  out.report = engine.run(c.scenario);
  out.run_s = seconds_since(t0);
  checks.expect(rec.finish(out.report), "recorder finished cleanly");
  out.trace_bytes = rec.bytes().size();

  std::vector<std::uint8_t> torn;
  const std::size_t kept = tear_after_middle(rec, torn);
  const auto t1 = Clock::now();
  const server::ResumeScan scan = server::scan_trace_for_resume(torn);
  out.scan_ns = ns_since(t1);
  const auto t2 = Clock::now();
  const server::ReplayResult resumed = server::resume_run(scan, cfg.threads);
  out.resume_ns = ns_since(t2);
  out.recovery_s = seconds_since(t1);
  checks.expect(!scan.complete && scan.checkpoints.size() == kept,
                "scan stops at the tear after the middle checkpoint");
  const auto diff = server::compare_reports(out.report, resumed.report);
  checks.expect(diff.empty(),
                "resumed report bit-identical to the recorded one" +
                    (diff.empty() ? std::string() : " (" + diff.front() + ")"));
  return out;
}

// ---------------------------------------------------------------------------
// Traced run: the layer walk.

/// Per-phase mean service figures, computed exactly as Engine::run does, so
/// the walk's TrafficGenerator draws the engine's arrival stream.
std::vector<double> phase_means(const TrafficScenario& sc, server::Pricing pricing) {
  const ssl::PlatformCosts price = server::calibrated_costs(pricing);
  auto price_one = [&](std::size_t bytes, bool resumed) {
    return resumed ? ssl::resumed_transaction_cost(price, bytes).total()
                   : ssl::transaction_cost(price, bytes).total();
  };
  std::vector<double> means;
  for (const server::TrafficPhase& ph : sc.phases) {
    double full = 0.0, resumed = 0.0;
    std::uint64_t wsum = 0;
    for (const server::SizeMix& m : ph.size_mix) {
      const double w = static_cast<double>(m.weight);
      full += price_one(m.bytes, false) * w;
      resumed += price_one(m.bytes, true) * w;
      wsum += m.weight;
    }
    full /= static_cast<double>(wsum);
    resumed /= static_cast<double>(wsum);
    const double f = ph.resume_fraction;
    means.push_back(f <= 0.0   ? full
                    : f >= 1.0 ? resumed
                               : (1.0 - f) * full + f * resumed);
  }
  return means;
}

/// The server-side modexp configuration Engine::run hands every full
/// handshake (the explored optimum).
ModexpConfig server_modexp_config() {
  ModexpConfig c;
  c.mul = MulAlgo::kMontCIOS;
  c.window_bits = 5;
  c.crt = CrtMode::kGarner;
  c.caching = Caching::kFull;
  return c;
}

constexpr int kCiphers = 3;
int cipher_index(ssl::Cipher c) { return static_cast<int>(c); }

/// What the walk observed, beyond what the ledger times.
struct WalkCounts {
  std::uint64_t arrivals = 0;
  std::uint64_t sessions = 0;
  std::uint64_t full_failed = 0;    ///< failed RSA handshake attempts
  std::uint64_t resume_failed = 0;
  std::uint64_t pump_calls = 0;
  std::uint64_t retries = 0;        ///< record retransmissions
  std::uint64_t repairs = 0;
  std::uint64_t records = 0;
  std::uint64_t table_ops = 0;
  std::uint64_t pushes = 0;
  std::uint64_t mismatches = 0;
  // Per cipher (ssl::Cipher order).
  std::uint64_t full_ok[kCiphers] = {};    ///< successful RSA handshakes
  std::uint64_t resume_ok[kCiphers] = {};  ///< successful resumptions
  std::uint64_t rekeys[kCiphers] = {};
  std::uint64_t transmissions[kCiphers] = {};  ///< record seal+open pairs
  std::uint64_t tx_bytes[kCiphers] = {};       ///< sealed record bytes
  double keygen_ns = 0.0;
  double wall_ns = 0.0;
  std::optional<rsa::PrivateKey> key;  ///< the server key the walk used
};

/// Replays the engine's admitted sessions through the public layer calls on
/// this thread, in arrival order: TrafficGenerator::next,
/// SessionTable::insert, RecordScheduler::push, Session::handshake/resume,
/// pump until finished, teardown, SessionTable::erase and
/// RecordScheduler::drain.
/// Compares every session's outcome with the engine's event stream.
WalkCounts walk(Ledger& ledger, const EngineConfig& cfg,
                const TrafficScenario& sc, const RunReport& engine_rep) {
  WalkCounts w;
  const auto t_walk = Clock::now();
  bool any_full = false;
  for (const auto& ph : sc.phases) any_full |= ph.resume_fraction < 1.0;
  if (any_full) {
    // The engine's own server-key derivation (Engine::run), so the walk
    // pays for the same prime search.
    Scope s(ledger, "crypto.rsa.keygen");
    const auto t0 = Clock::now();
    Rng key_rng(sc.seed ^ 0xC3A5C85C97CB3127ULL);
    w.key = rsa::generate_key(cfg.rsa_bits, key_rng);
    w.keygen_ns = ns_since(t0);
  }
  std::vector<server::FaultPlan> plans;
  std::vector<unsigned> hs_budget;
  for (const auto& ph : sc.phases) {
    const server::FaultConfig& fc = ph.faults ? *ph.faults : cfg.faults;
    plans.emplace_back(fc, sc.seed);
    hs_budget.push_back(fc.handshake_retry_budget);
  }
  server::TrafficGenerator gen(sc, phase_means(sc, cfg.pricing), cfg.shards);
  server::SessionTable table(cfg.shards);
  ThreadPool pool(1);
  server::RecordScheduler sched(pool, cfg.shards, cfg.queue_capacity,
                                cfg.record_batch);
  const auto& events = engine_rep.events;
  std::size_t next_event = 0;

  for (;;) {
    const Ledger::Id next_span = ledger.begin("server.traffic.next", Ledger::kNone, 0);
    const std::optional<server::SessionArrival> a = gen.next();
    ledger.end(next_span);
    if (!a) break;
    ledger.set_request(next_span, a->id);
    ++w.arrivals;
    if (next_event >= events.size() || events[next_event].id != a->id) {
      continue;  // dropped by the engine's admission control
    }
    const server::SessionEvent& want = events[next_event++];
    ++w.sessions;

    Scope root(ledger, "server.session", Ledger::kNone, a->id);
    server::SessionConfig sc_cfg;
    sc_cfg.id = a->id;
    sc_cfg.cipher = a->cipher;
    sc_cfg.transaction_bytes = a->transaction_bytes;
    sc_cfg.record_bytes = sc.record_bytes;
    sc_cfg.seed = a->session_seed;
    sc_cfg.faults = plans[a->phase].schedule_for(a->id);
    server::SessionTable::Inserted ins;
    {
      Scope s(ledger, "server.session_table.insert", root.id(), a->id);
      ins = table.insert(sc_cfg);
    }
    ++w.table_ops;
    const unsigned shard = table.shard_of(a->id);
    const bool resume = a->resume;
    const unsigned budget = hs_budget[a->phase];
    const int ci = cipher_index(a->cipher);
    server::SessionEvent got;
    got.id = a->id;
    got.shard = shard;
    // The scheduler hop is measured around the session work: push before
    // it, drain after it.  The session work itself stays on this thread so
    // that its timings are not mixed with thread hand-off latency.
    {
      Scope sp(ledger, "server.scheduler.push", root.id(), a->id);
      sched.push(shard, [] {});
    }
    ++w.pushes;
    const Ledger::Id parent = root.id();
    const std::uint64_t id = a->id;
    server::Session* s = ins.session;
    bool aborted = false;
    try {
      for (unsigned attempt = 0;; ++attempt) {
        try {
          if (resume) {
            Scope sp(ledger, "server.session.resume", parent, id);
            s->resume();
            ++w.resume_ok[ci];
          } else {
            Scope sp(ledger, "server.session.handshake", parent, id);
            ModexpEngine client_engine{ModexpConfig{}};
            ModexpEngine server_engine(server_modexp_config());
            s->handshake(*w.key, client_engine, server_engine);
            ++w.full_ok[ci];
          }
          break;
        } catch (const server::SessionError& e) {
          ++(resume ? w.resume_failed : w.full_failed);
          if (e.kind() != server::SessionErrorKind::kHandshakeFailed ||
              attempt >= budget) {
            s->abort();
            aborted = true;
            break;
          }
        }
      }
      while (!aborted && !s->finished()) {
        const std::uint64_t rec0 = s->records(), ret0 = s->retries(),
                            rk0 = s->rekeys(), wire0 = s->wire_bytes();
        try {
          Scope sp(ledger, "server.session.pump", parent, id);
          s->pump(cfg.record_batch);
        } catch (const server::SessionError&) {
          aborted = true;
        }
        ++w.pump_calls;
        const std::uint64_t rk = s->rekeys() - rk0;
        w.rekeys[ci] += rk;
        w.transmissions[ci] +=
            (s->records() - rec0) + (s->retries() - ret0) + (aborted ? 1 : 0);
        w.tx_bytes[ci] += s->wire_bytes() - wire0 - 64 * rk;
      }
      if (!aborted) {
        Scope sp(ledger, "server.session.teardown", parent, id);
        s->teardown();
      }
    } catch (...) {
      s->abort();
      aborted = true;
    }
    got.wire_bytes = s->wire_bytes();
    got.records = s->records();
    const std::uint32_t attempts = s->handshake_attempts();
    got.retries = s->retries() + (attempts > 0 ? attempts - 1 : 0);
    got.repairs = s->repairs();
    got.faults = s->faults_seen();
    got.completed = !aborted;
    w.retries += s->retries();
    w.repairs += s->repairs();
    w.records += s->records();
    {
      Scope sp(ledger, "server.session_table.erase", parent, id);
      table.erase(ins.handle);
    }
    ++w.table_ops;
    {
      Scope sp(ledger, "server.scheduler.drain", parent, id);
      sched.drain();
    }
    if (!(got == want)) ++w.mismatches;
  }
  if (next_event != events.size()) w.mismatches += events.size() - next_event;
  w.wall_ns = ns_since(t_walk);
  return w;
}

/// Median per-call host ns of each function, over 9 rounds that time one
/// batch of `batch` calls of every function in turn (after one untimed
/// warm-up round), so drift in host speed affects all of them alike.
std::vector<double> per_call_ns(int batch,
                                const std::vector<std::function<void()>>& fns) {
  std::vector<std::vector<double>> t(fns.size());
  for (int round = 0; round < 10; ++round) {
    for (std::size_t f = 0; f < fns.size(); ++f) {
      const auto t0 = Clock::now();
      for (int i = 0; i < batch; ++i) fns[f]();
      if (round > 0) t[f].push_back(ns_since(t0) / batch);
    }
  }
  std::vector<double> out;
  for (auto& v : t) out.push_back(median(std::move(v)));
  return out;
}

std::vector<std::uint8_t> bytes_of(std::size_t n, std::uint8_t fill) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(fill + 7 * i);
  return v;
}

std::uint64_t load64(const std::vector<std::uint8_t>& v, std::size_t off) {
  return des::load_be64(v.data() + off);
}

/// Host cost of each primitive the session calls run, measured by calling
/// its public function at the sizes the walk observed.
struct Calibration {
  double rsa_public_ns = 0.0;   ///< client premaster encryption, fresh engine
  double rsa_private_ns = 0.0;  ///< server CRT decryption, fresh engine
  double handshake_ns[kCiphers] = {};
  double kdf_master_ns = 0.0;
  double kdf_block_ns[kCiphers] = {};
  double seal_ns[kCiphers] = {};
  double open_ns[kCiphers] = {};
  /// Cipher work of one sealed and opened record, derived from the seal and
  /// open timings (see calibrate()).
  double cipher_ns[kCiphers] = {};
  std::size_t sealed_bytes[kCiphers] = {};
  double des3_key_schedule_ns = 0.0;
  double aes128_key_schedule_ns = 0.0;
  double rc4_key_setup_ns = 0.0;
  double hmac_ns = 0.0;  ///< one record MAC
  double sha1_ns_per_byte = 0.0;
  double md5_ns_per_byte = 0.0;
};

Calibration calibrate(const rsa::PrivateKey* key, std::size_t record_bytes) {
  Calibration c;
  Rng rng(7);
  const ModexpConfig server_cfg = server_modexp_config();
  const ssl::Cipher ciphers[kCiphers] = {ssl::Cipher::kTripleDesCbc,
                                         ssl::Cipher::kAes128Cbc,
                                         ssl::Cipher::kRc4};
  if (key != nullptr) {
    const auto premaster = rng.bytes(48);
    ModexpEngine warm{ModexpConfig{}};
    std::vector<std::uint8_t> ct = rsa::encrypt(premaster, key->public_key(), warm, rng);
    std::vector<std::function<void()>> fns = {
        [&] {
          ModexpEngine client{ModexpConfig{}};
          (void)rsa::encrypt(premaster, key->public_key(), client, rng);
        },
        [&] {
          ModexpEngine server(server_cfg);
          (void)rsa::decrypt(ct, *key, server);
        },
    };
    for (const ssl::Cipher cipher : ciphers) {
      fns.push_back([&, cipher] {
        ModexpEngine client{ModexpConfig{}};
        ModexpEngine server(server_cfg);
        (void)ssl::perform_handshake(*key, cipher, client, server, rng);
      });
    }
    const auto t = per_call_ns(4, fns);
    c.rsa_public_ns = t[0];
    c.rsa_private_ns = t[1];
    for (int i = 0; i < kCiphers; ++i) c.handshake_ns[i] = t[2 + i];
  }

  const auto secret = bytes_of(48, 1), r1 = bytes_of(32, 2), r2 = bytes_of(32, 3);
  const auto mac_key = bytes_of(Sha1::kDigestSize, 5);
  const auto payload = bytes_of(record_bytes, 4);
  // The record MAC covers the sequence number, type and length (11 bytes)
  // and the payload.
  const std::vector<std::uint8_t> mac_msg = bytes_of(11 + record_bytes, 9);
  const auto big = bytes_of(16384, 10);
  {
    std::vector<std::function<void()>> fns = {
        [&] { (void)ssl::kdf_ssl3(secret, r1, r2, 48); },
        [&] { (void)hmac_sha1(mac_key, mac_msg); },
    };
    for (const ssl::Cipher cipher : ciphers) {
      const ssl::CipherProfile prof = ssl::cipher_profile(cipher);
      const std::size_t len = 2 * (Sha1::kDigestSize + prof.key_len + prof.iv_len);
      fns.push_back([&, len] { (void)ssl::kdf_ssl3(secret, r1, r2, len); });
    }
    const auto t = per_call_ns(50, fns);
    c.kdf_master_ns = t[0];
    c.hmac_ns = t[1];
    for (int i = 0; i < kCiphers; ++i) c.kdf_block_ns[i] = t[2 + i];
    const auto h = per_call_ns(4, {[&] { (void)Sha1::hash(big); },
                                   [&] { (void)Md5::hash(big); }});
    c.sha1_ns_per_byte = h[0] / static_cast<double>(big.size());
    c.md5_ns_per_byte = h[1] / static_cast<double>(big.size());
  }

  // Seal and open one record of each cipher on a live channel, with the
  // RC4 keystream pass and the key schedules timed beside them in the same
  // interleaved batches.  Seal and open of every cipher do the same framing
  // and MAC over the same payload, so the RC4 channel prices them: framing
  // + MAC = RC4 seal + open - 2 RC4 passes.  A CBC cipher's work per record
  // is its seal + open minus that, which holds whatever the record layer
  // does for the cipher (key schedules included).
  constexpr int kBatch = 8;
  const std::vector<std::uint8_t> ckey = bytes_of(24, 6);
  std::vector<std::vector<std::uint8_t>> keys, records;
  std::vector<ssl::SecureChannel> channels;
  for (const ssl::Cipher cipher : ciphers) {
    const ssl::CipherProfile prof = ssl::cipher_profile(cipher);
    keys.emplace_back(ckey.begin(), ckey.begin() + prof.key_len);
    channels.emplace_back(cipher, keys.back(), mac_key, bytes_of(prof.iv_len, 8));
    records.push_back(channels.back().seal(payload));
    (void)channels.back().open(records.back());
    c.sealed_bytes[channels.size() - 1] = records.back().size();
  }
  // Seal then open the same records in order, so sequence numbers and
  // cipher chaining stay in step.
  std::vector<std::vector<std::vector<std::uint8_t>>> sealed(
      kCiphers, std::vector<std::vector<std::uint8_t>>(kBatch));
  std::size_t next_seal[kCiphers] = {}, next_open[kCiphers] = {};
  std::vector<std::function<void()>> fns;
  std::vector<double*> into;
  for (int i = 0; i < kCiphers; ++i) {
    fns.push_back([&, i] { sealed[i][next_seal[i]++ % kBatch] = channels[i].seal(payload); });
    fns.push_back([&, i] { (void)channels[i].open(sealed[i][next_open[i]++ % kBatch]); });
    into.push_back(&c.seal_ns[i]);
    into.push_back(&c.open_ns[i]);
  }
  const int rc4 = cipher_index(ssl::Cipher::kRc4);
  const std::vector<std::uint8_t>& des3_key = keys[cipher_index(ssl::Cipher::kTripleDesCbc)];
  Rc4 stream(keys[rc4]);
  double rc4_pass_ns = 0.0;
  fns.push_back([&] {
    (void)des::triple_key_schedule(load64(des3_key, 0), load64(des3_key, 8),
                                   load64(des3_key, 16));
  });
  fns.push_back([&] { (void)aes::key_schedule(keys[cipher_index(ssl::Cipher::kAes128Cbc)]); });
  fns.push_back([&] { (void)stream.process(records[rc4]); });
  fns.push_back([&] { Rc4 k(keys[rc4]); (void)k; });
  into.insert(into.end(), {&c.des3_key_schedule_ns, &c.aes128_key_schedule_ns,
                           &rc4_pass_ns, &c.rc4_key_setup_ns});
  const auto t = per_call_ns(kBatch, fns);
  for (std::size_t k = 0; k < t.size(); ++k) *into[k] = t[k];

  const double framing_and_mac = c.seal_ns[rc4] + c.open_ns[rc4] - 2.0 * rc4_pass_ns;
  for (int i = 0; i < kCiphers; ++i) {
    c.cipher_ns[i] = i == rc4 ? 2.0 * rc4_pass_ns
                              : c.seal_ns[i] + c.open_ns[i] - framing_and_mac;
  }
  return c;
}

double sum(const std::uint64_t (&a)[kCiphers]) {
  double s = 0.0;
  for (std::uint64_t v : a) s += static_cast<double>(v);
  return s;
}

/// Self-time share of each layer; negative remainders count as zero.
void add_shares(std::map<std::string, double>& v,
                const std::map<std::string, double>& layer_ns) {
  double total = 0.0;
  for (const auto& [name, ns] : layer_ns) total += std::max(0.0, ns);
  for (const auto& [name, ns] : layer_ns) {
    v["share." + name] = total > 0.0 ? std::max(0.0, ns) / total : 0.0;
  }
}

void traced_run(const Options& opt, const ServerSpec& spec,
                const scenario::CompiledScenario& c, Checks& checks,
                std::map<std::string, double>& v, Result& r) {
  const bool chaos = spec.checkpoint_every > 0.0;
  EngineConfig cfg_n = engine_config(spec, opt.threads);
  EngineConfig cfg_1 = engine_config(spec, 1);
  cfg_n.record_events = cfg_1.record_events = true;
  RunReport rep_n, rep_1;
  double engine_ns = 0.0;
  TimingSink sink;
  ChaosRep ch;
  if (chaos) {
    rep_n = chaos_repetition(checks, cfg_n, c).report;
    ch = chaos_repetition(checks, cfg_1, c, &sink);
    rep_1 = ch.report;
    engine_ns = ch.run_s * 1e9;
  } else {
    rep_n = server::Engine(cfg_n).run(c.scenario);
    server::Engine engine(cfg_1);
    const auto t0 = Clock::now();
    rep_1 = engine.run(c.scenario);
    engine_ns = ns_since(t0);
  }
  check_report(checks, rep_n, opt.workload, opt.seed, "traced, N threads");
  check_report(checks, rep_1, opt.workload, opt.seed, "traced, 1 thread");
  const auto diff = server::compare_reports(rep_n, rep_1);
  checks.expect(diff.empty(), "deterministic report identical at 1 and " +
                                  std::to_string(opt.threads) + " threads" +
                                  (diff.empty() ? "" : " (" + diff.front() + ")"));

  Ledger off(false);
  const WalkCounts w0 = walk(off, cfg_1, c.scenario, rep_1);
  Ledger ledger(true);
  const WalkCounts w = walk(ledger, cfg_1, c.scenario, rep_1);
  checks.expect(w.mismatches == 0 && w0.mismatches == 0,
                "walk reproduces every SessionEvent of Engine::run (" +
                    std::to_string(w.mismatches) + " mismatches)");
  checks.expect(w.sessions == rep_1.admitted, "walk ran every admitted session");
  r.attempted = rep_n.offered + rep_1.offered + 2 * w.arrivals;

  const Calibration cal =
      calibrate(w.key ? &*w.key : nullptr, c.scenario.record_bytes);
  const auto t = ledger.totals();
  auto total = [&](const char* n) {
    const auto it = t.find(n);
    return it == t.end() ? 0.0 : it->second.total_ns;
  };
  auto self = [&](const char* n) {
    const auto it = t.find(n);
    return it == t.end() ? 0.0 : it->second.self_ns;
  };

  // Primitive work the walk observed, priced at the calibrated costs.
  const double full_ok = sum(w.full_ok);
  const double rsa_attempts = full_ok + static_cast<double>(w.full_failed);
  const double rsa_ns = rsa_attempts * (cal.rsa_public_ns + cal.rsa_private_ns);
  double hs_ns = static_cast<double>(w.full_failed) *
                 (cal.rsa_public_ns + cal.rsa_private_ns);
  double kdf_hs = 0.0, kdf_resume = 0.0, kdf_rekey = 0.0;
  double seal = 0.0, open = 0.0, cipher = 0.0, hmac = 0.0;
  double cipher_bytes = 0.0, tx = 0.0, tx_bytes = 0.0;
  double per_byte[kCiphers] = {};
  for (int i = 0; i < kCiphers; ++i) {
    const double n = static_cast<double>(w.transmissions[i]);
    hs_ns += static_cast<double>(w.full_ok[i]) * cal.handshake_ns[i];
    kdf_hs += static_cast<double>(w.full_ok[i]) * (cal.kdf_master_ns + cal.kdf_block_ns[i]);
    kdf_resume += static_cast<double>(w.resume_ok[i]) * cal.kdf_block_ns[i];
    kdf_rekey += static_cast<double>(w.rekeys[i]) * cal.kdf_block_ns[i];
    seal += n * cal.seal_ns[i];
    open += n * cal.open_ns[i];
    cipher += n * cal.cipher_ns[i];
    hmac += 2.0 * n * cal.hmac_ns;
    tx += n;
    tx_bytes += static_cast<double>(w.tx_bytes[i]);
    cipher_bytes += 2.0 * static_cast<double>(w.tx_bytes[i]);
    if (n > 0) {
      per_byte[i] = cal.cipher_ns[i] / (2.0 * static_cast<double>(cal.sealed_bytes[i]));
    }
  }
  const int rc4 = cipher_index(ssl::Cipher::kRc4);
  const double rc4_channels = static_cast<double>(
      w.full_ok[rc4] + w.resume_ok[rc4] + w.rekeys[rc4]);
  // One key setup per direction, in the channel's first seal or open.
  const double rc4_keys = 2.0 * rc4_channels * cal.rc4_key_setup_ns;
  const double record_ns = seal + open;  // the record layer, without key setups
  cipher += rc4_keys;
  const double kdf_ns = kdf_hs + kdf_resume + kdf_rekey;

  v["mp.modexp.ops"] = 2.0 * rsa_attempts;
  v["mp.modexp.ns_per_op"] =
      rsa_attempts > 0 ? 0.5 * (cal.rsa_public_ns + cal.rsa_private_ns) : 0.0;
  v["crypto.rsa.keygen_ns"] = w.keygen_ns;
  v["crypto.des3_cbc.ns_per_byte"] = per_byte[0];
  v["crypto.des3.key_schedule_ns"] = w.transmissions[0] > 0 ? cal.des3_key_schedule_ns : 0.0;
  v["crypto.aes128_cbc.ns_per_byte"] = per_byte[1];
  v["crypto.aes128.key_schedule_ns"] = w.transmissions[1] > 0 ? cal.aes128_key_schedule_ns : 0.0;
  v["crypto.rc4.ns_per_byte"] = per_byte[rc4];
  v["crypto.rc4.key_setup_ns"] = rc4_channels > 0 ? cal.rc4_key_setup_ns : 0.0;
  v["crypto.cipher.bytes"] = cipher_bytes;
  v["crypto.sha1.ns_per_byte"] = cal.sha1_ns_per_byte;
  v["crypto.md5.ns_per_byte"] = cal.md5_ns_per_byte;
  v["crypto.hmac_sha1.ns_per_call"] = cal.hmac_ns;
  v["crypto.hash.bytes"] =
      2.0 * tx * static_cast<double>(11 + c.scenario.record_bytes);
  v["ssl.handshake.busy_ns"] = hs_ns;
  v["ssl.handshake.calls"] = rsa_attempts;
  v["ssl.kdf.busy_ns"] = kdf_ns;
  v["ssl.kdf.calls"] = 2.0 * full_ok + sum(w.resume_ok) + sum(w.rekeys);
  v["ssl.seal.busy_ns"] = seal;
  v["ssl.open.busy_ns"] = open;
  v["ssl.records"] = static_cast<double>(w.records);
  v["ssl.record_bytes"] = tx_bytes;
  v["server.session.handshake.busy_ns"] = total("server.session.handshake") - hs_ns;
  v["server.session.resume.busy_ns"] = total("server.session.resume") - kdf_resume;
  v["server.session.pump.busy_ns"] =
      total("server.session.pump") - record_ns - rc4_keys - kdf_rekey;
  v["server.session.pump.calls"] = static_cast<double>(w.pump_calls);
  v["server.session.retries"] = static_cast<double>(w.retries);
  v["server.session.repairs"] = static_cast<double>(w.repairs);
  v["server.session.useful_record_ratio"] =
      w.records + w.retries > 0
          ? static_cast<double>(w.records) / static_cast<double>(w.records + w.retries)
          : 0.0;
  const double hs_ok = full_ok + sum(w.resume_ok);
  const double hs_attempts = hs_ok + static_cast<double>(w.full_failed + w.resume_failed);
  v["server.session.handshake_success_ratio"] = hs_attempts > 0 ? hs_ok / hs_attempts : 0.0;
  v["server.session_table.insert_ns"] = total("server.session_table.insert");
  v["server.session_table.erase_ns"] = total("server.session_table.erase");
  v["server.session_table.ops"] = static_cast<double>(w.table_ops);
  // The engine's own table is not reachable through the public API; the
  // walk holds one session at a time.  Peak size is the engine's modelled
  // peak of live sessions, and bytes the structural cost of that many.
  v["server.session_table.peak_size"] = static_cast<double>(rep_1.peak_sessions);
  v["server.session_table.bytes_reserved"] =
      static_cast<double>(rep_1.peak_sessions) *
      static_cast<double>(server::SessionTable::bytes_per_session());
  v["server.scheduler.push_ns"] = total("server.scheduler.push");
  v["server.scheduler.pushes"] = static_cast<double>(w.pushes);
  v["server.scheduler.drain_wait_ns"] = self("server.scheduler.drain");
  v["server.scheduler.backpressure_waits"] = static_cast<double>(rep_n.backpressure_waits);
  v["server.scheduler.peak_real_depth"] = static_cast<double>(rep_n.peak_real_depth);
  v["server.scheduler.failed_tasks"] = static_cast<double>(rep_n.failed_tasks);
  v["server.traffic.next_ns"] = total("server.traffic.next");
  v["server.traffic.arrivals"] = static_cast<double>(w.arrivals);
  v["server.engine.run.busy_ns"] = engine_ns;

  double checkpoint_ns = 0.0;
  if (chaos) {
    double bytes = 0.0;
    for (const auto& p : sink.payloads) bytes += static_cast<double>(p.size());
    std::vector<server::EngineCheckpoint> decoded;
    const auto t0 = Clock::now();
    for (const auto& p : sink.payloads) decoded.push_back(server::decode_checkpoint(p));
    const double decode_ns = ns_since(t0);
    const auto t1 = Clock::now();
    for (const auto& cp : decoded) server::validate_checkpoint(cp);
    const double validate_ns = ns_since(t1);
    checkpoint_ns = sink.sink_ns;
    v["server.checkpoint.count"] = static_cast<double>(sink.payloads.size());
    v["server.checkpoint.bytes"] = bytes;
    v["server.checkpoint.entries"] = static_cast<double>(sink.entries);
    v["server.checkpoint.live_entry_ratio"] =
        sink.entries ? static_cast<double>(sink.parked) / static_cast<double>(sink.entries)
                     : 0.0;
    v["server.checkpoint.encode_ns"] = sink.encode_ns;
    v["server.checkpoint.decode_ns"] = decode_ns;
    v["server.checkpoint.validate_ns"] = validate_ns;
    v["server.record.scan_ns"] = ch.scan_ns;
    v["server.record.resume_ns"] = ch.resume_ns;
  }
  const double walk_ns = ledger.root_ns();
  const double unattributed = engine_ns - walk_ns - checkpoint_ns;
  v["server.engine.unattributed_ns"] = unattributed;
  v["bench.trace_overhead_ns"] = w.wall_ns - w0.wall_ns;
  v["bench.walk_mismatches"] = static_cast<double>(w.mismatches);

  const double session_self =
      v["server.session.handshake.busy_ns"] + v["server.session.resume.busy_ns"] +
      v["server.session.pump.busy_ns"] + total("server.session.teardown") +
      self("server.session");
  add_shares(v, {
                    {"mp", rsa_ns + w.keygen_ns},
                    {"crypto.cipher", cipher},
                    {"crypto.hash", hmac},
                    {"ssl", (hs_ns - rsa_ns - kdf_hs) + kdf_ns +
                                (record_ns - (cipher - rc4_keys) - hmac)},
                    {"server.session", session_self},
                    {"server.session_table", v["server.session_table.insert_ns"] +
                                                 v["server.session_table.erase_ns"]},
                    {"server.scheduler", v["server.scheduler.push_ns"] +
                                             v["server.scheduler.drain_wait_ns"]},
                    {"server.traffic", v["server.traffic.next_ns"]},
                    {"server.checkpoint", checkpoint_ns},
                    {"server.unattributed", unattributed},
                });
  if (!opt.trace_out.empty()) {
    checks.expect(ledger.write_chrome_json(opt.trace_out, 64),
                  "trace written to " + opt.trace_out);
  }
}

}  // namespace

Result run_server_workload(const Options& opt) {
  const ServerSpec& spec = spec_for(opt.workload);
  const std::string source = read_file(opt.workload_dir + "/" + spec.file);
  const bool chaos = spec.checkpoint_every > 0.0;
  Checks checks;
  Result r;

  // Set-up: compile the program, construct the engine (and, for the
  // checkpointed workload, the recorder that writes the trace's inputs).
  double compile_ns = 0.0;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    const scenario::CompiledScenario fresh =
        compile_workload(source, spec, opt.seed);
    compile_ns = ns_since(t0);
    const EngineConfig cfg = engine_config(spec, opt.threads);
    if (chaos) {
      server::RunRecorder rec(cfg, fresh.scenario, fresh.source);
      server::Engine engine(rec.engine_config());
    } else {
      server::Engine engine(cfg);
    }
    return seconds_since(t0);
  };
  // The timed set-ups follow 0.2 s of untimed ones: the process starts on
  // an idle core, and its first milliseconds run measurably slower.
  for (const auto t0 = Clock::now(); seconds_since(t0) < 0.2;) set_up();
  constexpr int kSetupReps = 21;
  std::vector<double> setup_t, compile_t;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_t.push_back(set_up());
    compile_t.push_back(compile_ns);
  }
  const scenario::CompiledScenario c = compile_workload(source, spec, opt.seed);
  if (opt.trace) {
    std::map<std::string, double> v;
    v["scenario.compile_ns"] = median(compile_t);
    traced_run(opt, spec, c, checks, v, r);
    r.metrics = per_layer_metrics(v);
    r.failed = checks.failed();
    r.correct = checks.failed() == 0;
    return r;
  }

  const EngineConfig cfg = engine_config(spec, opt.threads);
  std::optional<server::Engine> engine;
  if (!chaos) engine.emplace(cfg);
  struct Sample {
    RunReport report;
    double run_s = 0.0;
    double recovery_s = 0.0;
    std::size_t trace_bytes = 0;
  };
  auto repetition = [&]() {
    Sample s;
    if (chaos) {
      ChaosRep ch = chaos_repetition(checks, cfg, c);
      s.report = std::move(ch.report);
      s.run_s = ch.run_s;
      s.recovery_s = ch.recovery_s;
      s.trace_bytes = ch.trace_bytes;
    } else {
      const auto t0 = Clock::now();
      s.report = engine->run(c.scenario);
      s.run_s = seconds_since(t0);
    }
    check_report(checks, s.report, opt.workload, opt.seed, "timed");
    return s;
  };

  // The first repetition warms caches and lazy set-up; it is checked but
  // not timed, and its deterministic outputs are the reference the timed
  // repetitions must repeat exactly.
  const Sample first = repetition();
  std::vector<double> sps, recovery;
  std::uint64_t offered = first.report.offered, lost = 0;
  const auto t_measure = Clock::now();
  constexpr int kMinReps = 3;
  constexpr int kSetupSamplesPerRep = 41;
  while (sps.size() < kMinReps || seconds_since(t_measure) < opt.seconds) {
    const Sample s = repetition();
    sps.push_back(static_cast<double>(s.report.completed) / s.run_s);
    // More set-up samples between repetitions: host speed changes within
    // a run, and a few milliseconds of set-ups in one burst would catch
    // only one moment of it.
    for (int i = 0; i < kSetupSamplesPerRep; ++i) setup_t.push_back(set_up());
    recovery.push_back(s.recovery_s);
    offered += s.report.offered;
    lost += s.report.offered - s.report.completed;
    const auto diff = server::compare_reports(first.report, s.report);
    checks.expect(diff.empty(), "deterministic report repeats exactly" +
                                    (diff.empty() ? "" : " (" + diff.front() + ")"));
  }

  const double setup_s = median(setup_t);
  const RunReport& ref = first.report;
  const double completed_share =
      static_cast<double>(ref.completed) / static_cast<double>(ref.offered);
  const double rss = peak_rss_mib();
  r.attempted = offered;
  // Chaos aborts and admission drops are the checkpointed workload's
  // designed outcome (pinned by its digests); elsewhere any lost session is
  // a failure.
  r.failed = checks.failed() + (chaos ? 0 : lost);
  r.correct = checks.failed() == 0;
  r.report.push_back({"sessions_per_s", median(sps), "sessions/s"});
  if (chaos) {
    r.report.push_back({"recovery_s", median(recovery), "s"});
    r.report.push_back({"trace_bytes_per_session",
                        static_cast<double>(first.trace_bytes) /
                            static_cast<double>(ref.admitted),
                        "B"});
  }
  for (const Metric& m : deterministic_metrics(ref)) r.report.push_back(m);
  r.report.push_back({"failed_ratio",
                      static_cast<double>(lost + checks.failed()) /
                          static_cast<double>(offered),
                      "fraction"});
  r.report.push_back({"setup_s", setup_s, "s"});
  r.report.push_back({"peak_rss_mib", rss, "MiB"});
  r.report.push_back({"repetitions", static_cast<double>(sps.size()), "count"});

  r.metrics = {
      {"throughput_per_s", median(sps), "1/s"},
      {"platform_speedup", ref.equivalent_speedup, "x"},
      {"success_ratio", completed_share, "fraction"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", rss, "MiB"},
  };
  return r;
}

}  // namespace perfbench

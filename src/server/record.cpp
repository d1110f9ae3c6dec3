#include "server/record.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>

#include "support/threadpool.h"

#ifndef WSP_GIT_REV
#define WSP_GIT_REV "unknown"
#endif

namespace wsp::server {

namespace {

using replay::Cursor;
using replay::ErrorKind;
using replay::ReplayError;
using replay::put_double;
using replay::put_string;
using replay::put_varint;
using replay::put_zigzag;

constexpr std::uint64_t tag(RecordChunk c) {
  return static_cast<std::uint64_t>(c);
}

/// A varint that must fit a 32-bit field (users, mix weights, retry
/// budgets): larger values are malformed, never truncated.
std::uint32_t get_u32(Cursor& c, const char* what) {
  const std::uint64_t v = c.varint();
  if (v > UINT32_MAX) {
    throw ReplayError(ErrorKind::kMalformed, c.offset(),
                      std::string(what) + " " + std::to_string(v) +
                          " does not fit 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

ssl::Cipher get_cipher(Cursor& c) {
  const std::uint64_t raw = c.varint();
  if (raw > static_cast<std::uint64_t>(ssl::Cipher::kRc4)) {
    throw ReplayError(ErrorKind::kMalformed, c.offset(),
                      "unknown cipher id " + std::to_string(raw));
  }
  return static_cast<ssl::Cipher>(raw);
}

// FaultConfig's nine fields, shared by the config chunk and per-phase fault
// overlays.  Order is load-bearing: it IS the kConfig byte layout.
void put_fault_config(std::vector<std::uint8_t>& p, const FaultConfig& f) {
  put_double(p, f.wire_flip_rate);
  put_double(p, f.handshake_failure_rate);
  put_double(p, f.abort_rate);
  put_double(p, f.stall_rate);
  put_double(p, f.stall_cycles);
  put_varint(p, f.record_retry_budget);
  put_varint(p, f.handshake_retry_budget);
  put_double(p, f.backoff_base_cycles);
  put_double(p, f.backoff_cap_cycles);
}

FaultConfig get_fault_config(Cursor& c) {
  FaultConfig f;
  f.wire_flip_rate = c.f64();
  f.handshake_failure_rate = c.f64();
  f.abort_rate = c.f64();
  f.stall_rate = c.f64();
  f.stall_cycles = c.f64();
  f.record_retry_budget = get_u32(c, "record_retry_budget");
  f.handshake_retry_budget = get_u32(c, "handshake_retry_budget");
  f.backoff_base_cycles = c.f64();
  f.backoff_cap_cycles = c.f64();
  return f;
}

// The kScenario layout is v1's: a flat parameter set (sessions, model,
// load, users, think, cipher grid, delta-coded size grid, record_bytes,
// resume flag), then the phase program appended after it.  Current builds
// write the flat header as placeholders (zeros and empty grids) and the
// program after it; a record with zero phases is a flat scenario of an
// earlier build, which decode_scenario lowers to a one-phase program.
std::vector<std::uint8_t> encode_scenario(const TrafficScenario& s) {
  std::vector<std::uint8_t> p;
  put_varint(p, s.seed);
  put_varint(p, 0);    // sessions
  put_varint(p, 0);    // model
  put_double(p, 0.0);  // offered_load
  put_varint(p, 0);    // users
  put_double(p, 0.0);  // think_cycles
  put_varint(p, 0);    // cipher grid
  put_varint(p, 0);    // size grid
  put_varint(p, s.record_bytes);
  put_varint(p, 0);    // resume flag
  put_varint(p, s.phases.size());
  for (const TrafficPhase& ph : s.phases) {
    put_string(p, ph.name);
    put_varint(p, ph.sessions);
    put_varint(p, ph.model == ArrivalModel::kOpenLoop ? 0 : 1);
    put_double(p, ph.offered_load);
    put_varint(p, ph.users);
    put_double(p, ph.think_cycles);
    put_double(p, ph.resume_fraction);
    put_varint(p, ph.cipher_mix.size());
    for (const CipherMix& m : ph.cipher_mix) {
      put_varint(p, static_cast<std::uint64_t>(m.cipher));
      put_varint(p, m.weight);
    }
    put_varint(p, ph.size_mix.size());
    for (const SizeMix& m : ph.size_mix) {
      put_varint(p, m.bytes);
      put_varint(p, m.weight);
    }
    put_varint(p, ph.faults ? 1 : 0);
    if (ph.faults) put_fault_config(p, *ph.faults);
  }
  return p;
}

/// Decodes a kScenario payload and validates the result: anything
/// TrafficScenario::validate() rejects is a typed kMalformed.  A record
/// without phases (written by an earlier build from a flat scenario) is
/// lowered to one phase "phase0" whose unit-weight mixes are the flat grids
/// and whose resume_fraction is the flat resume flag; `*lowered` reports
/// whether that happened.
TrafficScenario decode_scenario(const std::vector<std::uint8_t>& payload,
                                bool* lowered = nullptr) {
  Cursor c(payload);
  TrafficScenario s;
  TrafficPhase flat;
  flat.name = "phase0";
  s.seed = c.varint();
  flat.sessions = static_cast<std::size_t>(c.varint());
  flat.model =
      c.varint() == 0 ? ArrivalModel::kOpenLoop : ArrivalModel::kClosedLoop;
  flat.offered_load = c.f64();
  flat.users = get_u32(c, "users");
  flat.think_cycles = c.f64();
  flat.cipher_mix.clear();
  const std::uint64_t ciphers = c.varint();
  for (std::uint64_t i = 0; i < ciphers; ++i) {
    flat.cipher_mix.push_back({get_cipher(c), 1});
  }
  flat.size_mix.clear();
  const std::uint64_t sizes = c.varint();
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < sizes; ++i) {
    prev += c.zigzag();
    if (prev <= 0) {
      throw ReplayError(ErrorKind::kMalformed, c.offset(),
                        "non-positive transaction size");
    }
    flat.size_mix.push_back({static_cast<std::size_t>(prev), 1});
  }
  s.record_bytes = static_cast<std::size_t>(c.varint());
  if (!c.done()) flat.resume_fraction = c.varint() != 0 ? 1.0 : 0.0;
  const std::uint64_t phases = c.done() ? 0 : c.varint();
  for (std::uint64_t i = 0; i < phases; ++i) {
    TrafficPhase ph;
    ph.name = c.str();
    ph.sessions = static_cast<std::size_t>(c.varint());
    ph.model =
        c.varint() == 0 ? ArrivalModel::kOpenLoop : ArrivalModel::kClosedLoop;
    ph.offered_load = c.f64();
    ph.users = get_u32(c, "users");
    ph.think_cycles = c.f64();
    ph.resume_fraction = c.f64();
    ph.cipher_mix.clear();
    const std::uint64_t mixes = c.varint();
    for (std::uint64_t j = 0; j < mixes; ++j) {
      CipherMix m;
      m.cipher = get_cipher(c);
      m.weight = get_u32(c, "cipher mix weight");
      ph.cipher_mix.push_back(m);
    }
    ph.size_mix.clear();
    const std::uint64_t sizes_n = c.varint();
    for (std::uint64_t j = 0; j < sizes_n; ++j) {
      SizeMix m;
      m.bytes = static_cast<std::size_t>(c.varint());
      if (m.bytes == 0) {
        throw ReplayError(ErrorKind::kMalformed, c.offset(),
                          "zero transaction size in phase mix");
      }
      m.weight = get_u32(c, "size mix weight");
      ph.size_mix.push_back(m);
    }
    if (c.varint() != 0) ph.faults = get_fault_config(c);
    s.phases.push_back(std::move(ph));
  }
  if (s.phases.empty()) s.phases.push_back(std::move(flat));
  if (lowered) *lowered = phases == 0;
  try {
    s.validate();
  } catch (const std::invalid_argument& e) {
    throw ReplayError(ErrorKind::kMalformed, c.offset(),
                      std::string("scenario: ") + e.what());
  }
  return s;
}

std::vector<std::uint8_t> encode_config(const EngineConfig& cfg) {
  std::vector<std::uint8_t> p;
  put_varint(p, cfg.shards);
  put_varint(p, cfg.queue_capacity);
  put_varint(p, cfg.record_batch);
  put_varint(p, cfg.rsa_bits);
  put_varint(p, cfg.pricing == Pricing::kBase ? 0 : 1);
  put_varint(p, cfg.degrade_depth);
  put_fault_config(p, cfg.faults);
  return p;
}

EngineConfig decode_config(const std::vector<std::uint8_t>& payload) {
  Cursor c(payload);
  EngineConfig cfg;
  cfg.shards = static_cast<unsigned>(c.varint());
  cfg.queue_capacity = static_cast<std::size_t>(c.varint());
  cfg.record_batch = static_cast<std::size_t>(c.varint());
  cfg.rsa_bits = static_cast<std::size_t>(c.varint());
  cfg.pricing = c.varint() == 0 ? Pricing::kBase : Pricing::kOptimized;
  cfg.degrade_depth = static_cast<std::size_t>(c.varint());
  cfg.faults = get_fault_config(c);
  // Traces of earlier builds append the lane width of the deleted batched
  // record plane (batch_lanes); it never changed a report, so it is read
  // and ignored.
  if (!c.done()) (void)c.varint();
  return cfg;
}

void put_costs(std::vector<std::uint8_t>& p, const ssl::PlatformCosts& c) {
  put_double(p, c.rsa_private_cycles);
  put_double(p, c.rsa_public_cycles);
  put_double(p, c.symmetric_cycles_per_byte);
  put_double(p, c.hash_cycles_per_byte);
  put_double(p, c.handshake_misc_cycles);
  put_double(p, c.misc_cycles_per_byte);
}

ssl::PlatformCosts get_costs(Cursor& c) {
  ssl::PlatformCosts out;
  out.rsa_private_cycles = c.f64();
  out.rsa_public_cycles = c.f64();
  out.symmetric_cycles_per_byte = c.f64();
  out.hash_cycles_per_byte = c.f64();
  out.handshake_misc_cycles = c.f64();
  out.misc_cycles_per_byte = c.f64();
  return out;
}

std::vector<std::uint8_t> encode_report(const RunReport& r) {
  std::vector<std::uint8_t> p;
  put_varint(p, r.offered);
  put_varint(p, r.admitted);
  put_varint(p, r.completed);
  put_varint(p, r.dropped);
  put_varint(p, r.aborted);
  put_varint(p, r.retried);
  put_varint(p, r.repaired);
  put_varint(p, r.faults_injected);
  put_varint(p, r.shed);
  put_varint(p, r.degrade_enters);
  put_varint(p, r.records);
  put_varint(p, r.wire_bytes);
  put_varint(p, r.bytes_digest);
  put_double(p, r.latency.p50);
  put_double(p, r.latency.p90);
  put_double(p, r.latency.p99);
  put_double(p, r.latency.max);
  put_double(p, r.makespan_cycles);
  put_double(p, r.throughput_per_gcycle);
  put_varint(p, r.peak_virtual_depth);
  put_varint(p, r.peak_sessions);
  put_double(p, r.mean_service_cycles);
  put_double(p, r.platform_cycles_base);
  put_double(p, r.platform_cycles_optimized);
  put_double(p, r.equivalent_speedup);
  put_varint(p, r.shards.size());
  for (const ShardReport& sh : r.shards) {
    put_varint(p, sh.admitted);
    put_varint(p, sh.dropped);
    put_varint(p, sh.completed);
    put_varint(p, sh.aborted);
    put_varint(p, sh.wire_bytes);
    put_varint(p, sh.records);
    put_varint(p, sh.retried);
    put_varint(p, sh.repaired);
    put_varint(p, sh.faults_injected);
    put_varint(p, sh.peak_virtual_depth);
    put_varint(p, sh.events_digest);
  }
  // Appended after v1's last field (see encode_scenario note).
  put_varint(p, r.memory_per_session);
  return p;
}

RunReport decode_report(const std::vector<std::uint8_t>& payload) {
  Cursor c(payload);
  RunReport r;
  r.offered = c.varint();
  r.admitted = c.varint();
  r.completed = c.varint();
  r.dropped = c.varint();
  r.aborted = c.varint();
  r.retried = c.varint();
  r.repaired = c.varint();
  r.faults_injected = c.varint();
  r.shed = c.varint();
  r.degrade_enters = c.varint();
  r.records = c.varint();
  r.wire_bytes = c.varint();
  r.bytes_digest = static_cast<std::uint32_t>(c.varint());
  r.latency.p50 = c.f64();
  r.latency.p90 = c.f64();
  r.latency.p99 = c.f64();
  r.latency.max = c.f64();
  r.makespan_cycles = c.f64();
  r.throughput_per_gcycle = c.f64();
  r.peak_virtual_depth = static_cast<std::size_t>(c.varint());
  r.peak_sessions = static_cast<std::size_t>(c.varint());
  r.mean_service_cycles = c.f64();
  r.platform_cycles_base = c.f64();
  r.platform_cycles_optimized = c.f64();
  r.equivalent_speedup = c.f64();
  const std::uint64_t shards = c.varint();
  r.shards.resize(static_cast<std::size_t>(shards));
  for (ShardReport& sh : r.shards) {
    sh.admitted = c.varint();
    sh.dropped = c.varint();
    sh.completed = c.varint();
    sh.aborted = c.varint();
    sh.wire_bytes = c.varint();
    sh.records = c.varint();
    sh.retried = c.varint();
    sh.repaired = c.varint();
    sh.faults_injected = c.varint();
    sh.peak_virtual_depth = static_cast<std::size_t>(c.varint());
    sh.events_digest = c.varint();
  }
  if (!c.done()) r.memory_per_session = c.varint();
  return r;
}

std::vector<std::uint8_t> encode_events(const std::vector<SessionEvent>& evs) {
  std::vector<std::uint8_t> p;
  put_varint(p, evs.size());
  std::int64_t prev_id = 0;
  for (const SessionEvent& ev : evs) {
    put_zigzag(p, static_cast<std::int64_t>(ev.id) - prev_id);
    prev_id = static_cast<std::int64_t>(ev.id);
    put_varint(p, ev.shard);
    put_varint(p, ev.wire_bytes);
    put_varint(p, ev.records);
    put_varint(p, ev.retries);
    put_varint(p, ev.repairs);
    put_varint(p, ev.faults);
    put_varint(p, ev.completed ? 1 : 0);
  }
  return p;
}

std::vector<SessionEvent> decode_events(
    const std::vector<std::uint8_t>& payload) {
  Cursor c(payload);
  const std::uint64_t count = c.varint();
  std::vector<SessionEvent> evs;
  evs.reserve(static_cast<std::size_t>(count));
  std::int64_t prev_id = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    SessionEvent ev;
    prev_id += c.zigzag();
    if (prev_id < 0) {
      throw ReplayError(ErrorKind::kMalformed, c.offset(),
                        "negative session id in event stream");
    }
    ev.id = static_cast<std::uint64_t>(prev_id);
    ev.shard = static_cast<std::uint32_t>(c.varint());
    ev.wire_bytes = c.varint();
    ev.records = c.varint();
    ev.retries = static_cast<std::uint32_t>(c.varint());
    ev.repairs = static_cast<std::uint32_t>(c.varint());
    ev.faults = static_cast<std::uint32_t>(c.varint());
    ev.completed = c.varint() != 0;
    evs.push_back(ev);
  }
  return evs;
}

/// The input chunks every trace starts with, whether written at once
/// (encode_run_record) or incrementally (RunRecorder).
void write_input_chunks(replay::ChunkWriter& writer, const RunRecord& record) {
  {
    std::vector<std::uint8_t> meta;
    put_string(meta, record.git_rev);
    put_varint(meta, record.recorded_threads);
    writer.chunk(tag(RecordChunk::kMeta), meta);
  }
  writer.chunk(tag(RecordChunk::kScenario), encode_scenario(record.scenario));
  if (!record.scenario_source.empty()) {
    // Informational: the .wsp text the scenario was compiled from.  Replay
    // runs from the lowered kScenario chunk, never from this text, so the
    // compiler cannot drift a recorded run; older binaries skip the
    // unknown tag entirely.
    std::vector<std::uint8_t> src;
    put_string(src, record.scenario_source);
    writer.chunk(tag(RecordChunk::kScenarioSource), src);
  }
  writer.chunk(tag(RecordChunk::kConfig), encode_config(record.config));
  {
    std::vector<std::uint8_t> costs;
    put_costs(costs, calibrated_costs(Pricing::kBase));
    put_costs(costs, calibrated_costs(Pricing::kOptimized));
    writer.chunk(tag(RecordChunk::kCosts), costs);
  }
}

bool costs_match(const ssl::PlatformCosts& a, const ssl::PlatformCosts& b) {
  return a.rsa_private_cycles == b.rsa_private_cycles &&
         a.rsa_public_cycles == b.rsa_public_cycles &&
         a.symmetric_cycles_per_byte == b.symmetric_cycles_per_byte &&
         a.hash_cycles_per_byte == b.hash_cycles_per_byte &&
         a.handshake_misc_cycles == b.handshake_misc_cycles &&
         a.misc_cycles_per_byte == b.misc_cycles_per_byte;
}

/// The recorded calibration must match this binary's; a drifted cost model
/// would re-time every virtual event and make any mismatch meaningless.
void require_calibration(const ssl::PlatformCosts& rec_base,
                         const ssl::PlatformCosts& rec_opt,
                         const std::string& git_rev) {
  if (!costs_match(rec_base, calibrated_costs(Pricing::kBase)) ||
      !costs_match(rec_opt, calibrated_costs(Pricing::kOptimized))) {
    throw ReplayError(ErrorKind::kMalformed, 0,
                      "recorded calibrated_costs differ from this binary's "
                      "(recorded at git_rev " + git_rev + ")");
  }
}

/// The one chunk walker behind decode_run_record (strict) and
/// scan_trace_for_resume (lenient).  Header errors (magic/version) and any
/// damage before the input chunks are complete identify no run at all and
/// always throw.  Past the inputs, a strict walk throws too; a lenient one
/// treats framing/CRC/decode/validation damage as the tear a crash leaves
/// behind, stops at the last good chunk and records why in `tear`.
ResumeScan walk_trace(const std::vector<std::uint8_t>& bytes, bool lenient) {
  ResumeScan scan;
  replay::ChunkReader reader(bytes);
  scan.scanned_bytes = reader.offset();
  bool meta = false, scenario = false, config = false, costs = false,
       report = false, events = false, ended = false, lowered = false;
  ssl::PlatformCosts rec_base, rec_opt;
  const auto inputs_ok = [&] { return meta && scenario && config && costs; };
  try {
    for (;;) {
      const std::size_t chunk_start = reader.offset();
      auto chunk = reader.next();
      if (!chunk) {
        ended = true;
        break;
      }
      switch (static_cast<RecordChunk>(chunk->tag)) {
        case RecordChunk::kMeta: {
          Cursor c(chunk->payload);
          scan.record.git_rev = c.str();
          scan.record.recorded_threads = static_cast<unsigned>(c.varint());
          meta = true;
          break;
        }
        case RecordChunk::kScenario:
          scan.record.scenario = decode_scenario(chunk->payload, &lowered);
          scenario = true;
          break;
        case RecordChunk::kScenarioSource: {
          Cursor c(chunk->payload);
          scan.record.scenario_source = c.str();
          break;
        }
        case RecordChunk::kConfig:
          scan.record.config = decode_config(chunk->payload);
          scan.record.config.threads = scan.record.recorded_threads;
          scan.record.config.record_events = true;
          config = true;
          break;
        case RecordChunk::kCosts: {
          Cursor c(chunk->payload);
          rec_base = get_costs(c);
          rec_opt = get_costs(c);
          costs = true;
          break;
        }
        case RecordChunk::kCheckpoint: {
          if (!inputs_ok()) {
            throw ReplayError(ErrorKind::kMalformed, chunk_start,
                              "checkpoint chunk before the input chunks");
          }
          EngineCheckpoint cp = decode_checkpoint(chunk->payload);
          if (lowered) {
            // A flat generator (earlier builds) kept no phase cursor and
            // staggered its closed-loop population at construction.  In
            // the lowered one-phase program that is phase 0, already
            // entered, with every arrival drawn so far in it.
            cp.generator.phase_done = cp.generator.next_id;
            cp.generator.phase_entered = true;
          }
          if (cp.seq != scan.checkpoints.size()) {
            throw ReplayError(
                ErrorKind::kMalformed, chunk_start,
                "checkpoint seq " + std::to_string(cp.seq) +
                    " out of order (expected " +
                    std::to_string(scan.checkpoints.size()) + ")");
          }
          if (!scan.checkpoints.empty() &&
              cp.virtual_now <= scan.checkpoints.back().virtual_now) {
            throw ReplayError(ErrorKind::kMalformed, chunk_start,
                              "checkpoint virtual time not increasing");
          }
          scan.checkpoints.push_back(std::move(cp));
          break;
        }
        case RecordChunk::kReport:
          scan.record.report = decode_report(chunk->payload);
          report = true;
          break;
        case RecordChunk::kEvents:
          scan.record.report.events = decode_events(chunk->payload);
          events = true;
          break;
        default:
          // Unknown chunk tags are skipped (CRC already validated): room for
          // forward-compatible additions within the same format version.
          break;
      }
      scan.scanned_bytes = reader.offset();
    }
  } catch (const ReplayError& e) {
    if (!lenient || !inputs_ok()) throw;
    scan.tear = e.what();
  }
  if (!inputs_ok()) {
    throw ReplayError(ErrorKind::kMalformed, bytes.size(),
                      "trace ends before the input chunks are complete");
  }
  require_calibration(rec_base, rec_opt, scan.record.git_rev);
  scan.complete = ended && report && events && scan.tear.empty();
  if (!scan.complete) {
    if (!lenient) {
      throw ReplayError(ErrorKind::kMalformed, bytes.size(),
                        "run record is missing a required chunk");
    }
    // Don't hand out a half-read outcome: a report without its event stream
    // (or vice versa) is not a verification target.
    scan.record.report = RunReport{};
  }
  return scan;
}

}  // namespace

std::vector<std::uint8_t> encode_run_record(const RunRecord& record) {
  replay::VectorSink sink;
  replay::ChunkWriter writer(sink);
  write_input_chunks(writer, record);
  writer.chunk(tag(RecordChunk::kReport), encode_report(record.report));
  writer.chunk(tag(RecordChunk::kEvents), encode_events(record.report.events));
  writer.end();
  return sink.take();
}

RunRecord decode_run_record(const std::vector<std::uint8_t>& bytes) {
  return std::move(walk_trace(bytes, /*lenient=*/false).record);
}

ResumeScan scan_trace_for_resume(const std::vector<std::uint8_t>& bytes) {
  return walk_trace(bytes, /*lenient=*/true);
}

namespace {

void expect_u64(std::vector<std::string>& out, const char* field,
                std::uint64_t expected, std::uint64_t actual) {
  if (expected == actual) return;
  out.push_back(std::string(field) + ": recorded " + std::to_string(expected) +
                ", replayed " + std::to_string(actual));
}

void expect_f64(std::vector<std::string>& out, const char* field,
                double expected, double actual) {
  if (expected == actual ||
      (std::isnan(expected) && std::isnan(actual))) {
    return;
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: recorded %.17g, replayed %.17g", field,
                expected, actual);
  out.emplace_back(buf);
}

}  // namespace

std::vector<std::string> compare_reports(const RunReport& want,
                                         const RunReport& got) {
  std::vector<std::string> mm;
  expect_u64(mm, "offered", want.offered, got.offered);
  expect_u64(mm, "admitted", want.admitted, got.admitted);
  expect_u64(mm, "completed", want.completed, got.completed);
  expect_u64(mm, "dropped", want.dropped, got.dropped);
  expect_u64(mm, "aborted", want.aborted, got.aborted);
  expect_u64(mm, "retried", want.retried, got.retried);
  expect_u64(mm, "repaired", want.repaired, got.repaired);
  expect_u64(mm, "faults_injected", want.faults_injected, got.faults_injected);
  expect_u64(mm, "shed", want.shed, got.shed);
  expect_u64(mm, "degrade_enters", want.degrade_enters, got.degrade_enters);
  expect_u64(mm, "records", want.records, got.records);
  expect_u64(mm, "wire_bytes", want.wire_bytes, got.wire_bytes);
  expect_u64(mm, "bytes_digest", want.bytes_digest, got.bytes_digest);
  expect_f64(mm, "latency.p50", want.latency.p50, got.latency.p50);
  expect_f64(mm, "latency.p90", want.latency.p90, got.latency.p90);
  expect_f64(mm, "latency.p99", want.latency.p99, got.latency.p99);
  expect_f64(mm, "latency.max", want.latency.max, got.latency.max);
  expect_f64(mm, "makespan_cycles", want.makespan_cycles, got.makespan_cycles);
  expect_f64(mm, "throughput_per_gcycle", want.throughput_per_gcycle,
             got.throughput_per_gcycle);
  expect_u64(mm, "peak_virtual_depth", want.peak_virtual_depth,
             got.peak_virtual_depth);
  expect_u64(mm, "peak_sessions", want.peak_sessions, got.peak_sessions);
  expect_f64(mm, "mean_service_cycles", want.mean_service_cycles,
             got.mean_service_cycles);
  expect_f64(mm, "platform_cycles_base", want.platform_cycles_base,
             got.platform_cycles_base);
  expect_f64(mm, "platform_cycles_optimized", want.platform_cycles_optimized,
             got.platform_cycles_optimized);
  expect_f64(mm, "equivalent_speedup", want.equivalent_speedup,
             got.equivalent_speedup);
  if (want.memory_per_session != 0) {
    // Zero means the record predates the field; nothing to verify then.
    expect_u64(mm, "memory_per_session", want.memory_per_session,
               got.memory_per_session);
  }

  expect_u64(mm, "shard count", want.shards.size(), got.shards.size());
  const std::size_t shards = std::min(want.shards.size(), got.shards.size());
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string prefix = "shard[" + std::to_string(s) + "].";
    const ShardReport& w = want.shards[s];
    const ShardReport& g = got.shards[s];
    expect_u64(mm, (prefix + "events_digest").c_str(), w.events_digest,
               g.events_digest);
    expect_u64(mm, (prefix + "admitted").c_str(), w.admitted, g.admitted);
    expect_u64(mm, (prefix + "dropped").c_str(), w.dropped, g.dropped);
    expect_u64(mm, (prefix + "completed").c_str(), w.completed, g.completed);
    expect_u64(mm, (prefix + "aborted").c_str(), w.aborted, g.aborted);
    expect_u64(mm, (prefix + "wire_bytes").c_str(), w.wire_bytes, g.wire_bytes);
    expect_u64(mm, (prefix + "records").c_str(), w.records, g.records);
    expect_u64(mm, (prefix + "peak_virtual_depth").c_str(),
               w.peak_virtual_depth, g.peak_virtual_depth);
  }

  expect_u64(mm, "event count", want.events.size(), got.events.size());
  const std::size_t events = std::min(want.events.size(), got.events.size());
  for (std::size_t i = 0; i < events; ++i) {
    if (want.events[i] == got.events[i]) continue;
    mm.push_back("events[" + std::to_string(i) + "] (session " +
                 std::to_string(want.events[i].id) + "): digest recorded " +
                 std::to_string(want.events[i].digest()) + ", replayed " +
                 std::to_string(got.events[i].digest()));
  }
  return mm;
}

unsigned replay_threads(unsigned recorded_threads, unsigned threads_override) {
  if (threads_override > 0) return threads_override;
  return std::clamp(recorded_threads, 1u, ThreadPool::hardware_threads());
}

// --- incremental recording + crash/resume ----------------------------------

/// Every byte goes to the in-memory mirror and, when a path was given, to
/// the file as well — so tests can tear the mirror exactly like the file.
struct RunRecorder::Tee final : replay::ByteSink {
  std::vector<std::uint8_t> buf;
  std::optional<replay::FileSink> file;

  explicit Tee(const std::string& path) {
    if (!path.empty()) file.emplace(path);
  }
  void write(const std::uint8_t* data, std::size_t n) override {
    buf.insert(buf.end(), data, data + n);
    if (file) file->write(data, n);
  }
  void finish() override {
    if (file) file->finish();
  }
};

RunRecorder::RunRecorder(const EngineConfig& config,
                         const TrafficScenario& scenario,
                         std::string scenario_source, const std::string& path)
    : path_(path) {
  // Store the RESOLVED config: auto-shards (shards == 0) is a property of
  // the recording host, and a replay elsewhere must pin the same count.
  resolved_ = Engine(config).config();
  resolved_.record_events = true;
  tee_ = std::make_unique<Tee>(path);
  writer_ = std::make_unique<replay::ChunkWriter>(*tee_);
  RunRecord inputs;
  inputs.git_rev = WSP_GIT_REV;
  inputs.recorded_threads = std::max(1u, resolved_.threads);
  inputs.scenario = scenario;
  inputs.scenario_source = std::move(scenario_source);
  inputs.config = resolved_;
  write_input_chunks(*writer_, inputs);
  if (tee_->file) tee_->file->flush();
}

RunRecorder::~RunRecorder() = default;

EngineConfig RunRecorder::engine_config() {
  EngineConfig cfg = resolved_;
  cfg.checkpoint_sink = this;
  return cfg;
}

void RunRecorder::on_checkpoint(const EngineCheckpoint& checkpoint) {
  if (closed_) {
    throw std::logic_error("record: checkpoint after the trace was closed");
  }
  checkpoint_offsets_.push_back(tee_->buf.size());
  std::vector<std::uint8_t> payload;
  encode_checkpoint(payload, checkpoint);
  writer_->chunk(tag(RecordChunk::kCheckpoint), payload);
  // Push the chunk to the OS now: a kill after this point loses at most the
  // bytes written since this barrier, and the scanner falls back cleanly.
  if (tee_->file) tee_->file->flush();
}

bool RunRecorder::finish(const RunReport& report) {
  if (closed_) return ok();
  writer_->chunk(tag(RecordChunk::kReport), encode_report(report));
  writer_->chunk(tag(RecordChunk::kEvents), encode_events(report.events));
  writer_->end();  // writes the end tag and closes the tee (and the file)
  closed_ = true;
  return ok();
}

void RunRecorder::crash(std::size_t torn_tail_bytes) {
  if (closed_) return;
  closed_ = true;
  if (tee_->file) tee_->file->finish();  // close WITHOUT the end tag
  std::vector<std::uint8_t>& buf = tee_->buf;
  const std::size_t torn = std::min(torn_tail_bytes, buf.size());
  buf.resize(buf.size() - torn);
  if (torn > 0 && !path_.empty()) {
    std::error_code ec;
    std::filesystem::resize_file(path_, buf.size(), ec);
    // A failed truncation only leaves a longer torn tail; the scanner
    // handles that shape anyway, so nothing to report here.
  }
}

const std::vector<std::uint8_t>& RunRecorder::bytes() const {
  return tee_->buf;
}

bool RunRecorder::ok() const { return !tee_->file || tee_->file->ok(); }

std::string RunRecorder::error() const {
  return tee_->file ? tee_->file->error() : std::string();
}

ReplayResult resume_run(const ResumeScan& scan, unsigned threads_override) {
  ReplayResult result;
  EngineConfig cfg = scan.record.config;
  cfg.record_events = true;
  cfg.threads = replay_threads(scan.record.recorded_threads, threads_override);
  // A resumed run neither re-crashes nor re-checkpoints: the crash already
  // happened, and the torn trace is evidence, not something to extend.
  // (crash_at_cycles is never serialized, so these are belt-and-braces for
  // callers that hand-build a ResumeScan.)
  cfg.faults.crash_at_cycles = 0.0;
  cfg.checkpoint_every = 0.0;
  cfg.checkpoint_sink = nullptr;
  TrafficScenario scenario = scan.record.scenario;
  for (TrafficPhase& ph : scenario.phases) {
    if (ph.faults) ph.faults->crash_at_cycles = 0.0;
  }
  Engine engine(cfg);
  if (scan.checkpoints.empty()) {
    // Nothing usable survived: restart from the beginning.  Resume is
    // always possible; checkpoints only buy back the work.
    result.report = engine.run(scenario);
  } else {
    const EngineCheckpoint& cp = scan.checkpoints.back();
    // Everything the engine's restore path treats as a programming error
    // (logic_error) is checked here first as typed kMalformed: a CRC-valid
    // checkpoint that lies about the run it belongs to is an input problem.
    check_checkpoint_fits(cp, scenario, engine.config().shards);
    result.report = engine.run(scenario, cp);
  }
  if (scan.complete) {
    result.mismatches = compare_reports(scan.record.report, result.report);
  }
  return result;
}

}  // namespace wsp::server

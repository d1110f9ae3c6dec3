// Tests for the wsp-replay-v1 codec (support/replay.h) and the engine
// run-record mapping (server/record.h): primitive round trips, randomized
// event-stream round trips, rejection of truncated/corrupted/version-skewed
// streams with typed errors, and RunRecord encode/decode identity.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "crypto/crc32.h"
#include "server/record.h"
#include "support/random.h"
#include "support/replay.h"

namespace wsp {
namespace {

using replay::Chunk;
using replay::ChunkReader;
using replay::ChunkWriter;
using replay::Cursor;
using replay::ErrorKind;
using replay::ReplayError;
using replay::VectorSink;

// --- primitives ------------------------------------------------------------

TEST(ReplayCodec, VarintRoundTripBoundaries) {
  const std::uint64_t values[] = {0,
                                  1,
                                  0x7F,
                                  0x80,
                                  0x3FFF,
                                  0x4000,
                                  1234567890123ULL,
                                  std::numeric_limits<std::uint64_t>::max()};
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v : values) replay::put_varint(buf, v);
  Cursor c(buf);
  for (std::uint64_t v : values) EXPECT_EQ(c.varint(), v);
  EXPECT_TRUE(c.done());
}

TEST(ReplayCodec, ZigzagRoundTripIncludingNegatives) {
  const std::int64_t values[] = {0, -1, 1, -2, 63, -64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  std::vector<std::uint8_t> buf;
  for (std::int64_t v : values) replay::put_zigzag(buf, v);
  Cursor c(buf);
  for (std::int64_t v : values) EXPECT_EQ(c.zigzag(), v);
  EXPECT_TRUE(c.done());
}

TEST(ReplayCodec, DoubleRoundTripIsBitExact) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e300, -2.5e-308,
                           239.31498, std::numeric_limits<double>::infinity()};
  std::vector<std::uint8_t> buf;
  for (double v : values) replay::put_double(buf, v);
  Cursor c(buf);
  for (double v : values) {
    const double got = c.f64();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0);
  }
}

TEST(ReplayCodec, StringRoundTripAndTruncation) {
  const std::string with_nul("git\0rev", 7);  // length-prefixed: NUL-safe
  std::vector<std::uint8_t> buf;
  replay::put_string(buf, with_nul);
  replay::put_string(buf, "");
  Cursor c(buf);
  EXPECT_EQ(c.str(), with_nul);
  EXPECT_EQ(c.str(), "");
  EXPECT_TRUE(c.done());

  // A declared length longer than the remaining bytes must throw, not read.
  std::vector<std::uint8_t> lying;
  replay::put_varint(lying, 100);
  lying.push_back('x');
  Cursor bad(lying);
  try {
    (void)bad.str();
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTruncated);
  }
}

TEST(ReplayCodec, VarintOverflowRejected) {
  // 10 continuation bytes followed by more: value would exceed 64 bits.
  std::vector<std::uint8_t> buf(11, 0xFF);
  Cursor c(buf);
  try {
    (void)c.varint();
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kVarintOverflow);
  }
}

// --- chunk framing ---------------------------------------------------------

std::vector<std::uint8_t> two_chunk_stream() {
  VectorSink sink;
  ChunkWriter writer(sink);
  writer.chunk(7, {1, 2, 3});
  writer.chunk(9, {});
  writer.end();
  return sink.take();
}

TEST(ReplayChunks, RoundTripPreservesTagsAndPayloads) {
  const auto bytes = two_chunk_stream();
  ChunkReader reader(bytes);
  EXPECT_EQ(reader.version(), replay::kFormatVersion);
  auto c1 = reader.next();
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->tag, 7u);
  EXPECT_EQ(c1->payload, (std::vector<std::uint8_t>{1, 2, 3}));
  auto c2 = reader.next();
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->tag, 9u);
  EXPECT_TRUE(c2->payload.empty());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());  // stays ended
}

TEST(ReplayChunks, EveryTruncationPointRejected) {
  const auto bytes = two_chunk_stream();
  // Cutting the stream at any length short of the full one must throw a
  // typed error — either immediately (header) or while iterating.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    bool threw = false;
    try {
      ChunkReader reader(prefix);
      while (reader.next().has_value()) {
      }
    } catch (const ReplayError& e) {
      threw = true;
      EXPECT_TRUE(e.kind() == ErrorKind::kTruncated ||
                  e.kind() == ErrorKind::kCrcMismatch)
          << "cut=" << cut << " kind=" << replay::to_string(e.kind());
    }
    EXPECT_TRUE(threw) << "truncation at " << cut << " went undetected";
  }
}

TEST(ReplayChunks, EverySingleByteCorruptionRejected) {
  const auto clean = two_chunk_stream();
  // Flip one bit in every byte position past the magic; the CRC framing (or
  // the header checks) must catch each one.  Magic-byte corruption is
  // kBadMagic; version-byte corruption is kVersionSkew.
  for (std::size_t pos = 0; pos < clean.size(); ++pos) {
    std::vector<std::uint8_t> bytes = clean;
    bytes[pos] ^= 0x01;
    bool threw = false;
    try {
      ChunkReader reader(bytes);
      while (reader.next().has_value()) {
      }
    } catch (const ReplayError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "corruption at byte " << pos << " went undetected";
  }
}

TEST(ReplayChunks, VersionSkewFailsLoudlyWithTypedError) {
  // Hand-craft a stream whose header claims format version 2: a future (or
  // stale) trace must be rejected before any chunk is trusted.
  std::vector<std::uint8_t> bytes(replay::kMagic, replay::kMagic + 4);
  replay::put_varint(bytes, replay::kFormatVersion + 1);
  try {
    ChunkReader reader(bytes);
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kVersionSkew);
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos);
  }
}

TEST(ReplayChunks, BadMagicRejected) {
  std::vector<std::uint8_t> bytes = {'N', 'O', 'P', 'E', 1};
  try {
    ChunkReader reader(bytes);
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBadMagic);
  }
}

// --- randomized event-stream round trips -----------------------------------

server::SessionEvent random_event(Rng& rng, std::uint64_t id) {
  server::SessionEvent ev;
  ev.id = id;
  ev.shard = static_cast<std::uint32_t>(rng.below(16));
  ev.wire_bytes = rng.below(1 << 20);
  ev.records = rng.below(256);
  ev.retries = static_cast<std::uint32_t>(rng.below(8));
  ev.repairs = static_cast<std::uint32_t>(rng.below(4));
  ev.faults = static_cast<std::uint32_t>(rng.below(8));
  ev.completed = rng.below(8) != 0;
  return ev;
}

/// A one-phase program of `sessions` arrivals (every other field at its
/// default): the smallest scenario decode_run_record accepts.
server::TrafficScenario program(std::size_t sessions) {
  server::TrafficScenario sc;
  sc.phases.resize(1);
  sc.phases[0].sessions = sessions;
  return sc;
}

// Round-trips randomized event streams through the full RunRecord codec:
// encode -> decode must be the identity on every field, for many seeds.
TEST(ReplayRunRecord, RandomizedEventStreamsRoundTrip) {
  for (std::uint64_t seed : {1ULL, 42ULL, 12345ULL}) {
    Rng rng(seed);
    server::RunRecord rec;
    rec.git_rev = "testrev";
    rec.recorded_threads = 3;
    rec.scenario = program(500);
    rec.scenario.seed = seed;
    rec.config.shards = 16;
    rec.report.shards.resize(16);
    std::uint64_t id = 0;
    for (int i = 0; i < 500; ++i) {
      id += 1 + rng.below(3);  // gaps model dropped arrivals
      const auto ev = random_event(rng, id);
      rec.report.events.push_back(ev);
      auto& sh = rec.report.shards[ev.shard];
      sh.events_digest = (sh.events_digest ^ ev.digest()) * 1099511628211ULL + 1;
    }
    rec.report.admitted = rec.report.events.size();
    rec.report.latency = {1.5e6, 3.0e6, 4.5e6, 6.0e6};
    rec.report.throughput_per_gcycle = 239.31498;

    const auto bytes = server::encode_run_record(rec);
    const server::RunRecord back = server::decode_run_record(bytes);
    EXPECT_EQ(back.git_rev, "testrev");
    EXPECT_EQ(back.recorded_threads, 3u);
    EXPECT_EQ(back.scenario.seed, seed);
    EXPECT_EQ(back.scenario.total_sessions(), 500u);
    EXPECT_EQ(back.config.shards, 16u);
    ASSERT_EQ(back.report.events.size(), rec.report.events.size());
    for (std::size_t i = 0; i < rec.report.events.size(); ++i) {
      EXPECT_EQ(back.report.events[i], rec.report.events[i]) << "event " << i;
    }
    for (std::size_t s = 0; s < 16; ++s) {
      EXPECT_EQ(back.report.shards[s].events_digest,
                rec.report.shards[s].events_digest);
    }
    EXPECT_EQ(back.report.latency.p99, 4.5e6);
    EXPECT_EQ(back.report.throughput_per_gcycle, 239.31498);
  }
}

TEST(ReplayRunRecord, EncodingIsDeterministic) {
  server::RunRecord rec;
  rec.git_rev = "r";
  rec.scenario = program(8);
  rec.config.shards = 2;
  rec.report.shards.resize(2);
  EXPECT_EQ(server::encode_run_record(rec), server::encode_run_record(rec));
}

TEST(ReplayRunRecord, MissingChunkIsMalformed) {
  // A structurally valid stream (header + end chunk only) is not a run
  // record; it must fail with kMalformed, not decode to an empty record.
  VectorSink sink;
  ChunkWriter writer(sink);
  writer.end();
  try {
    (void)server::decode_run_record(sink.bytes());
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformed);
  }
}

TEST(ReplayRunRecord, UnknownChunkTagsAreSkipped) {
  server::RunRecord rec;
  rec.git_rev = "r";
  rec.scenario = program(4);
  rec.config.shards = 1;
  rec.report.shards.resize(1);
  auto bytes = server::encode_run_record(rec);
  // Splice an unknown (future) chunk after the header: the decoder must
  // skip it and still find every required chunk.
  VectorSink sink;
  ChunkWriter writer(sink);
  writer.chunk(99, {0xAA, 0xBB});
  const auto& extra = sink.bytes();
  const std::size_t header = 5;  // magic + version varint
  std::vector<std::uint8_t> spliced;
  const auto append = [&spliced](const std::vector<std::uint8_t>& src,
                                 std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) spliced.push_back(src[i]);
  };
  append(bytes, 0, header);
  append(extra, header, extra.size());
  append(bytes, header, bytes.size());
  const server::RunRecord back = server::decode_run_record(spliced);
  EXPECT_EQ(back.scenario.total_sessions(), 4u);
}

/// A hand-encoded kScenario payload in the v1 flat layout: seed, sessions,
/// model, load, users, think, cipher grid, delta-coded size grid,
/// record_bytes, then (tail >= 1) the resume flag and (tail >= 2) a zero
/// phase count.  Pre-phase binaries wrote tail 1, the first ones tail 0.
std::vector<std::uint8_t> flat_v1(std::uint64_t users, int tail) {
  std::vector<std::uint8_t> p;
  replay::put_varint(p, 31);    // seed
  replay::put_varint(p, 6);     // sessions
  replay::put_varint(p, 1);     // closed loop
  replay::put_double(p, 0.75);  // offered_load
  replay::put_varint(p, users);
  replay::put_double(p, 1e4);   // think_cycles
  replay::put_varint(p, 2);     // ciphers: rc4, aes128
  replay::put_varint(p, 2);
  replay::put_varint(p, 1);
  replay::put_varint(p, 2);     // sizes: 512, 2048 (delta-coded)
  replay::put_zigzag(p, 512);
  replay::put_zigzag(p, 1536);
  replay::put_varint(p, 256);   // record_bytes
  if (tail >= 1) replay::put_varint(p, 1);  // resume_sessions
  if (tail >= 2) replay::put_varint(p, 0);  // zero phases
  return p;
}

/// `record` re-encoded with its kScenario chunk payload replaced.
std::vector<std::uint8_t> with_scenario(
    const std::vector<std::uint8_t>& record,
    const std::vector<std::uint8_t>& payload) {
  VectorSink sink;
  ChunkWriter writer(sink);
  ChunkReader reader(record);
  while (const auto chunk = reader.next()) {
    const bool scenario = chunk->tag == static_cast<std::uint64_t>(
                                            server::RecordChunk::kScenario);
    writer.chunk(chunk->tag, scenario ? payload : chunk->payload);
  }
  writer.end();
  return sink.take();
}

// Legacy traces store a flat scenario: the v1 kScenario header fields and
// no phases (pre-phase binaries stop after the resume flag, or even before
// it; later ones append a zero phase count).  Decoding lowers that to one
// phase "phase0" with unit-weight mixes and a 0/1 resume fraction, and such
// records carry no kScenarioSource chunk (version-skew, old-writer
// direction).
TEST(ReplayRunRecord, LegacyRecordDecodesAsFlatScenarioWithoutSource) {
  server::RunRecord rec;
  rec.git_rev = "legacy";
  rec.scenario = program(1);
  rec.config.shards = 2;
  rec.report.shards.resize(2);
  const auto modern = server::encode_run_record(rec);

  for (const int tail : {0, 1, 2}) {
    SCOPED_TRACE(tail);
    const server::RunRecord back =
        server::decode_run_record(with_scenario(modern, flat_v1(3, tail)));
    EXPECT_TRUE(back.scenario_source.empty());
    EXPECT_EQ(back.scenario.seed, 31u);
    EXPECT_EQ(back.scenario.record_bytes, 256u);
    ASSERT_EQ(back.scenario.phases.size(), 1u);
    const server::TrafficPhase& ph = back.scenario.phases[0];
    EXPECT_EQ(ph.name, "phase0");
    EXPECT_EQ(ph.sessions, 6u);
    EXPECT_EQ(ph.model, server::ArrivalModel::kClosedLoop);
    EXPECT_EQ(ph.offered_load, 0.75);
    EXPECT_EQ(ph.users, 3u);
    EXPECT_EQ(ph.think_cycles, 1e4);
    EXPECT_EQ(ph.resume_fraction, tail >= 1 ? 1.0 : 0.0);
    ASSERT_EQ(ph.cipher_mix.size(), 2u);
    EXPECT_EQ(ph.cipher_mix[0].cipher, ssl::Cipher::kRc4);
    EXPECT_EQ(ph.cipher_mix[1].cipher, ssl::Cipher::kAes128Cbc);
    ASSERT_EQ(ph.size_mix.size(), 2u);
    EXPECT_EQ(ph.size_mix[0].bytes, 512u);
    EXPECT_EQ(ph.size_mix[1].bytes, 2048u);
    for (const auto& m : ph.cipher_mix) EXPECT_EQ(m.weight, 1u);
    for (const auto& m : ph.size_mix) EXPECT_EQ(m.weight, 1u);
    EXPECT_FALSE(ph.faults.has_value());
  }
}

// 32-bit fields arrive as 64-bit varints: a value that does not fit is
// malformed input, never silently truncated (users 2^32 would become a
// zero-user closed loop).
TEST(ReplayRunRecord, OversizedUsersAndMixWeightsAreMalformed) {
  server::RunRecord rec;
  rec.git_rev = "wide";
  rec.scenario = program(1);
  rec.config.shards = 1;
  rec.report.shards.resize(1);
  const auto modern = server::encode_run_record(rec);
  const std::uint64_t wide = std::uint64_t{1} << 32;

  // One phase after a placeholder flat header; `users` and the cipher mix
  // weight are parameters.
  auto program_v1 = [](std::uint64_t users, std::uint64_t weight) {
    std::vector<std::uint8_t> p;
    replay::put_varint(p, 5);       // seed
    replay::put_varint(p, 0);       // sessions
    replay::put_varint(p, 0);       // model
    replay::put_double(p, 0.0);     // offered_load
    replay::put_varint(p, 0);       // users
    replay::put_double(p, 0.0);     // think_cycles
    replay::put_varint(p, 0);       // cipher grid
    replay::put_varint(p, 0);       // size grid
    replay::put_varint(p, 512);     // record_bytes
    replay::put_varint(p, 0);       // resume flag
    replay::put_varint(p, 1);       // one phase
    replay::put_string(p, "p");
    replay::put_varint(p, 4);       // sessions
    replay::put_varint(p, 1);       // closed loop
    replay::put_double(p, 0.6);
    replay::put_varint(p, users);
    replay::put_double(p, 0.0);     // think
    replay::put_double(p, 0.0);     // resume_fraction
    replay::put_varint(p, 1);       // cipher mix: rc4
    replay::put_varint(p, 2);
    replay::put_varint(p, weight);
    replay::put_varint(p, 1);       // size mix: 512
    replay::put_varint(p, 512);
    replay::put_varint(p, 1);
    replay::put_varint(p, 0);       // no fault overlay
    return p;
  };
  EXPECT_EQ(server::decode_run_record(with_scenario(modern, program_v1(2, 3)))
                .scenario.phases[0]
                .users,
            2u);
  for (const auto& payload :
       {flat_v1(wide, 1), program_v1(wide, 1), program_v1(2, wide)}) {
    try {
      (void)server::decode_run_record(with_scenario(modern, payload));
      ADD_FAILURE() << "oversized varint accepted";
    } catch (const ReplayError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kMalformed);
    }
  }
}

// New-writer direction: phased programs and the embedded .wsp source ride
// in the stream and round-trip field-for-field.
TEST(ReplayRunRecord, PhasedRecordRoundTripsPhasesAndSource) {
  server::RunRecord rec;
  rec.git_rev = "phased";
  rec.scenario.seed = 99;
  server::TrafficPhase ph;
  ph.name = "spike";
  ph.sessions = 12;
  ph.model = server::ArrivalModel::kClosedLoop;
  ph.offered_load = 2.5;
  ph.users = 3;
  ph.think_cycles = 1e4;
  ph.resume_fraction = 0.25;
  ph.cipher_mix = {{ssl::Cipher::kAes128Cbc, 2}, {ssl::Cipher::kTripleDesCbc, 1}};
  ph.size_mix = {{1024, 3}, {4096, 1}};
  server::FaultConfig faults;
  faults.wire_flip_rate = 0.125;
  faults.record_retry_budget = 3;
  ph.faults = faults;
  rec.scenario.phases = {ph};
  rec.scenario_source = "scenario { phase \"spike\" { sessions 12 } }\n";
  rec.config.shards = 1;
  rec.report.shards.resize(1);

  const auto bytes = server::encode_run_record(rec);
  const server::RunRecord back = server::decode_run_record(bytes);
  EXPECT_EQ(back.scenario_source, rec.scenario_source);
  ASSERT_EQ(back.scenario.phases.size(), 1u);
  const server::TrafficPhase& b = back.scenario.phases[0];
  EXPECT_EQ(b.name, "spike");
  EXPECT_EQ(b.sessions, 12u);
  EXPECT_EQ(b.model, server::ArrivalModel::kClosedLoop);
  EXPECT_EQ(b.offered_load, 2.5);
  EXPECT_EQ(b.users, 3u);
  EXPECT_EQ(b.think_cycles, 1e4);
  EXPECT_EQ(b.resume_fraction, 0.25);
  ASSERT_EQ(b.cipher_mix.size(), 2u);
  EXPECT_EQ(b.cipher_mix[0].cipher, ssl::Cipher::kAes128Cbc);
  EXPECT_EQ(b.cipher_mix[0].weight, 2u);
  EXPECT_EQ(b.cipher_mix[1].cipher, ssl::Cipher::kTripleDesCbc);
  ASSERT_EQ(b.size_mix.size(), 2u);
  EXPECT_EQ(b.size_mix[0].bytes, 1024u);
  EXPECT_EQ(b.size_mix[0].weight, 3u);
  ASSERT_TRUE(b.faults.has_value());
  EXPECT_EQ(b.faults->wire_flip_rate, 0.125);
  EXPECT_EQ(b.faults->record_retry_budget, 3u);
}

// A phase entry naming a cipher id this binary does not know is hostile or
// future data, not something to guess at: kMalformed.
TEST(ReplayRunRecord, PhaseWithUnknownCipherIdIsMalformed) {
  server::RunRecord rec;
  rec.git_rev = "r";
  server::TrafficPhase ph;
  ph.name = "p";
  ph.sessions = 1;
  ph.cipher_mix = {{ssl::Cipher::kRc4, 1}};
  ph.size_mix = {{256, 1}};
  rec.scenario.phases = {ph};
  rec.config.shards = 1;
  rec.report.shards.resize(1);
  auto bytes = server::encode_run_record(rec);
  // Corrupt the encoded cipher id byte: flip the byte that encodes kRc4's
  // wire id inside the phase mix.  Rather than chase the offset, decode on
  // every single-byte 0x7F overwrite and require either a successful decode
  // or a typed ReplayError -- never a crash or a silent bad value.
  std::size_t typed_rejections = 0;
  for (std::size_t i = 5; i < bytes.size(); ++i) {
    auto corrupted = bytes;
    corrupted[i] = 0x7F;
    try {
      (void)server::decode_run_record(corrupted);
    } catch (const ReplayError&) {
      ++typed_rejections;
    }
  }
  EXPECT_GT(typed_rejections, 0u);
}

TEST(ReplayRunRecord, FileRoundTrip) {
  server::RunRecord rec;
  rec.git_rev = "filetest";
  rec.scenario = program(4);
  rec.config.shards = 2;
  rec.report.shards.resize(2);
  const std::string path = ::testing::TempDir() + "/roundtrip.wspr";
  ASSERT_TRUE(server::write_run_record_file(rec, path));
  const server::RunRecord back = server::read_run_record_file(path);
  EXPECT_EQ(back.git_rev, "filetest");
  std::remove(path.c_str());

  EXPECT_FALSE(server::write_run_record_file(rec, "/nonexistent-dir-xyz/x"));
  try {
    (void)server::read_run_record_file("/nonexistent-dir-xyz/x");
    FAIL() << "expected ReplayError";
  } catch (const ReplayError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTruncated);
  }
}

TEST(ReplayCrc32Filter, MatchesOneShotCrc) {
  VectorSink sink;
  replay::Crc32Filter filter(sink);
  const std::uint8_t part1[] = {1, 2, 3};
  const std::uint8_t part2[] = {4, 5};
  filter.write(part1, sizeof part1);
  filter.write(part2, sizeof part2);
  const std::uint8_t whole[] = {1, 2, 3, 4, 5};
  EXPECT_EQ(filter.crc(), crc32(whole, sizeof whole));
  EXPECT_EQ(sink.bytes().size(), 5u);  // pass-through, unchanged
}

}  // namespace
}  // namespace wsp

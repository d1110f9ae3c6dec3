// Randomized cross-checks beyond the structured sweeps: random
// configurations, operand sizes and values, always compared against the
// Mpz reference or the host crypto library.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/des.h"
#include "crypto/rc4.h"
#include "crypto/rsa.h"
#include "kernels/des_kernel.h"
#include "kernels/modexp_kernel.h"
#include "mp/modexp.h"
#include "mp/prime.h"
#include "mpz_ref.h"
#include "scenario/compile.h"
#include "server/checkpoint.h"
#include "server/engine.h"
#include "server/record.h"
#include "ssl/wep.h"
#include "support/random.h"
#include "support/replay.h"

namespace wsp {
namespace {

ModexpConfig random_config(Rng& rng) {
  const auto configs = all_modexp_configs();
  return configs[rng.below(configs.size())];
}

TEST(Fuzz, RandomConfigsRandomOperands) {
  Rng rng(701);
  for (int iter = 0; iter < 60; ++iter) {
    const ModexpConfig cfg = random_config(rng);
    // Random odd modulus (Montgomery-compatible) of 33..160 bits.
    const std::size_t bits = 33 + rng.below(128);
    Mpz mod = random_bits(bits, rng);
    if (mod.is_even()) mod = mod + Mpz(1);
    const Mpz base = random_below(mod, rng);
    const Mpz exp = random_bits(1 + rng.below(96), rng);
    ModexpEngine engine(cfg);
    EXPECT_EQ(engine.powm(base, exp, mod), mpz_ref::powm(base, exp, mod))
        << cfg.name() << " bits=" << bits << " iter=" << iter;
  }
}

TEST(Fuzz, EngineReuseAcrossDifferentModuli) {
  // One engine, many moduli: caches keyed per modulus must not leak.
  Rng rng(702);
  ModexpConfig cfg;
  cfg.caching = Caching::kFull;
  ModexpEngine engine(cfg);
  for (int iter = 0; iter < 20; ++iter) {
    Mpz mod = random_bits(64 + rng.below(64), rng);
    if (mod.is_even()) mod = mod + Mpz(1);
    const Mpz base = random_below(mod, rng);
    const Mpz exp = random_bits(48, rng);
    EXPECT_EQ(engine.powm(base, exp, mod), mpz_ref::powm(base, exp, mod)) << iter;
    // Repeat with the cache warm.
    EXPECT_EQ(engine.powm(base, exp, mod), mpz_ref::powm(base, exp, mod)) << iter;
  }
}

TEST(Fuzz, IssMontAgainstReferenceRandomSizes) {
  kernels::Machine m = kernels::make_modexp_machine(kernels::MpnTieConfig{8, 8});
  kernels::IssModexp mx(m);
  Rng rng(703);
  for (int iter = 0; iter < 12; ++iter) {
    const std::size_t bits = 64 + 32 * rng.below(6);  // 64..224
    Mpz mod = random_bits(bits, rng);
    if (mod.is_even()) mod = mod + Mpz(1);
    const Mpz base = random_below(mod, rng);
    const Mpz exp = random_bits(40, rng);
    const unsigned w = 1 + static_cast<unsigned>(rng.below(5));
    EXPECT_EQ(mx.powm_mont(base, exp, mod, w).result, mpz_ref::powm(base, exp, mod))
        << "bits=" << bits << " w=" << w;
  }
}

TEST(Fuzz, DesKernelRandomKeysTieVsBaseVsHost) {
  kernels::Machine bm = kernels::make_des_machine(false);
  kernels::Machine tm = kernels::make_des_machine(true);
  kernels::DesKernel bk(bm, false), tk(tm, true);
  Rng rng(704);
  for (int iter = 0; iter < 30; ++iter) {
    const std::uint64_t key = rng.next_u64();
    const std::uint64_t block = rng.next_u64();
    bk.set_key(key);
    tk.set_key(key);
    const std::uint64_t expect = des::encrypt_block(block, des::key_schedule(key));
    EXPECT_EQ(bk.encrypt_block(block), expect) << iter;
    EXPECT_EQ(tk.encrypt_block(block), expect) << iter;
  }
}

TEST(Fuzz, AesHostEncryptDecryptAllKeySizes) {
  Rng rng(705);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t klen = 8 * (2 + rng.below(3));  // 16/24/32
    const auto ks = aes::key_schedule(rng.bytes(klen));
    const auto block = rng.bytes(16);
    std::uint8_t ct[16], back[16];
    aes::encrypt_block(block.data(), ct, ks);
    aes::decrypt_block(ct, back, ks);
    EXPECT_EQ(std::vector<std::uint8_t>(back, back + 16), block) << iter;
  }
}

// --- round-trip laws: decrypt(encrypt(x)) == x -----------------------------

TEST(Fuzz, AesEcbCbcRoundTrip) {
  Rng rng(707);
  for (int iter = 0; iter < 15; ++iter) {
    const std::size_t klen = 8 * (2 + rng.below(3));  // 16/24/32
    const auto ks = aes::key_schedule(rng.bytes(klen));
    const auto data = rng.bytes(16 * (1 + rng.below(8)));
    EXPECT_EQ(aes::decrypt_ecb(aes::encrypt_ecb(data, ks), ks), data) << iter;
    std::array<std::uint8_t, 16> iv{};
    const auto ivb = rng.bytes(16);
    std::copy(ivb.begin(), ivb.end(), iv.begin());
    auto buf = data;
    auto chain = iv;
    aes::encrypt_cbc(buf.data(), buf.data(), buf.size(), ks, chain);
    chain = iv;
    aes::decrypt_cbc(buf.data(), buf.data(), buf.size(), ks, chain);
    EXPECT_EQ(buf, data) << iter;
  }
}

TEST(Fuzz, DesEcbCbcAndTripleDesRoundTrip) {
  Rng rng(708);
  for (int iter = 0; iter < 15; ++iter) {
    const auto ks = des::key_schedule(rng.next_u64());
    const auto data = rng.bytes(8 * (1 + rng.below(10)));
    EXPECT_EQ(des::decrypt_ecb(des::encrypt_ecb(data, ks), ks), data) << iter;
    const std::uint64_t iv = rng.next_u64();
    EXPECT_EQ(des::decrypt_cbc(des::encrypt_cbc(data, ks, iv), ks, iv), data)
        << iter;
    const auto ks3 = des::triple_key_schedule(rng.next_u64(), rng.next_u64(),
                                              rng.next_u64());
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des::decrypt_block_3des(des::encrypt_block_3des(block, ks3), ks3),
              block)
        << iter;
  }
}

TEST(Fuzz, Rc4KeystreamIsSelfInverse) {
  Rng rng(709);
  for (int iter = 0; iter < 15; ++iter) {
    const auto key = rng.bytes(1 + rng.below(32));
    const auto data = rng.bytes(1 + rng.below(512));
    Rc4 enc(key), dec(key);
    EXPECT_EQ(dec.process(enc.process(data)), data) << iter;
  }
}

TEST(Fuzz, WepSealOpenRoundTripAndCorruptionDetection) {
  Rng rng(710);
  for (int iter = 0; iter < 10; ++iter) {
    const auto key = rng.bytes(iter % 2 == 0 ? 5 : 13);  // 40- / 104-bit WEP
    const auto payload = rng.bytes(1 + rng.below(256));
    wep::Frame frame = wep::seal(payload, key, rng);
    EXPECT_EQ(wep::open(frame, key), payload) << iter;
    // Any single flipped ciphertext bit must break the ICV.
    wep::Frame bad = frame;
    bad.ciphertext[rng.below(bad.ciphertext.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    EXPECT_THROW(wep::open(bad, key), std::runtime_error) << iter;
  }
}

// --- modular-exponentiation edge cases across the algorithm axes -----------

TEST(Fuzz, ModexpTrivialExponentsAllMulAlgos) {
  // exp = 0 and exp = 1 short-circuit differently in the windowed ladder;
  // every (algorithm, window) pair must still agree with the reference.
  Rng rng(711);
  const MulAlgo algos[] = {MulAlgo::kBasecaseDiv, MulAlgo::kKaratsubaDiv,
                           MulAlgo::kBarrett, MulAlgo::kMontSOS,
                           MulAlgo::kMontCIOS};
  for (const MulAlgo algo : algos) {
    for (unsigned w = 1; w <= 5; ++w) {
      ModexpConfig cfg;
      cfg.mul = algo;
      cfg.window_bits = w;
      ModexpEngine engine(cfg);
      Mpz mod = random_bits(96, rng);
      if (mod.is_even()) mod = mod + Mpz(1);  // odd: valid for all algos
      const Mpz base = random_below(mod, rng);
      EXPECT_EQ(engine.powm(base, Mpz(0), mod), mpz_ref::powm(base, Mpz(0), mod))
          << cfg.name();
      EXPECT_EQ(engine.powm(base, Mpz(1), mod), mpz_ref::powm(base, Mpz(1), mod))
          << cfg.name();
      EXPECT_EQ(engine.powm(Mpz(0), Mpz(5), mod), mpz_ref::powm(Mpz(0), Mpz(5), mod))
          << cfg.name();
      EXPECT_EQ(engine.powm(Mpz(1), base, mod), mpz_ref::powm(Mpz(1), base, mod))
          << cfg.name();
    }
  }
}

TEST(Fuzz, ModexpEvenExponentsAgreeAcrossAlgos) {
  // Even exponents exercise the square-only path of the ladder (no final
  // multiply for trailing zero bits); all algorithms must agree with the
  // reference and with each other.
  Rng rng(712);
  const MulAlgo algos[] = {MulAlgo::kBasecaseDiv, MulAlgo::kKaratsubaDiv,
                           MulAlgo::kBarrett, MulAlgo::kMontSOS,
                           MulAlgo::kMontCIOS};
  for (int iter = 0; iter < 8; ++iter) {
    Mpz mod = random_bits(80 + 16 * rng.below(4), rng);
    if (mod.is_even()) mod = mod + Mpz(1);
    const Mpz base = random_below(mod, rng);
    Mpz exp = random_bits(40, rng);
    if (exp.is_odd()) exp = exp + Mpz(1);  // force even
    const Mpz want = mpz_ref::powm(base, exp, mod);
    for (const MulAlgo algo : algos) {
      ModexpConfig cfg;
      cfg.mul = algo;
      cfg.window_bits = 1 + static_cast<unsigned>(rng.below(5));
      ModexpEngine engine(cfg);
      EXPECT_EQ(engine.powm(base, exp, mod), want)
          << cfg.name() << " iter=" << iter;
    }
  }
}

TEST(Fuzz, ModexpCrtTrivialAndEvenExponents) {
  // The CRT paths read dp/dq from the CrtKey, so each exponent needs its own
  // derived key; exp = 0 / 1 / even must match the direct computation mod n.
  Rng rng(713);
  const auto key = rsa::generate_key(128, rng);
  const Mpz c = random_below(key.n, rng);
  for (const std::int64_t d : {0, 1, 6, 20}) {
    const CrtKey dk = CrtKey::derive(key.crt.p, key.crt.q, Mpz(d));
    const Mpz want = mpz_ref::powm(c, Mpz(d), key.n);
    for (const CrtMode crt :
         {CrtMode::kNone, CrtMode::kTextbook, CrtMode::kGarner}) {
      ModexpConfig cfg;
      cfg.crt = crt;
      ModexpEngine engine(cfg);
      EXPECT_EQ(engine.powm_crt(c, Mpz(d), dk), want)
          << cfg.name() << " d=" << d;
    }
  }
}

TEST(Fuzz, CrtKeyDerivationConsistency) {
  Rng rng(706);
  for (int iter = 0; iter < 5; ++iter) {
    const auto key = rsa::generate_key(128 + 64 * rng.below(3), rng);
    // Garner and textbook recombination must agree for random inputs.
    ModexpConfig garner, textbook;
    garner.crt = CrtMode::kGarner;
    textbook.crt = CrtMode::kTextbook;
    ModexpEngine eg(garner), et(textbook);
    const Mpz c = random_below(key.n, rng);
    EXPECT_EQ(eg.powm_crt(c, key.d, key.crt), et.powm_crt(c, key.d, key.crt))
        << iter;
  }
}

// The .wsp compiler must never crash or leak a non-ScenarioError exception:
// any byte string either compiles or produces a typed diagnostic
// (docs/scenarios.md §4).  Returns true when the input compiled cleanly.
bool compile_survives(const std::string& src) {
  try {
    (void)scenario::compile(src, "<fuzz>");
    return true;
  } catch (const scenario::ScenarioError& err) {
    // Diagnostics must stay renderable and carry a stable code.
    EXPECT_FALSE(err.diagnostic().render("<fuzz>").empty());
    EXPECT_NE(static_cast<int>(err.code()), 0);
    return false;
  }
  // Anything else (std::bad_alloc, std::out_of_range from a container,
  // SIGSEGV, ...) propagates and fails the test outright.
}

TEST(Fuzz, ScenarioCompilerRandomBytes) {
  Rng rng(901);
  const char alphabet[] =
      "scenario phase defaults mix sizes faults {}\":,.0123456789\n\t\\\"#eE+-";
  for (int iter = 0; iter < 400; ++iter) {
    std::string src;
    const std::size_t len = rng.below(160);
    for (std::size_t i = 0; i < len; ++i) {
      // Mostly grammar-adjacent bytes, occasionally raw binary.
      if (rng.below(8) == 0) {
        src.push_back(static_cast<char>(rng.below(256)));
      } else {
        src.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
      }
    }
    compile_survives(src);
  }
}

TEST(Fuzz, ScenarioCompilerMutatedValidSource) {
  const std::string valid =
      "scenario \"fuzz\" {\n"
      "  seed 7\n"
      "  defaults { arrivals open, mix { aes128: 2, rc4: 1 } }\n"
      "  phase \"a\" { sessions 8, load 0.5, sizes { 1024: 1 } }\n"
      "  phase \"b\" { sessions 4, resume 0.5, sizes { 2048: 1 },\n"
      "               faults { wire_flip_rate 0.1 } }\n"
      "}\n";
  ASSERT_TRUE(compile_survives(valid));
  Rng rng(902);
  // Truncations at every byte boundary...
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    compile_survives(valid.substr(0, cut));
  }
  // ...and random single/multi-byte mutations of the valid program.
  for (int iter = 0; iter < 300; ++iter) {
    std::string src = valid;
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.below(src.size());
      switch (rng.below(3)) {
        case 0: src[pos] = static_cast<char>(rng.below(256)); break;
        case 1: src.erase(pos, 1 + rng.below(5)); break;
        default: src.insert(pos, 1, static_cast<char>(rng.below(256))); break;
      }
      if (src.empty()) src = "{";
    }
    compile_survives(src);
  }
}

// --- crash-recovery trace fuzzing (docs/recovery.md) ------------------------
//
// The resume pipeline faces whatever a dying process left on disk.  The
// contract under fuzzing: scan_trace_for_resume / resume_run /
// decode_checkpoint either succeed or throw a typed replay::ReplayError —
// never any other exception, never a crash, never a silently-wrong resume
// (the per-shard digest chains make silent divergence a typed error too).

/// One small torn trace: a recorded run killed mid-stream, with its
/// checkpoint-chunk boundaries and the uninterrupted reference report.
/// The trace is the committed fixture tests/data/lanes8_parked.wspr,
/// recorded by an earlier build at lane width 8 (seed 903, 24 sessions,
/// 2 shards, checkpoints every makespan/5, killed at 0.7 makespan), so its
/// checkpoints carry parked entries — which current builds never write.
struct FuzzTrace {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets;
  server::RunReport reference;
};

const FuzzTrace& fuzz_trace() {
  static const FuzzTrace trace = [] {
    FuzzTrace t;
    t.bytes = replay::read_file(WSP_TEST_DATA_DIR "/lanes8_parked.wspr");
    // Checkpoint-chunk boundaries: walk the framing up to the tear.
    replay::ChunkReader reader(t.bytes);
    try {
      for (std::size_t at = reader.offset();; at = reader.offset()) {
        const auto chunk = reader.next();
        if (!chunk) break;
        const auto tag = static_cast<server::RecordChunk>(chunk->tag);
        if (tag == server::RecordChunk::kCheckpoint) t.offsets.push_back(at);
      }
    } catch (const replay::ReplayError&) {
      // The torn tail: the crash cut the stream before its end chunk.
    }
    const auto scan = server::scan_trace_for_resume(t.bytes);
    server::EngineConfig cfg = scan.record.config;
    cfg.record_events = true;
    t.reference = server::Engine(cfg).run(scan.record.scenario);
    return t;
  }();
  return trace;
}

/// Reads `bytes` through both entry points of the one trace reader.  The
/// strict decode_run_record must throw a typed ReplayError exactly when the
/// lenient scan does not call the trace complete (or throws itself); any
/// other escape fails the test outright.  Returns the scan, if it did not
/// throw.
std::optional<server::ResumeScan> scan_agreeing_with_decode(
    const std::vector<std::uint8_t>& bytes) {
  bool decoded = true;
  try {
    (void)server::decode_run_record(bytes);
  } catch (const replay::ReplayError&) {
    decoded = false;
  }
  try {
    server::ResumeScan scan = server::scan_trace_for_resume(bytes);
    EXPECT_EQ(decoded, scan.complete)
        << "the readers disagree on a " << bytes.size() << "-byte trace";
    return scan;
  } catch (const replay::ReplayError&) {
    EXPECT_FALSE(decoded) << "decoded a " << bytes.size()
                          << "-byte trace the scan rejects";
    return std::nullopt;
  }
}

/// Scans and resumes `bytes`, after checking that the two readers agree on
/// it.  Returns true when the resume ran and matched the reference; a typed
/// rejection is the acceptable outcome for damage.
bool scan_resume_survives(const std::vector<std::uint8_t>& bytes,
                          const server::RunReport& reference) {
  const auto scan = scan_agreeing_with_decode(bytes);
  if (!scan) return false;
  try {
    const auto result = server::resume_run(*scan);
    const auto mismatches =
        server::compare_reports(reference, result.report);
    EXPECT_TRUE(mismatches.empty())
        << "corrupt trace resumed to a DIFFERENT run: " << mismatches.front();
    return mismatches.empty();
  } catch (const replay::ReplayError&) {
    return false;  // typed rejection: the acceptable outcome for damage
  }
}

TEST(Fuzz, ReadersAgreeOnEveryPrefixOfACompleteTrace) {
  // Scan + decode only (no resume), so every prefix is cheap.  Only the
  // whole file is complete; there both readers return the same record.
  const auto bytes = replay::read_file(WSP_TEST_DATA_DIR "/flat_closed.wspr");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    const auto scan = scan_agreeing_with_decode(prefix);
    EXPECT_FALSE(scan && scan->complete) << "prefix of " << cut << " bytes";
  }
  const auto scan = scan_agreeing_with_decode(bytes);
  ASSERT_TRUE(scan && scan->complete);
  const server::RunRecord decoded = server::decode_run_record(bytes);
  EXPECT_EQ(server::encode_run_record(decoded),
            server::encode_run_record(scan->record));
  EXPECT_EQ(server::compare_reports(decoded.report, scan->record.report),
            std::vector<std::string>{});
}

TEST(Fuzz, ResumeTraceTruncatedAtEveryByte) {
  const FuzzTrace& t = fuzz_trace();
  ASSERT_FALSE(t.offsets.empty());
  std::size_t resumed = 0;
  for (std::size_t cut = 0; cut <= t.bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(t.bytes.begin(), t.bytes.begin() + cut);
    if (scan_resume_survives(prefix, t.reference)) ++resumed;
  }
  // Every cut at or past the input chunks scans and resumes (restarting
  // from scratch when no checkpoint survived) — in particular all of them
  // from the first checkpoint boundary on.
  EXPECT_GE(resumed, t.bytes.size() - t.offsets.front());
}

TEST(Fuzz, ResumeTraceRandomByteCorruption) {
  const FuzzTrace& t = fuzz_trace();
  Rng rng(904);
  for (int iter = 0; iter < 150; ++iter) {
    auto bytes = t.bytes;
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
      switch (rng.below(3)) {
        case 0:  // overwrite
          bytes[rng.below(bytes.size())] =
              static_cast<std::uint8_t>(rng.below(256));
          break;
        case 1:  // single bit flip
          bytes[rng.below(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
          break;
        default: {  // tear a run of bytes out of the middle
          const std::size_t pos = rng.below(bytes.size());
          const std::size_t len =
              std::min<std::size_t>(1 + rng.below(32), bytes.size() - pos);
          bytes.erase(bytes.begin() + pos, bytes.begin() + pos + len);
          break;
        }
      }
    }
    scan_resume_survives(bytes, t.reference);
  }
}

TEST(Fuzz, CheckpointPayloadMutationsAreTypedOrHarmless) {
  // Single-byte overwrites of a real checkpoint payload: decode + validate
  // either succeeds (the byte was immaterial or the mutation produced
  // another self-consistent checkpoint) or throws a typed ReplayError.
  const FuzzTrace& t = fuzz_trace();
  const auto scan = server::scan_trace_for_resume(t.bytes);
  ASSERT_FALSE(scan.checkpoints.empty());
  std::vector<std::uint8_t> payload;
  server::encode_checkpoint(payload, scan.checkpoints.back());
  Rng rng(905);
  std::size_t typed = 0;
  for (int iter = 0; iter < 300; ++iter) {
    auto bytes = payload;
    bytes[rng.below(bytes.size())] = static_cast<std::uint8_t>(rng.below(256));
    try {
      server::validate_checkpoint(server::decode_checkpoint(bytes));
    } catch (const replay::ReplayError&) {
      ++typed;
    }
  }
  EXPECT_GT(typed, 0u) << "no mutation was ever detected";
}

/// `record` re-encoded with its kScenario chunk payload replaced.
std::vector<std::uint8_t> with_scenario_payload(
    const std::vector<std::uint8_t>& record,
    const std::vector<std::uint8_t>& payload) {
  replay::VectorSink sink;
  replay::ChunkWriter writer(sink);
  replay::ChunkReader reader(record);
  while (const auto chunk = reader.next()) {
    const bool scenario = chunk->tag == static_cast<std::uint64_t>(
                                            server::RecordChunk::kScenario);
    writer.chunk(chunk->tag, scenario ? payload : chunk->payload);
  }
  writer.end();
  return sink.take();
}

TEST(Fuzz, ScenarioPayloadMutationsAreTypedOrHarmless) {
  // Single-byte mutations of a real kScenario payload inside an otherwise
  // valid, CRC-correct run record: decoding either yields a scenario the
  // engine's validator accepts or throws a typed ReplayError — never an
  // untyped exception out of decode, replay or resume.
  server::TrafficScenario one;
  one.seed = 906;
  one.record_bytes = 512;
  server::TrafficPhase ph;
  ph.name = "only";
  ph.sessions = 12;
  ph.model = server::ArrivalModel::kClosedLoop;
  ph.users = 3;
  ph.think_cycles = 1e4;
  ph.cipher_mix = {{ssl::Cipher::kRc4, 1}, {ssl::Cipher::kAes128Cbc, 2}};
  ph.size_mix = {{512, 1}, {2048, 1}};
  one.phases = {ph};
  const auto multi = scenario::compile(
      "scenario { seed 907 record_bytes 256\n"
      "  phase \"calm\" { sessions 8, load 0.5, sizes { 1024: 1 } }\n"
      "  phase \"mixed\" { sessions 8, load 2.0, resume 0.5,\n"
      "                    mix { 3des: 1, rc4: 3 },\n"
      "                    faults { wire_flip_rate 0.1,\n"
      "                             record_retry_budget 2 } }\n"
      "}\n");
  std::size_t typed = 0, harmless = 0;
  for (const auto& sc : {one, multi.scenario}) {
    server::RunRecord rec;
    rec.git_rev = "fuzz";
    rec.scenario = sc;
    rec.config.shards = 1;
    rec.report.shards.resize(1);
    const auto record = server::encode_run_record(rec);
    std::vector<std::uint8_t> payload;
    replay::ChunkReader reader(record);
    while (const auto chunk = reader.next()) {
      if (chunk->tag ==
          static_cast<std::uint64_t>(server::RecordChunk::kScenario)) {
        payload = chunk->payload;
      }
    }
    ASSERT_FALSE(payload.empty());
    // Every position, with edge values (zero, varint continuation, double
    // sign/exponent patterns) and every single-bit flip.
    for (std::size_t pos = 0; pos < payload.size(); ++pos) {
      std::vector<std::uint8_t> values = {0x00, 0x01, 0x7F, 0x80, 0xFF};
      for (int bit = 0; bit < 8; ++bit) {
        values.push_back(static_cast<std::uint8_t>(payload[pos] ^ (1u << bit)));
      }
      for (const std::uint8_t v : values) {
        auto bytes = payload;
        bytes[pos] = v;
        try {
          const auto back =
              server::decode_run_record(with_scenario_payload(record, bytes));
          EXPECT_NO_THROW(back.scenario.validate())
              << "byte " << pos << " = " << static_cast<int>(v);
          ++harmless;
        } catch (const replay::ReplayError&) {
          ++typed;
        }
      }
    }
  }
  EXPECT_GT(typed, 0u) << "no mutation was ever detected";
  EXPECT_GT(harmless, 0u) << "no mutation was ever immaterial";
}

TEST(Fuzz, StaleSlabHandlesInCheckpointsAreAlwaysTyped) {
  // Stale-generation handles (even gen: recycled before capture) must be a
  // typed kMalformed wherever they appear, for every parked entry.
  const FuzzTrace& t = fuzz_trace();
  const auto scan = server::scan_trace_for_resume(t.bytes);
  ASSERT_FALSE(scan.checkpoints.empty());
  bool saw_parked = false;
  for (const auto& cp : scan.checkpoints) {
    for (std::size_t i = 0; i < cp.entries.size(); ++i) {
      if (!cp.entries[i].parked) continue;
      saw_parked = true;
      auto bad = cp;
      bad.entries[i].parked_info.handle.gen &= ~1u;
      try {
        server::validate_checkpoint(bad);
        FAIL() << "stale handle in entry " << i << " accepted";
      } catch (const replay::ReplayError& e) {
        EXPECT_EQ(e.kind(), replay::ErrorKind::kMalformed);
      }
    }
  }
  EXPECT_TRUE(saw_parked) << "the fixture holds no parked entries";
}

TEST(Fuzz, MutatedCheckpointsStraightToEngineRun) {
  // The public restore entry point on its own: real checkpoints with their
  // entry ids, shards, parked flags and generator cursor mutated, handed
  // straight to Engine::run at 4 threads — no validate_checkpoint, no
  // resume_run.  Every run must return a report or throw; under ASan/UBSan
  // and TSan it must also never touch freed memory or race, which is the
  // data plane's drain-on-unwind guarantee at work.
  const FuzzTrace& t = fuzz_trace();
  const auto scan = server::scan_trace_for_resume(t.bytes);
  ASSERT_FALSE(scan.checkpoints.empty());
  server::EngineConfig cfg = scan.record.config;
  cfg.threads = 4;
  server::Engine engine(cfg);
  const unsigned shards = engine.config().shards;
  Rng rng(908);
  std::size_t returned = 0, thrown = 0;
  for (int iter = 0; iter < 120; ++iter) {
    server::EngineCheckpoint cp =
        scan.checkpoints[rng.below(scan.checkpoints.size())];
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) {
      server::TrafficGeneratorState& g = cp.generator;
      server::CheckpointEntry* entry =
          cp.entries.empty() ? nullptr
                             : &cp.entries[rng.below(cp.entries.size())];
      switch (rng.below(4)) {
        case 0:  // entry id: the cursor, a neighbour's, or anything nearby
          if (entry == nullptr) break;
          switch (rng.below(3)) {
            case 0: entry->event.id = g.next_id; break;
            case 1: entry->event.id = cp.entries.front().event.id; break;
            default: entry->event.id = rng.below(2 * g.next_id + 2); break;
          }
          if (rng.below(2) == 0) {
            entry->event.shard =
                static_cast<std::uint32_t>(entry->event.id % shards);
          }
          break;
        case 1:  // entry shard, in or out of range
          if (entry == nullptr) break;
          entry->event.shard =
              static_cast<std::uint32_t>(rng.below(shards + 2));
          break;
        case 2:  // parked flag, either way
          if (entry == nullptr) break;
          entry->parked = !entry->parked;
          break;
        default:  // generator cursor
          switch (rng.below(4)) {
            case 0: g.next_id += rng.below(2) == 0 ? 1 : -1; break;
            case 1: g.phase_done += rng.below(2) == 0 ? 1 : -1; break;
            case 2: g.phase_idx += 1; break;
            default: g.phase_entered = !g.phase_entered; break;
          }
          break;
      }
    }
    try {
      const server::RunReport rep = engine.run(scan.record.scenario, cp);
      EXPECT_EQ(rep.completed + rep.aborted, rep.admitted) << iter;
      ++returned;
    } catch (const std::exception&) {
      ++thrown;
    }
  }
  EXPECT_GT(returned, 0u) << "no mutation was ever harmless";
  EXPECT_GT(thrown, 0u) << "no mutation was ever rejected";
}

}  // namespace
}  // namespace wsp

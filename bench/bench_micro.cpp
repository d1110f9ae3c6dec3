// Host-library micro-benchmarks (google-benchmark): wall-clock sanity
// harness for the crypto substrate and the macro-model estimator.  These
// are host-speed numbers, orthogonal to the ISS cycle counts the
// paper-reproduction benches report.
#include <benchmark/benchmark.h>

#include "crypto/aes.h"
#include "crypto/des.h"
#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "crypto/rc4.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "explore/estimator.h"
#include "explore/space.h"
#include "macromodel/models.h"
#include "mp/barrett.h"
#include "mp/modexp.h"
#include "mp/montgomery.h"
#include "mp/mpn.h"
#include "ssl/ssl.h"
#include "support/random.h"

namespace {

using namespace wsp;

void BM_DesEcb(benchmark::State& state) {
  Rng rng(1);
  const auto ks = des::key_schedule(rng.next_u64());
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(des::encrypt_ecb(data, ks));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DesEcb)->Arg(1024);

void BM_TripleDesBlock(benchmark::State& state) {
  Rng rng(2);
  const auto ks = des::triple_key_schedule(rng.next_u64(), rng.next_u64(),
                                           rng.next_u64());
  std::uint64_t block = rng.next_u64();
  for (auto _ : state) {
    block = des::encrypt_block_3des(block, ks);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_TripleDesBlock);

// 3DES-EDE CBC over one buffer through the library routine the record
// layer and ESP call; the schedule is built once.  Arg 1 selects the
// direction (0 encrypt, 1 decrypt).
void BM_TripleDesCbc(benchmark::State& state) {
  Rng rng(9);
  const auto ks = des::triple_key_schedule(rng.next_u64(), rng.next_u64(),
                                           rng.next_u64());
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const bool decrypt = state.range(1) != 0;
  std::vector<std::uint8_t> out(data.size());
  for (auto _ : state) {
    std::uint64_t chain = 0;
    if (decrypt) {
      des::decrypt_cbc_3des(data.data(), out.data(), data.size(), ks, chain);
    } else {
      des::encrypt_cbc_3des(data.data(), out.data(), data.size(), ks, chain);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TripleDesCbc)
    ->ArgNames({"bytes", "decrypt"})
    ->Args({16384, 0})
    ->Args({16384, 1});

void BM_AesEcb(benchmark::State& state) {
  Rng rng(3);
  const auto ks = aes::key_schedule(rng.bytes(16));
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes::encrypt_ecb(data, ks));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesEcb)->Arg(1024);

// AES-128 CBC over one buffer through the library routine pair the record
// layer calls, with the schedule built once.
template <bool Decrypt>
void aes_cbc(benchmark::State& state, std::uint64_t seed) {
  Rng rng(seed);
  const auto ks = aes::key_schedule(rng.bytes(16));
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> out(data.size());
  for (auto _ : state) {
    std::array<std::uint8_t, 16> chain{};
    if (Decrypt) {
      aes::decrypt_cbc(data.data(), out.data(), data.size(), ks, chain);
    } else {
      aes::encrypt_cbc(data.data(), out.data(), data.size(), ks, chain);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
void BM_AesEncryptCbc(benchmark::State& state) { aes_cbc<false>(state, 11); }
void BM_AesDecryptCbc(benchmark::State& state) { aes_cbc<true>(state, 10); }
BENCHMARK(BM_AesEncryptCbc)->Arg(16384);
BENCHMARK(BM_AesDecryptCbc)->Arg(16384);

// The RC4 keystream over one buffer in place, the stream continuing
// across iterations as it does across a channel's records.
void BM_Rc4(benchmark::State& state) {
  Rng rng(14);
  Rc4 rc4(rng.bytes(16));
  auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rc4.process(data.data(), data.size());
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Rc4)->Arg(256)->Arg(4096);

// One RC4 key schedule from a 16-byte SSL record key.
void BM_Rc4KeySetup(benchmark::State& state) {
  Rng rng(15);
  const auto key = rng.bytes(16);
  for (auto _ : state) {
    Rc4 rc4(key);
    benchmark::DoNotOptimize(&rc4);
  }
}
BENCHMARK(BM_Rc4KeySetup);

// One RC4 record through the record layer: seal (MAC + keystream) then
// open (keystream + MAC check) on one channel, as Session::pump does.
void BM_Rc4Record(benchmark::State& state) {
  Rng rng(16);
  ssl::SecureChannel channel(ssl::Cipher::kRc4, rng.bytes(16), rng.bytes(20), {});
  const auto payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.open(channel.seal(payload)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Rc4Record)->Arg(256);

// Synthetic payload generation: eight bytes per draw.
void BM_RngFill(benchmark::State& state) {
  Rng rng(17);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.fill(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RngFill)->Arg(256);

void BM_Sha1(benchmark::State& state) {
  Rng rng(4);
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(4096);

void BM_HmacSha1(benchmark::State& state) {
  Rng rng(5);
  const auto key = rng.bytes(20);
  const auto data = rng.bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha1(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_HmacSha1);

void BM_Md5(benchmark::State& state) {
  Rng rng(11);
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5)->Arg(4096);

// The record layer's MAC: one key object reused for every record, each MAC
// over the 11-byte sequence/type/length header and the payload.
void BM_HmacSha1Record(benchmark::State& state) {
  Rng rng(12);
  const HmacSha1 key(rng.bytes(20));
  const auto header = rng.bytes(11);
  const auto payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Sha1 inner = key.start();
    inner.update(header);
    inner.update(payload);
    benchmark::DoNotOptimize(key.finish(inner));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha1Record)->Arg(256);

// SSLv3 key expansion of one RC4 key block (2 x (20-byte MAC key +
// 16-byte key) = 72 bytes) from a 48-byte master secret.
void BM_SslKdf(benchmark::State& state) {
  Rng rng(13);
  const auto master = rng.bytes(48);
  const auto r1 = rng.bytes(32);
  const auto r2 = rng.bytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssl::kdf_ssl3(master, r1, r2, 72));
  }
}
BENCHMARK(BM_SslKdf);

void BM_ModexpConfig(benchmark::State& state) {
  static const auto key = [] {
    Rng rng(6);
    return rsa::generate_key(512, rng);
  }();
  const auto configs = all_modexp_configs();
  ModexpConfig cfg;
  switch (state.range(0)) {
    case 0: cfg = {MulAlgo::kBasecaseDiv, 1, CrtMode::kNone, Radix::k32, Caching::kNone}; break;
    case 1: cfg = {MulAlgo::kBarrett, 4, CrtMode::kNone, Radix::k32, Caching::kContext}; break;
    case 2: cfg = {MulAlgo::kMontCIOS, 5, CrtMode::kGarner, Radix::k32, Caching::kFull}; break;
    default: cfg = ModexpConfig{}; break;
  }
  Rng rng(7);
  const Mpz c = Mpz::from_bytes_be(rng.bytes(60));
  ModexpEngine engine(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.powm_crt(c, key.d, key.crt));
  }
  state.SetLabel(cfg.name());
}
BENCHMARK(BM_ModexpConfig)->Arg(0)->Arg(1)->Arg(2);

void BM_RsaSignVerify(benchmark::State& state) {
  static const auto key = [] {
    Rng rng(8);
    return rsa::generate_key(512, rng);
  }();
  ModexpEngine engine{ModexpConfig{}};
  const std::vector<std::uint8_t> msg = {'b', 'e', 'n', 'c', 'h'};
  for (auto _ : state) {
    const auto sig = rsa::sign(msg, key, engine);
    benchmark::DoNotOptimize(rsa::verify(msg, sig, key.public_key(), engine));
  }
}
BENCHMARK(BM_RsaSignVerify);

// RSA key generation: prime candidates, trial division and Miller-Rabin on
// the Montgomery engine.  One fixed seed, so every iteration does the same
// work.
void BM_GenerateKey(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(42);
    benchmark::DoNotOptimize(rsa::generate_key(bits, rng));
  }
}
BENCHMARK(BM_GenerateKey)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

// Host mpn kernels (mp layer): addmul_1 at the operand sizes the 512-bit
// exploration workload uses, and the schoolbook product every division
// reduction, Barrett sweep and Karatsuba leaf calls.  Items are limbs.
template <typename L>
std::vector<L> random_limbs(Rng& rng, std::size_t n) {
  std::vector<L> v(n);
  for (auto& x : v) x = static_cast<L>(rng.next_u64());
  return v;
}

template <typename L>
void BM_Addmul1(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  const auto a = random_limbs<L>(rng, n);
  auto r = random_limbs<L>(rng, n);
  const L b = static_cast<L>(rng.next_u64() | 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpn::addmul_1(r.data(), a.data(), n, b));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK_TEMPLATE(BM_Addmul1, std::uint16_t)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK_TEMPLATE(BM_Addmul1, std::uint32_t)->Arg(8)->Arg(16)->Arg(32);

template <typename L>
void BM_MulBasecase(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const auto a = random_limbs<L>(rng, n);
  const auto b = random_limbs<L>(rng, n);
  std::vector<L> r(2 * n);
  for (auto _ : state) {
    mpn::mul_basecase(r.data(), a.data(), n, b.data(), n);
    benchmark::DoNotOptimize(r.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK_TEMPLATE(BM_MulBasecase, std::uint16_t)->Arg(16)->Arg(32);
BENCHMARK_TEMPLATE(BM_MulBasecase, std::uint32_t)->Arg(8)->Arg(16);

// Montgomery products (mp layer) at 8, 16 and 32 limbs, latency-chained (each
// result is the next left operand).  The second argument is the variant:
// 0 SOS, 1 CIOS (the two on the word path).  Items are limbs.
template <typename L>
void BM_MontMul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto variant = static_cast<MontVariant>(state.range(1));
  Rng rng(12);
  auto mod = random_limbs<L>(rng, n);
  mod[0] = static_cast<L>(mod[0] | 1);
  mod[n - 1] = static_cast<L>(mod[n - 1] | (L{1} << (mpn::LimbTraits<L>::bits - 1)));
  const Mont<L> ctx(mod);
  auto a = random_limbs<L>(rng, n);
  auto b = random_limbs<L>(rng, n);
  a[n - 1] = static_cast<L>(a[n - 1] >> 1);  // below the modulus
  b[n - 1] = static_cast<L>(b[n - 1] >> 1);
  std::vector<L> r(n);
  for (auto _ : state) {
    ctx.mul(r, a, b, variant);
    a.swap(r);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
  static constexpr const char* kNames[] = {"SOS", "CIOS"};
  state.SetLabel(kNames[state.range(1)]);
}
BENCHMARK_TEMPLATE(BM_MontMul, std::uint16_t)->ArgsProduct({{8, 16, 32}, {0, 1}});
BENCHMARK_TEMPLATE(BM_MontMul, std::uint32_t)->ArgsProduct({{8, 16, 32}, {0, 1}});

// Division and Barrett reduction (mp layer) at a 512-bit modulus: the
// 2k-by-k-limb divide every division-based modular multiply makes (k = 32
// limbs at radix 16, 16 at radix 32), and Barrett modular multiplies,
// latency-chained as in BM_MontMul.  Items are quotient limbs for the
// divide and modulus limbs for the multiply.
template <typename L>
std::vector<L> modulus_512(Rng& rng) {
  constexpr std::size_t k = 512 / mpn::LimbTraits<L>::bits;
  auto m = random_limbs<L>(rng, k);
  m[k - 1] = static_cast<L>(m[k - 1] | (L{1} << (mpn::LimbTraits<L>::bits - 1)));
  return m;
}

template <typename L>
void BM_Divrem(benchmark::State& state) {
  Rng rng(13);
  const auto d = modulus_512<L>(rng);
  const std::size_t k = d.size();
  const auto u = random_limbs<L>(rng, 2 * k);
  std::vector<L> q(k + 1), r(k);
  for (auto _ : state) {
    mpn::divrem(q.data(), r.data(), u.data(), 2 * k, d.data(), k);
    benchmark::DoNotOptimize(r.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * (k + 1)));
}
BENCHMARK_TEMPLATE(BM_Divrem, std::uint16_t);
BENCHMARK_TEMPLATE(BM_Divrem, std::uint32_t);

template <typename L>
void BM_BarrettMulmod(benchmark::State& state) {
  Rng rng(14);
  const auto m = modulus_512<L>(rng);
  const std::size_t k = m.size();
  const Barrett<L> ctx(m);
  auto a = random_limbs<L>(rng, k);
  auto b = random_limbs<L>(rng, k);
  a[k - 1] = static_cast<L>(a[k - 1] >> 1);  // below the modulus
  b[k - 1] = static_cast<L>(b[k - 1] >> 1);
  std::vector<L> r(k);
  for (auto _ : state) {
    ctx.mulmod(r, a, b);
    a.swap(r);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * k));
}
BENCHMARK_TEMPLATE(BM_BarrettMulmod, std::uint16_t);
BENCHMARK_TEMPLATE(BM_BarrettMulmod, std::uint32_t);

// Macro-model rows (explore layer).  A hand-built linear model set stands in
// for ISS characterization, so these rows time only the estimator.
const macromodel::MacroModelSet& linear_models() {
  static const macromodel::MacroModelSet set = [] {
    macromodel::MacroModelSet s;
    for (int p = 0; p < static_cast<int>(Prim::kCount); ++p) {
      for (unsigned bits : {16u, 32u}) {
        s.set(static_cast<Prim>(p), bits,
              {macromodel::PolyModel({{0, 0}, {1, 0}}, {20.0 + p, 9.5}), {}});
      }
    }
    return s;
  }();
  return set;
}

// One MacroModelSet::cycles call per iteration over sizes 1..129 limbs:
// Arg(0) is the compiled-table hit every exploration event takes; Arg(1)
// passes m != 0, which falls back to evaluating the polynomial.
void BM_MacroModelCycles(benchmark::State& state) {
  const auto& models = linear_models();
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  std::size_t n = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(models.cycles(Prim::kAddMul1, n, m, 32));
    n = n == 129 ? 1 : n + 1;
  }
  state.SetLabel(m == 0 ? "table" : "polynomial");
}
BENCHMARK(BM_MacroModelCycles)->Arg(0)->Arg(1);

// One design-space configuration estimated natively (no ISS): four RSA
// private-key operations of the given modulus size, every mpn event priced
// through the macro-model hook.
void BM_EstimateConfig(benchmark::State& state) {
  Rng rng(9);
  const auto workload =
      explore::make_rsa_workload(static_cast<std::size_t>(state.range(0)), rng);
  const ModexpConfig config{};
  std::size_t events = 0;
  for (auto _ : state) {
    const auto est = explore::estimate_config(config, workload, linear_models());
    benchmark::DoNotOptimize(est.total_cycles);
    events = est.events;
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetLabel(config.name());
}
BENCHMARK(BM_EstimateConfig)->Arg(512);

// The whole design space estimated natively at one thread: all 450
// configurations on a 512-bit workload with two private-key operations per
// estimate, as perfbench's design_space workload runs it.
void BM_ExploreSpace(benchmark::State& state) {
  Rng rng(12);
  auto workload = explore::make_rsa_workload(512, rng);
  workload.repetitions = 2;
  const auto configs = all_modexp_configs();
  for (auto _ : state) {
    const auto report = explore::explore_modexp_space(workload, linear_models(), configs, 1);
    benchmark::DoNotOptimize(report.ranked.data());
  }
  state.counters["configs_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * configs.size()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExploreSpace)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

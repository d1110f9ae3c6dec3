// Host-library micro-benchmarks (google-benchmark): wall-clock sanity
// harness for the crypto substrate itself.  These are host-speed numbers,
// orthogonal to the ISS cycle counts the paper-reproduction benches report.
#include <benchmark/benchmark.h>

#include "crypto/aes.h"
#include "crypto/des.h"
#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "crypto/rc4.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "mp/modexp.h"
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

// 3DES-EDE CBC over one buffer, the record layer's loop; the schedule is
// built once.  Arg 1 selects the direction (0 encrypt, 1 decrypt).
void BM_TripleDesCbc(benchmark::State& state) {
  Rng rng(9);
  const auto ks = des::triple_key_schedule(rng.next_u64(), rng.next_u64(),
                                           rng.next_u64());
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const bool decrypt = state.range(1) != 0;
  std::vector<std::uint8_t> out(data.size());
  for (auto _ : state) {
    std::uint64_t chain = 0;
    for (std::size_t i = 0; i < data.size(); i += 8) {
      const std::uint64_t b = des::load_be64(data.data() + i);
      if (decrypt) {
        des::store_be64(des::decrypt_block_3des(b, ks) ^ chain, out.data() + i);
        chain = b;
      } else {
        chain = des::encrypt_block_3des(b ^ chain, ks);
        des::store_be64(chain, out.data() + i);
      }
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

// AES-128 CBC decryption with the schedule built once.
void BM_AesDecryptCbc(benchmark::State& state) {
  Rng rng(10);
  const auto ks = aes::key_schedule(rng.bytes(16));
  const auto data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const std::array<std::uint8_t, 16> iv{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes::decrypt_cbc(data, ks, iv));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
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

}  // namespace

BENCHMARK_MAIN();

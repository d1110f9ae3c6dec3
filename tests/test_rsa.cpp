#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "crypto/rsa.h"
#include "support/random.h"

namespace wsp {
namespace {

const rsa::PrivateKey& test_key() {
  static const rsa::PrivateKey key = [] {
    Rng rng(81);
    return rsa::generate_key(512, rng);
  }();
  return key;
}

TEST(Rsa, KeyGenerationInvariants) {
  const auto& key = test_key();
  EXPECT_EQ(key.bits(), 512u);
  EXPECT_EQ(key.p * key.q, key.n);
  const Mpz phi = (key.p - Mpz(1)) * (key.q - Mpz(1));
  EXPECT_EQ((key.d * key.e).mod(phi), Mpz(1));
  EXPECT_EQ(key.crt.dp, key.d % (key.p - Mpz(1)));
}

TEST(Rsa, RawRoundTrip) {
  const auto& key = test_key();
  ModexpEngine engine{ModexpConfig{}};
  Rng rng(82);
  for (int i = 0; i < 10; ++i) {
    const Mpz m = Mpz::from_bytes_be(rng.bytes(32));
    const Mpz c = rsa::public_op(m, key.public_key(), engine);
    EXPECT_EQ(rsa::private_op(c, key, engine), m);
  }
}

TEST(Rsa, CrtModesAgree) {
  const auto& key = test_key();
  Rng rng(83);
  const Mpz c = Mpz::from_bytes_be(rng.bytes(40));
  Mpz results[3];
  int idx = 0;
  for (CrtMode mode : {CrtMode::kNone, CrtMode::kTextbook, CrtMode::kGarner}) {
    ModexpConfig cfg;
    cfg.crt = mode;
    ModexpEngine engine(cfg);
    results[idx++] = rsa::private_op(c, key, engine);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(Rsa, Pkcs1EncryptDecrypt) {
  const auto& key = test_key();
  ModexpEngine engine{ModexpConfig{}};
  Rng rng(84);
  const std::vector<std::uint8_t> msg = {'h', 'e', 'l', 'l', 'o'};
  const auto ct = rsa::encrypt(msg, key.public_key(), engine, rng);
  EXPECT_EQ(ct.size(), 64u);
  EXPECT_EQ(rsa::decrypt(ct, key, engine), msg);
}

TEST(Rsa, PaddingIsRandomized) {
  const auto& key = test_key();
  ModexpEngine engine{ModexpConfig{}};
  Rng rng(85);
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  const auto c1 = rsa::encrypt(msg, key.public_key(), engine, rng);
  const auto c2 = rsa::encrypt(msg, key.public_key(), engine, rng);
  EXPECT_NE(c1, c2);
}

TEST(Rsa, MessageTooLongRejected) {
  const auto& key = test_key();
  ModexpEngine engine{ModexpConfig{}};
  Rng rng(86);
  EXPECT_THROW(rsa::encrypt(std::vector<std::uint8_t>(60), key.public_key(),
                            engine, rng),
               std::invalid_argument);
}

TEST(Rsa, CorruptedCiphertextRejected) {
  const auto& key = test_key();
  ModexpEngine engine{ModexpConfig{}};
  Rng rng(87);
  auto ct = rsa::encrypt({9, 9, 9}, key.public_key(), engine, rng);
  ct[10] ^= 0x40;
  EXPECT_THROW(
      {
        const auto out = rsa::decrypt(ct, key, engine);
        // Extremely unlikely to still parse; if it does, it must differ.
        ASSERT_NE(out, (std::vector<std::uint8_t>{9, 9, 9}));
      },
      std::runtime_error);
}

TEST(Rsa, SignVerify) {
  const auto& key = test_key();
  ModexpEngine engine{ModexpConfig{}};
  const std::vector<std::uint8_t> msg = {'s', 'i', 'g', 'n', 'm', 'e'};
  const auto sig = rsa::sign(msg, key, engine);
  EXPECT_TRUE(rsa::verify(msg, sig, key.public_key(), engine));
  auto tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(rsa::verify(tampered, sig, key.public_key(), engine));
  auto bad_sig = sig;
  bad_sig[5] ^= 1;
  EXPECT_FALSE(rsa::verify(msg, bad_sig, key.public_key(), engine));
}

TEST(Rsa, WorksUnderEveryMulAlgo) {
  const auto& key = test_key();
  Rng rng(88);
  const Mpz m = Mpz::from_bytes_be(rng.bytes(32));
  ModexpEngine ref{ModexpConfig{}};
  const Mpz expected = rsa::public_op(m, key.public_key(), ref);
  for (MulAlgo alg : {MulAlgo::kBasecaseDiv, MulAlgo::kKaratsubaDiv,
                      MulAlgo::kBarrett, MulAlgo::kMontSOS, MulAlgo::kMontCIOS}) {
    ModexpConfig cfg;
    cfg.mul = alg;
    ModexpEngine engine(cfg);
    EXPECT_EQ(rsa::public_op(m, key.public_key(), engine), expected)
        << to_string(alg);
  }
}

// FNV-1a over the hex of p, q and d (each followed by a separator byte).
std::uint64_t key_digest(const rsa::PrivateKey& key) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Mpz* v : {&key.p, &key.q, &key.d}) {
    for (const char c : v->to_hex() + "|") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Pinned from the key generator that tested primality with Mpz::powm and
// trial-divided with full Mpz divisions: a faster primality path must draw
// the same witnesses and reach the same verdicts, so the keys stay the same.
TEST(Rsa, GenerateKeyMatchesPinnedDigest) {
  struct Pin {
    std::size_t bits;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{512, 1, 0x4939aab4b02c4702ull},
                         Pin{512, 42, 0x687e61f394865ef7ull},
                         Pin{1024, 1, 0x1a9bb63b1555df1dull},
                         Pin{1024, 42, 0x1fb2c1b16d71087bull}}) {
    Rng rng(pin.seed);
    const rsa::PrivateKey key = rsa::generate_key(pin.bits, rng);
    EXPECT_EQ(key_digest(key), pin.digest)
        << pin.bits << " bits, seed " << pin.seed << ": 0x" << std::hex
        << key_digest(key);
  }
}

}  // namespace
}  // namespace wsp

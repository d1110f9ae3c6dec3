#include <gtest/gtest.h>

#include "aes_ref.h"
#include "crypto/aes.h"
#include "support/hex.h"
#include "support/random.h"

namespace wsp {
namespace {

std::vector<std::uint8_t> hexv(const char* s) { return from_hex(s); }

TEST(Aes, Fips197KnownAnswers) {
  const auto plain = hexv("00112233445566778899aabbccddeeff");
  struct Vec {
    const char* key;
    const char* cipher;
  };
  const Vec vecs[] = {
      {"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const auto& v : vecs) {
    const auto ks = aes::key_schedule(hexv(v.key));
    std::uint8_t out[16];
    aes_ref::encrypt_block(plain.data(), out, ks);
    EXPECT_EQ(to_hex(out, 16), v.cipher);
    std::uint8_t back[16];
    aes_ref::decrypt_block(out, back, ks);
    EXPECT_EQ(to_hex(back, 16), to_hex(plain));
  }
}

TEST(Aes, TTableMatchesReference) {
  Rng rng(71);
  for (std::size_t klen : {16u, 24u, 32u}) {
    const auto ks = aes::key_schedule(rng.bytes(klen));
    for (int i = 0; i < 100; ++i) {
      const auto block = rng.bytes(16);
      std::uint8_t a[16], b[16];
      aes_ref::encrypt_block(block.data(), a, ks);
      aes::encrypt_block(block.data(), b, ks);
      EXPECT_EQ(to_hex(a, 16), to_hex(b, 16)) << "klen=" << klen;
    }
  }
}

TEST(Aes, InverseTablesMatchReference) {
  // decrypt_block (Td tables and the InvMixColumns-transformed schedule of
  // the equivalent inverse cipher) against the byte-oriented reference
  // inverse cipher, for every key size.
  Rng rng(76);
  for (std::size_t klen : {16u, 24u, 32u}) {
    const auto ks = aes::key_schedule(rng.bytes(klen));
    for (int i = 0; i < 200; ++i) {
      const auto block = rng.bytes(16);
      std::uint8_t a[16], b[16];
      aes_ref::decrypt_block(block.data(), a, ks);
      aes::decrypt_block(block.data(), b, ks);
      EXPECT_EQ(to_hex(a, 16), to_hex(b, 16)) << "klen=" << klen;
    }
  }
}

TEST(Aes, SboxIsPermutationWithKnownFixedValues) {
  const auto& sb = aes::sbox();
  const auto& inv = aes::inv_sbox();
  std::set<int> seen;
  for (int i = 0; i < 256; ++i) seen.insert(sb[static_cast<std::size_t>(i)]);
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_EQ(sb[0x00], 0x63);  // FIPS-197 fixed points of the table
  EXPECT_EQ(sb[0x01], 0x7c);
  EXPECT_EQ(sb[0x53], 0xed);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(inv[sb[static_cast<std::size_t>(i)]], i);
  }
}

TEST(Aes, GfMulProperties) {
  // x * 1 = x; distributivity over xor; known product.
  Rng rng(72);
  for (int i = 0; i < 100; ++i) {
    const std::uint8_t a = static_cast<std::uint8_t>(rng.next_u64());
    const std::uint8_t b = static_cast<std::uint8_t>(rng.next_u64());
    const std::uint8_t c = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(aes::gf_mul(a, 1), a);
    EXPECT_EQ(aes::gf_mul(a, static_cast<std::uint8_t>(b ^ c)),
              aes::gf_mul(a, b) ^ aes::gf_mul(a, c));
  }
  EXPECT_EQ(aes::gf_mul(0x57, 0x83), 0xc1);  // FIPS-197 worked example
}

TEST(Aes, KeyScheduleRejectsBadSizes) {
  EXPECT_THROW(aes::key_schedule(std::vector<std::uint8_t>(15)), std::invalid_argument);
  EXPECT_THROW(aes::key_schedule(std::vector<std::uint8_t>(33)), std::invalid_argument);
}

TEST(AesModes, EcbRoundTrip) {
  Rng rng(73);
  const auto ks = aes::key_schedule(rng.bytes(16));
  const auto data = rng.bytes(128);
  EXPECT_EQ(aes::decrypt_ecb(aes::encrypt_ecb(data, ks), ks), data);
}

using Block = std::array<std::uint8_t, 16>;

Block random_block(Rng& rng) {
  Block b{};
  const auto v = rng.bytes(16);
  std::copy(v.begin(), v.end(), b.begin());
  return b;
}

TEST(AesModes, CbcRoundTrip) {
  Rng rng(74);
  const auto ks = aes::key_schedule(rng.bytes(32));
  const Block iv = random_block(rng);
  const auto data = rng.bytes(160);
  std::vector<std::uint8_t> ct(data.size()), back(data.size());
  Block chain = iv;
  aes::encrypt_cbc(data.data(), ct.data(), data.size(), ks, chain);
  chain = iv;
  aes::decrypt_cbc(ct.data(), back.data(), ct.size(), ks, chain);
  EXPECT_EQ(back, data);
  EXPECT_NE(ct, data);
}

// CBC over the byte-oriented reference blocks, one block at a time; the
// residue is the last ciphertext block.
std::vector<std::uint8_t> ref_cbc(const std::vector<std::uint8_t>& in, const Block& iv,
                                  bool decrypt, const aes::KeySchedule& ks) {
  std::vector<std::uint8_t> out(in.size());
  Block chain = iv;
  for (std::size_t i = 0; i < in.size(); i += 16) {
    std::uint8_t x[16];
    if (decrypt) {
      aes_ref::decrypt_block(in.data() + i, x, ks);
      for (int b = 0; b < 16; ++b) out[i + b] = x[b] ^ chain[b];
      std::copy(in.begin() + i, in.begin() + i + 16, chain.begin());
    } else {
      for (int b = 0; b < 16; ++b) x[b] = in[i + b] ^ chain[b];
      aes_ref::encrypt_block(x, out.data() + i, ks);
      std::copy(out.begin() + i, out.begin() + i + 16, chain.begin());
    }
  }
  return out;
}

Block last_block_or(const std::vector<std::uint8_t>& ct, const Block& iv) {
  Block b = iv;
  if (!ct.empty()) std::copy(ct.end() - 16, ct.end(), b.begin());
  return b;
}

// Every length from 0 to 12 blocks and one record-sized buffer (1,040 B),
// for each key size, out of place and in place, against CBC built from the
// reference blocks.
TEST(AesCbc, MatchesReferenceBothDirections) {
  Rng rng(77);
  std::vector<std::size_t> lens;
  for (std::size_t b = 0; b <= 12; ++b) lens.push_back(16 * b);
  lens.push_back(1040);
  for (std::size_t klen : {16u, 24u, 32u}) {
    const auto ks = aes::key_schedule(rng.bytes(klen));
    for (const std::size_t n : lens) {
      const auto data = rng.bytes(n);
      const Block iv = random_block(rng);
      const auto want_ct = ref_cbc(data, iv, false, ks);
      const auto want_pt = ref_cbc(data, iv, true, ks);

      std::vector<std::uint8_t> out(n, 0x5a);
      Block chain = iv;
      aes::encrypt_cbc(data.data(), out.data(), n, ks, chain);
      EXPECT_EQ(out, want_ct) << "encrypt klen=" << klen << " n=" << n;
      EXPECT_EQ(chain, last_block_or(want_ct, iv)) << "encrypt klen=" << klen << " n=" << n;
      chain = iv;
      aes::decrypt_cbc(data.data(), out.data(), n, ks, chain);
      EXPECT_EQ(out, want_pt) << "decrypt klen=" << klen << " n=" << n;
      EXPECT_EQ(chain, last_block_or(data, iv)) << "decrypt klen=" << klen << " n=" << n;

      auto buf = data;
      chain = iv;
      aes::encrypt_cbc(buf.data(), buf.data(), n, ks, chain);
      EXPECT_EQ(buf, want_ct) << "in-place encrypt klen=" << klen << " n=" << n;
      EXPECT_EQ(chain, last_block_or(want_ct, iv)) << "in-place encrypt n=" << n;
      buf = data;
      chain = iv;
      aes::decrypt_cbc(buf.data(), buf.data(), n, ks, chain);
      EXPECT_EQ(buf, want_pt) << "in-place decrypt klen=" << klen << " n=" << n;
      EXPECT_EQ(chain, last_block_or(data, iv)) << "in-place decrypt n=" << n;
    }
  }
}

TEST(AesCbc, ChainedCallsEqualOneCall) {
  Rng rng(78);
  const std::size_t n = 1040;
  for (std::size_t klen : {16u, 24u, 32u}) {
    const auto ks = aes::key_schedule(rng.bytes(klen));
    const auto data = rng.bytes(n);
    const Block iv = random_block(rng);
    for (const bool decrypt : {false, true}) {
      const auto run = decrypt ? aes::decrypt_cbc : aes::encrypt_cbc;
      std::vector<std::uint8_t> whole(n);
      Block whole_chain = iv;
      run(data.data(), whole.data(), n, ks, whole_chain);
      for (const std::size_t split : {0, 16, 32, 48, 64, 512, 1024, 1040}) {
        std::vector<std::uint8_t> parts(n);
        Block chain = iv;
        run(data.data(), parts.data(), split, ks, chain);
        run(data.data() + split, parts.data() + split, n - split, ks, chain);
        EXPECT_EQ(parts, whole) << "klen=" << klen << " decrypt=" << decrypt
                                << " split=" << split;
        EXPECT_EQ(chain, whole_chain) << "klen=" << klen << " decrypt=" << decrypt
                                      << " split=" << split;
      }
    }
  }
}

TEST(AesCbc, RejectsBadLength) {
  const auto ks = aes::key_schedule(std::vector<std::uint8_t>(16, 0));
  std::uint8_t buf[32] = {};
  Block chain{};
  EXPECT_THROW(aes::encrypt_cbc(buf, buf, 20, ks, chain), std::invalid_argument);
  EXPECT_THROW(aes::decrypt_cbc(buf, buf, 31, ks, chain), std::invalid_argument);
}

TEST(AesModes, RejectsBadLength) {
  const auto ks = aes::key_schedule(std::vector<std::uint8_t>(16, 0));
  EXPECT_THROW(aes::encrypt_ecb(std::vector<std::uint8_t>(15), ks),
               std::invalid_argument);
}

TEST(Aes, Avalanche) {
  Rng rng(75);
  const auto ks = aes::key_schedule(rng.bytes(16));
  auto p1 = rng.bytes(16);
  auto p2 = p1;
  p2[0] ^= 1;
  std::uint8_t c1[16], c2[16];
  aes::encrypt_block(p1.data(), c1, ks);
  aes::encrypt_block(p2.data(), c2, ks);
  int flipped = 0;
  for (int i = 0; i < 16; ++i) flipped += __builtin_popcount(c1[i] ^ c2[i]);
  EXPECT_GT(flipped, 32);
  EXPECT_LT(flipped, 96);
}

}  // namespace
}  // namespace wsp

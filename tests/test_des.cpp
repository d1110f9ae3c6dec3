#include <gtest/gtest.h>

#include "des_ref.h"
#include "crypto/des.h"
#include "support/hex.h"
#include "support/random.h"

namespace wsp {
namespace {

TEST(Des, ClassicKnownAnswer) {
  // The canonical worked example (used in countless DES walkthroughs).
  const auto ks = des::key_schedule(0x133457799BBCDFF1ull);
  EXPECT_EQ(des_ref::encrypt_block(0x0123456789ABCDEFull, ks), 0x85E813540F0AB405ull);
  EXPECT_EQ(des_ref::decrypt_block(0x85E813540F0AB405ull, ks), 0x0123456789ABCDEFull);
}

TEST(Des, FipsVectors) {
  // From the NBS/NIST DES validation examples.
  struct Vec {
    std::uint64_t key, plain, cipher;
  };
  const Vec vecs[] = {
      {0x0101010101010101ull, 0x8000000000000000ull, 0x95F8A5E5DD31D900ull},
      {0x0101010101010101ull, 0x4000000000000000ull, 0xDD7F121CA5015619ull},
      {0x8001010101010101ull, 0x0000000000000000ull, 0x95A8D72813DAA94Dull},
      {0x7CA110454A1A6E57ull, 0x01A1D6D039776742ull, 0x690F5B0D9A26939Bull},
  };
  for (const auto& v : vecs) {
    const auto ks = des::key_schedule(v.key);
    EXPECT_EQ(des_ref::encrypt_block(v.plain, ks), v.cipher) << std::hex << v.key;
  }
}

TEST(Des, FastMatchesReference) {
  Rng rng(61);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = rng.next_u64();
    const std::uint64_t block = rng.next_u64();
    const auto ks = des::key_schedule(key);
    EXPECT_EQ(des::encrypt_block(block, ks), des_ref::encrypt_block(block, ks));
    EXPECT_EQ(des::decrypt_block(block, ks), des_ref::decrypt_block(block, ks));
  }
}

TEST(Des, EncryptDecryptRoundTrip) {
  Rng rng(62);
  const auto ks = des::key_schedule(rng.next_u64());
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des::decrypt_block(des::encrypt_block(block, ks), ks), block);
  }
}

TEST(Des, IpFpAreInverses) {
  Rng rng(63);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des::final_permutation(des::initial_permutation(block)), block);
    EXPECT_EQ(des::initial_permutation(des::final_permutation(block)), block);
  }
}

// FIPS-46 E expansion and P permutation, transcribed here (1-based bit
// positions from the MSB) so the oracle below shares nothing with des.cpp
// but the raw S-boxes.
constexpr int kE[48] = {32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,
                        8,  9,  10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
                        16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
                        24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};
constexpr int kP[32] = {16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23, 26, 5,  18, 31, 10,
                        2,  8, 24, 14, 32, 27, 3,  9,  19, 13, 30, 6,  22, 11, 4,  25};

// The Feistel F function as the standard states it: E, key mix, the eight
// S-boxes, P — one bit at a time.
std::uint32_t f_bitwise(std::uint32_t r, std::uint64_t k48) {
  std::uint64_t e = 0;
  for (int src : kE) e = (e << 1) | ((r >> (32 - src)) & 1u);
  e ^= k48;
  std::uint32_t s = 0;
  for (int i = 0; i < 8; ++i) {
    s = (s << 4) | des::sbox(i, static_cast<std::uint8_t>((e >> (42 - 6 * i)) & 0x3f));
  }
  std::uint32_t p = 0;
  for (int src : kP) p = (p << 1) | ((s >> (32 - src)) & 1u);
  return p;
}

TEST(Des, FFunctionMatchesSpTables) {
  // Both the exported f_function (SP tables) and the fast-E round helper
  // the block functions run must equal the bitwise composition.
  Rng rng(64);
  const des::FastTables& t = des::fast_tables();
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t r = rng.next_u32();
    const std::uint64_t k = rng.next_u64() & 0xFFFFFFFFFFFFull;
    const std::uint32_t want = f_bitwise(r, k);
    EXPECT_EQ(des::f_function(r, k), want) << std::hex << r << " " << k;
    std::uint32_t words[2] = {0, 0};
    for (int j = 0; j < 8; ++j) {
      words[j % 2] |= static_cast<std::uint32_t>((k >> (42 - 6 * j)) & 0x3f) << (26 - 8 * (j / 2));
    }
    // feistel_fast works on halves rotated right by one.
    const auto rotr1 = [](std::uint32_t x) { return (x >> 1) | (x << 31); };
    EXPECT_EQ(des::feistel_fast(rotr1(r), words, t), rotr1(want))
        << std::hex << r << " " << k;
  }
}

TEST(TripleDes, KnownStructure) {
  // EDE with k1=k2=k3 degenerates to single DES.
  Rng rng(65);
  const std::uint64_t key = rng.next_u64();
  const auto single = des::key_schedule(key);
  const auto triple = des::triple_key_schedule(key, key, key);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des::encrypt_block_3des(block, triple), des::encrypt_block(block, single));
  }
}

TEST(TripleDes, FusedMatchesReferenceEde) {
  // The fused 3DES (one IP, 48 rounds, one FP) against the EDE composition
  // of the bitwise reference blocks.
  Rng rng(69);
  const auto check = [&rng](std::uint64_t k1, std::uint64_t k2, std::uint64_t k3) {
    const auto ks = des::triple_key_schedule(k1, k2, k3);
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t block = rng.next_u64();
      const std::uint64_t ede = des_ref::encrypt_block(
          des_ref::decrypt_block(des_ref::encrypt_block(block, ks.k1), ks.k2), ks.k3);
      const std::uint64_t ded = des_ref::decrypt_block(
          des_ref::encrypt_block(des_ref::decrypt_block(block, ks.k3), ks.k2), ks.k1);
      EXPECT_EQ(des::encrypt_block_3des(block, ks), ede);
      EXPECT_EQ(des::decrypt_block_3des(block, ks), ded);
    }
  };
  for (int i = 0; i < 25; ++i) check(rng.next_u64(), rng.next_u64(), rng.next_u64());
  const std::uint64_t key = rng.next_u64();
  check(key, key, key);
  // k1 = k2 = k3 collapses to single DES.
  const auto single = des::key_schedule(key);
  const auto triple = des::triple_key_schedule(key, key, key);
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des::encrypt_block_3des(block, triple), des_ref::encrypt_block(block, single));
    EXPECT_EQ(des::decrypt_block_3des(block, triple), des_ref::decrypt_block(block, single));
  }
}

TEST(TripleDes, RoundTrip) {
  Rng rng(66);
  const auto ks = des::triple_key_schedule(rng.next_u64(), rng.next_u64(),
                                           rng.next_u64());
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des::decrypt_block_3des(des::encrypt_block_3des(block, ks), ks), block);
  }
}

TEST(DesModes, EcbRoundTrip) {
  Rng rng(67);
  const auto ks = des::key_schedule(rng.next_u64());
  const auto data = rng.bytes(64);
  EXPECT_EQ(des::decrypt_ecb(des::encrypt_ecb(data, ks), ks), data);
}

TEST(DesModes, CbcRoundTripAndChaining) {
  Rng rng(68);
  const auto ks = des::key_schedule(rng.next_u64());
  const std::uint64_t iv = rng.next_u64();
  const auto data = rng.bytes(80);
  const auto ct = des::encrypt_cbc(data, ks, iv);
  EXPECT_EQ(des::decrypt_cbc(ct, ks, iv), data);
  // Identical plaintext blocks must produce different ciphertext blocks.
  std::vector<std::uint8_t> rep(32, 0xAA);
  const auto ct2 = des::encrypt_cbc(rep, ks, iv);
  EXPECT_NE(std::vector<std::uint8_t>(ct2.begin(), ct2.begin() + 8),
            std::vector<std::uint8_t>(ct2.begin() + 8, ct2.begin() + 16));
}

// CBC over the bitwise reference blocks, one block at a time: `crypt`
// maps one 64-bit block; the residue is the last ciphertext block.
template <class Crypt>
std::vector<std::uint8_t> ref_cbc(const std::vector<std::uint8_t>& in,
                                  std::uint64_t iv, bool decrypt, Crypt crypt) {
  std::vector<std::uint8_t> out(in.size());
  std::uint64_t chain = iv;
  for (std::size_t i = 0; i < in.size(); i += 8) {
    const std::uint64_t x = des::load_be64(in.data() + i);
    if (decrypt) {
      des::store_be64(crypt(x) ^ chain, out.data() + i);
      chain = x;
    } else {
      chain = crypt(x ^ chain);
      des::store_be64(chain, out.data() + i);
    }
  }
  return out;
}

// Every length from 0 to 12 blocks, so each 4-block group count meets
// every tail of 0..3 single blocks, and one record-sized buffer
// (1024 + 24 B: 131 blocks, tail 3).
std::vector<std::size_t> cbc_test_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t b = 0; b <= 12; ++b) lens.push_back(8 * b);
  lens.push_back(1024 + 24);
  return lens;
}

std::uint64_t last_block_or(const std::vector<std::uint8_t>& ct, std::uint64_t iv) {
  return ct.empty() ? iv : des::load_be64(ct.data() + ct.size() - 8);
}

TEST(TripleDesCbc, MatchesReferenceEdeBothDirections) {
  Rng rng(70);
  const auto ks = des::triple_key_schedule(rng.next_u64(), rng.next_u64(),
                                           rng.next_u64());
  const auto ede = [&ks](std::uint64_t b) {
    return des_ref::encrypt_block(
        des_ref::decrypt_block(des_ref::encrypt_block(b, ks.k1), ks.k2), ks.k3);
  };
  const auto ded = [&ks](std::uint64_t b) {
    return des_ref::decrypt_block(
        des_ref::encrypt_block(des_ref::decrypt_block(b, ks.k3), ks.k2), ks.k1);
  };
  for (const std::size_t n : cbc_test_lengths()) {
    const auto data = rng.bytes(n);
    const std::uint64_t iv = rng.next_u64();
    const auto want_ct = ref_cbc(data, iv, false, ede);
    const auto want_pt = ref_cbc(data, iv, true, ded);

    // Out of place.
    std::vector<std::uint8_t> out(n, 0x5a);
    std::uint64_t chain = iv;
    des::encrypt_cbc_3des(data.data(), out.data(), n, ks, chain);
    EXPECT_EQ(out, want_ct) << "encrypt n=" << n;
    EXPECT_EQ(chain, last_block_or(want_ct, iv)) << "encrypt n=" << n;
    chain = iv;
    des::decrypt_cbc_3des(data.data(), out.data(), n, ks, chain);
    EXPECT_EQ(out, want_pt) << "decrypt n=" << n;
    EXPECT_EQ(chain, last_block_or(data, iv)) << "decrypt n=" << n;

    // In place.
    auto buf = data;
    chain = iv;
    des::encrypt_cbc_3des(buf.data(), buf.data(), n, ks, chain);
    EXPECT_EQ(buf, want_ct) << "in-place encrypt n=" << n;
    EXPECT_EQ(chain, last_block_or(want_ct, iv)) << "in-place encrypt n=" << n;
    buf = data;
    chain = iv;
    des::decrypt_cbc_3des(buf.data(), buf.data(), n, ks, chain);
    EXPECT_EQ(buf, want_pt) << "in-place decrypt n=" << n;
    EXPECT_EQ(chain, last_block_or(data, iv)) << "in-place decrypt n=" << n;

    // And back.
    chain = iv;
    des::decrypt_cbc_3des(want_ct.data(), out.data(), n, ks, chain);
    EXPECT_EQ(out, data) << "round trip n=" << n;
  }
}

TEST(TripleDesCbc, ChainedCallsEqualOneCall) {
  Rng rng(71);
  const auto ks = des::triple_key_schedule(rng.next_u64(), rng.next_u64(),
                                           rng.next_u64());
  const std::size_t n = 1024 + 24;
  const auto data = rng.bytes(n);
  const std::uint64_t iv = rng.next_u64();
  for (const bool decrypt : {false, true}) {
    const auto run = decrypt ? des::decrypt_cbc_3des : des::encrypt_cbc_3des;
    std::vector<std::uint8_t> whole(n);
    std::uint64_t whole_chain = iv;
    run(data.data(), whole.data(), n, ks, whole_chain);
    for (const std::size_t split : {0, 8, 16, 24, 32, 40, 56, 64, 520, 1040, 1048}) {
      std::vector<std::uint8_t> parts(n);
      std::uint64_t chain = iv;
      run(data.data(), parts.data(), split, ks, chain);
      run(data.data() + split, parts.data() + split, n - split, ks, chain);
      EXPECT_EQ(parts, whole) << "decrypt=" << decrypt << " split=" << split;
      EXPECT_EQ(chain, whole_chain) << "decrypt=" << decrypt << " split=" << split;
    }
  }
}

TEST(TripleDesCbc, RejectsBadLength) {
  const auto ks = des::triple_key_schedule(1, 2, 3);
  std::uint8_t buf[16] = {};
  std::uint64_t chain = 0;
  EXPECT_THROW(des::encrypt_cbc_3des(buf, buf, 12, ks, chain), std::invalid_argument);
  EXPECT_THROW(des::decrypt_cbc_3des(buf, buf, 15, ks, chain), std::invalid_argument);
}

TEST(DesModes, CbcMatchesReferenceAtEveryTail) {
  Rng rng(72);
  const auto ks = des::key_schedule(rng.next_u64());
  const auto enc = [&ks](std::uint64_t b) { return des_ref::encrypt_block(b, ks); };
  const auto dec = [&ks](std::uint64_t b) { return des_ref::decrypt_block(b, ks); };
  for (const std::size_t n : cbc_test_lengths()) {
    const auto data = rng.bytes(n);
    const std::uint64_t iv = rng.next_u64();
    EXPECT_EQ(des::encrypt_cbc(data, ks, iv), ref_cbc(data, iv, false, enc)) << n;
    EXPECT_EQ(des::decrypt_cbc(data, ks, iv), ref_cbc(data, iv, true, dec)) << n;
  }
}

TEST(DesModes, RejectsBadLength) {
  const auto ks = des::key_schedule(0);
  EXPECT_THROW(des::encrypt_ecb(std::vector<std::uint8_t>(7), ks),
               std::invalid_argument);
}

TEST(Des, Avalanche) {
  // Flipping one plaintext bit should flip roughly half the output bits.
  const auto ks = des::key_schedule(0x0123456789ABCDEFull);
  const std::uint64_t a = des::encrypt_block(0x1111111111111111ull, ks);
  const std::uint64_t b = des::encrypt_block(0x1111111111111110ull, ks);
  const int flipped = __builtin_popcountll(a ^ b);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

}  // namespace
}  // namespace wsp

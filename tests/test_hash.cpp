#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "support/hex.h"
#include "support/random.h"

namespace wsp {
namespace {

std::vector<std::uint8_t> bytes_of(const char* s) {
  return std::vector<std::uint8_t>(s, s + std::string(s).size());
}

template <typename A>
std::string hex_of(const A& digest) {
  return to_hex(digest.data(), digest.size());
}

TEST(Sha1, KnownAnswers) {
  EXPECT_EQ(hex_of(Sha1::hash(bytes_of(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex_of(Sha1::hash(bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex_of(Sha1::hash(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 ctx;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(hex_of(ctx.digest()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog etc");
  Sha1 ctx;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, data.size() - i);
    ctx.update(data.data() + i, n);
  }
  EXPECT_EQ(hex_of(ctx.digest()), hex_of(Sha1::hash(data)));
}

TEST(Md5, KnownAnswers) {
  EXPECT_EQ(hex_of(Md5::hash(bytes_of(""))), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(hex_of(Md5::hash(bytes_of("abc"))), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(hex_of(Md5::hash(bytes_of("message digest"))),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(hex_of(Md5::hash(bytes_of(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"))),
            "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(HmacSha1, Rfc2202Vectors) {
  // Case 1.
  EXPECT_EQ(to_hex(hmac_sha1(std::vector<std::uint8_t>(20, 0x0b), bytes_of("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  // Case 2.
  EXPECT_EQ(to_hex(hmac_sha1(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
  // Case 3: 20x 0xaa key, 50x 0xdd data.
  EXPECT_EQ(to_hex(hmac_sha1(std::vector<std::uint8_t>(20, 0xaa),
                             std::vector<std::uint8_t>(50, 0xdd))),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
  // Case 6: 80-byte key (longer than block handled by hashing... 80 < 64? no,
  // 80 > 64 exercises the key-hash path).
  EXPECT_EQ(to_hex(hmac_sha1(std::vector<std::uint8_t>(80, 0xaa),
                             bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacMd5, Rfc2202Vectors) {
  EXPECT_EQ(to_hex(hmac_md5(std::vector<std::uint8_t>(16, 0x0b), bytes_of("Hi There"))),
            "9294727a3638bb1c13f48ef8158bfc9d");
  EXPECT_EQ(to_hex(hmac_md5(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"))),
            "750c783e6ab0b503eaa86e310a5db738");
}

TEST(Hmac, DifferentKeysDiffer) {
  const auto d = bytes_of("payload");
  EXPECT_NE(hmac_sha1(bytes_of("k1"), d), hmac_sha1(bytes_of("k2"), d));
}

// --- loop-form reference oracles --------------------------------------------
//
// One-shot SHA-1 and MD5 written the plain way: the whole message padded in
// a vector, then a compression loop with a per-round branch and (for SHA-1)
// the full 80-word schedule.  The library's straight-line versions must
// agree with these for every length and every way of splitting the input.

std::uint32_t rotl_ref(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

// msg || 0x80 || zeros || 64-bit bit length, big- or little-endian.
std::vector<std::uint8_t> md_pad(std::vector<std::uint8_t> msg, bool big_endian) {
  const std::uint64_t bit_len = static_cast<std::uint64_t>(msg.size()) * 8;
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  for (int i = 0; i < 8; ++i) {
    const int shift = big_endian ? 56 - 8 * i : 8 * i;
    msg.push_back(static_cast<std::uint8_t>(bit_len >> shift));
  }
  return msg;
}

std::array<std::uint8_t, 20> sha1_ref(const std::vector<std::uint8_t>& msg) {
  std::uint32_t h[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0};
  const auto padded = md_pad(msg, /*big_endian=*/true);
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    const std::uint8_t* block = padded.data() + off;
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) | block[4 * i + 3];
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = rotl_ref(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5A827999;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDC;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6;
      }
      const std::uint32_t t = rotl_ref(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl_ref(b, 30);
      b = a;
      a = t;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  std::array<std::uint8_t, 20> out{};
  for (std::size_t i = 0; i < 20; ++i) {
    out[i] = static_cast<std::uint8_t>(h[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

std::array<std::uint8_t, 16> md5_ref(const std::vector<std::uint8_t>& msg) {
  static constexpr int kShift[64] = {
      7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
      5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
      4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
      6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};
  static constexpr std::uint32_t kK[64] = {
      0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
      0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
      0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
      0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
      0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
      0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
      0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
      0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
      0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
      0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
      0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};
  std::uint32_t h[4] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};
  const auto padded = md_pad(msg, /*big_endian=*/false);
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    const std::uint8_t* block = padded.data() + off;
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) {
      m[i] = static_cast<std::uint32_t>(block[4 * i]) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 8) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 3]) << 24);
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t f;
      int g;
      if (i < 16) {
        f = (b & c) | ((~b) & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | ((~d) & c);
        g = (5 * i + 1) % 16;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) % 16;
      } else {
        f = c ^ (b | (~d));
        g = (7 * i) % 16;
      }
      const std::uint32_t tmp = d;
      d = c;
      c = b;
      b = b + rotl_ref(a + f + kK[i] + m[g], kShift[i]);
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
  }
  std::array<std::uint8_t, 16> out{};
  for (std::size_t i = 0; i < 16; ++i) {
    out[i] = static_cast<std::uint8_t>(h[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

TEST(HashReference, OraclesMatchKnownAnswers) {
  EXPECT_EQ(hex_of(sha1_ref(bytes_of("abc"))), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex_of(md5_ref(bytes_of("abc"))), "900150983cd24fb0d6963f7d28e17f72");
}

// Every length 0-300 (so every padding edge: 55, 56, 63, 64 bytes and their
// multi-block repeats), each input fed as two update() calls split at every
// offset, so whole-block hashing from the caller's buffer and the partial
// block carried between calls both meet the oracle.
template <typename Hash, typename Ref>
void expect_matches_reference(Ref ref) {
  Rng rng(1321);
  for (std::size_t len = 0; len <= 300; ++len) {
    const auto msg = rng.bytes(len);
    const auto want = ref(msg);
    ASSERT_EQ(Hash::hash(msg), want) << "length " << len;
    for (std::size_t split = 0; split <= len; ++split) {
      Hash ctx;
      ctx.update(msg.data(), split);
      ctx.update(msg.data() + split, len - split);
      ASSERT_EQ(ctx.digest(), want) << "length " << len << " split " << split;
    }
  }
}

TEST(HashReference, Sha1MatchesLoopFormAtEveryLengthAndSplit) {
  expect_matches_reference<Sha1>(sha1_ref);
}

TEST(HashReference, Md5MatchesLoopFormAtEveryLengthAndSplit) {
  expect_matches_reference<Md5>(md5_ref);
}

// HMAC-SHA1 built from the oracle: SHA1((K ^ opad) || SHA1((K ^ ipad) || m)).
std::vector<std::uint8_t> hmac_sha1_ref(std::vector<std::uint8_t> key,
                                        const std::vector<std::uint8_t>& msg) {
  if (key.size() > 64) {
    const auto d = sha1_ref(key);
    key.assign(d.begin(), d.end());
  }
  key.resize(64, 0);
  std::vector<std::uint8_t> inner, outer;
  for (const std::uint8_t k : key) inner.push_back(static_cast<std::uint8_t>(k ^ 0x36));
  for (const std::uint8_t k : key) outer.push_back(static_cast<std::uint8_t>(k ^ 0x5c));
  inner.insert(inner.end(), msg.begin(), msg.end());
  const auto inner_digest = sha1_ref(inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  const auto tag = sha1_ref(outer);
  return {tag.begin(), tag.end()};
}

// One key object MACs many messages: every tag must equal a fresh
// hmac_sha1 and the oracle-built HMAC, for keys shorter than, equal to and
// longer than the block (the longer ones hashed first).
TEST(HmacKeyReuse, MatchesFreshHmacForEveryMessage) {
  Rng rng(2104);
  for (const std::size_t key_len : {0, 20, 64, 65, 80}) {
    const auto key = rng.bytes(key_len);
    const HmacSha1 mac(key);
    for (int i = 0; i < 50; ++i) {
      const auto msg = rng.bytes(static_cast<std::size_t>(rng.below(300)));
      const auto want = hmac_sha1(key, msg);
      ASSERT_EQ(want, hmac_sha1_ref(key, msg)) << "key " << key_len << " msg " << i;
      const auto tag = mac.mac(msg.data(), msg.size());
      ASSERT_EQ(std::vector<std::uint8_t>(tag.begin(), tag.end()), want)
          << "key " << key_len << " msg " << i;
      // The record layer's shape: a copied inner context fed in two parts.
      Sha1 inner = mac.start();
      const std::size_t head = std::min<std::size_t>(11, msg.size());
      inner.update(msg.data(), head);
      inner.update(msg.data() + head, msg.size() - head);
      const auto split_tag = mac.finish(inner);
      ASSERT_EQ(std::vector<std::uint8_t>(split_tag.begin(), split_tag.end()), want);
    }
  }
}

TEST(HmacKeyReuse, Md5KeyObjectMatchesHmacMd5) {
  Rng rng(2202);
  const auto key = rng.bytes(80);
  const HmacMd5 mac(key);
  for (int i = 0; i < 20; ++i) {
    const auto msg = rng.bytes(static_cast<std::size_t>(rng.below(200)));
    const auto tag = mac.mac(msg.data(), msg.size());
    EXPECT_EQ(std::vector<std::uint8_t>(tag.begin(), tag.end()), hmac_md5(key, msg));
  }
}

}  // namespace
}  // namespace wsp

// Golden known-answer tests from the primary standards documents:
//   * AES — FIPS-197 Appendix B (cipher example) and Appendix C (all three
//     key sizes), checked against the reference rounds, the T-table path,
//     and the XR32 AES kernel on the ISS;
//   * DES — FIPS-81 sample plus the classic NBS known-answer vectors,
//     checked against the bit-level reference, the SP-table path, and both
//     XR32 DES kernel forms;
//   * SHA-1 — FIPS 180 examples (including the one-million-'a' vector),
//     checked against the host implementation and the XR32 SHA-1 kernel;
//   * MD5 — RFC 1321 Appendix A.5 test suite;
//   * HMAC-MD5 / HMAC-SHA1 — RFC 2202 test cases.
//
// These pin the implementations to published constants; the structured
// sweeps and fuzz tests elsewhere only prove internal consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "aes_ref.h"
#include "crypto/aes.h"
#include "crypto/des.h"
#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "des_ref.h"
#include "kernels/aes_kernel.h"
#include "kernels/des_kernel.h"
#include "kernels/sha1_kernel.h"
#include "support/hex.h"

namespace wsp {
namespace {

std::vector<std::uint8_t> ascii(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

template <typename Container>
std::string hex(const Container& c) {
  return to_hex(std::vector<std::uint8_t>(c.begin(), c.end()));
}

// --- AES (FIPS-197) --------------------------------------------------------

struct AesVector {
  const char* key;
  const char* plaintext;
  const char* ciphertext;
};

// Appendix B worked example plus Appendix C.1/C.2/C.3.
const AesVector kAesVectors[] = {
    {"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32"},
    {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"},
    {"000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff",
     "dda97ca4864cdfe06eaf70a0ec0d7191"},
    {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff",
     "8ea2b7ca516745bfeafc49904b496089"},
};

TEST(KatAes, Fips197HostRefAndTtable) {
  for (const AesVector& v : kAesVectors) {
    const auto key = from_hex(v.key);
    const auto pt = from_hex(v.plaintext);
    const auto ks = aes::key_schedule(key);
    std::uint8_t ct[16], back[16];

    aes_ref::encrypt_block(pt.data(), ct, ks);
    EXPECT_EQ(to_hex(ct, 16), v.ciphertext) << "ref keylen=" << key.size();
    aes_ref::decrypt_block(ct, back, ks);
    EXPECT_EQ(to_hex(back, 16), v.plaintext) << "ref keylen=" << key.size();

    aes::encrypt_block(pt.data(), ct, ks);
    EXPECT_EQ(to_hex(ct, 16), v.ciphertext) << "ttable keylen=" << key.size();
    aes::decrypt_block(ct, back, ks);
    EXPECT_EQ(to_hex(back, 16), v.plaintext) << "ttable keylen=" << key.size();
  }
}

TEST(KatAes, Fips197IssKernelAllKeySizes) {
  kernels::Machine m = kernels::make_aes_machine(kernels::AesKernelVariant::kBase);
  kernels::AesKernel k(m, kernels::AesKernelVariant::kBase);
  for (const AesVector& v : kAesVectors) {
    k.set_key(from_hex(v.key));
    EXPECT_EQ(to_hex(k.encrypt_block(from_hex(v.plaintext))), v.ciphertext)
        << "keylen=" << from_hex(v.key).size();
  }
}

// --- DES (FIPS-81 / NBS known-answer vectors) ------------------------------

struct DesVector {
  std::uint64_t key;
  std::uint64_t plaintext;
  std::uint64_t ciphertext;
};

const DesVector kDesVectors[] = {
    // FIPS-81 ECB sample: key 0123456789abcdef, "Now is t".
    {0x0123456789abcdefULL, 0x4e6f772069732074ULL, 0x3fa40e8a984d4815ULL},
    // NBS known-answer classics.
    {0x0000000000000000ULL, 0x0000000000000000ULL, 0x8ca64de9c1b123a7ULL},
    {0xffffffffffffffffULL, 0xffffffffffffffffULL, 0x7359b2163e4edc58ULL},
    {0x3000000000000000ULL, 0x1000000000000001ULL, 0x958e6e627a05557bULL},
};

TEST(KatDes, Fips81HostRefAndSpTables) {
  for (const DesVector& v : kDesVectors) {
    const auto ks = des::key_schedule(v.key);
    EXPECT_EQ(des_ref::encrypt_block(v.plaintext, ks), v.ciphertext);
    EXPECT_EQ(des_ref::decrypt_block(v.ciphertext, ks), v.plaintext);
    EXPECT_EQ(des::encrypt_block(v.plaintext, ks), v.ciphertext);
    EXPECT_EQ(des::decrypt_block(v.ciphertext, ks), v.plaintext);
  }
}

TEST(KatDes, TripleDesDegeneratesToSingleDes) {
  // EDE with K1 = K2 = K3 is single DES — run the FIPS-81 vector through it.
  const auto ks3 = des::triple_key_schedule(0x0123456789abcdefULL,
                                            0x0123456789abcdefULL,
                                            0x0123456789abcdefULL);
  EXPECT_EQ(des::encrypt_block_3des(0x4e6f772069732074ULL, ks3),
            0x3fa40e8a984d4815ULL);
  EXPECT_EQ(des::decrypt_block_3des(0x3fa40e8a984d4815ULL, ks3),
            0x4e6f772069732074ULL);
}

TEST(KatDes, Fips81IssKernelBaseAndTie) {
  kernels::Machine bm = kernels::make_des_machine(false);
  kernels::Machine tm = kernels::make_des_machine(true);
  kernels::DesKernel bk(bm, false), tk(tm, true);
  for (const DesVector& v : kDesVectors) {
    bk.set_key(v.key);
    tk.set_key(v.key);
    EXPECT_EQ(bk.encrypt_block(v.plaintext), v.ciphertext);
    EXPECT_EQ(tk.encrypt_block(v.plaintext), v.ciphertext);
    EXPECT_EQ(bk.decrypt_block(v.ciphertext), v.plaintext);
    EXPECT_EQ(tk.decrypt_block(v.ciphertext), v.plaintext);
  }
}

// --- SHA-1 (FIPS 180) ------------------------------------------------------

TEST(KatSha1, Fips180Examples) {
  EXPECT_EQ(hex(Sha1::hash(ascii("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex(Sha1::hash(ascii(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex(Sha1::hash(ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(KatSha1, MillionAs) {
  std::vector<std::uint8_t> data(1000000, 'a');
  EXPECT_EQ(hex(Sha1::hash(data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(KatSha1, IssKernelMatchesFips180) {
  kernels::Machine m = kernels::make_sha1_machine();
  kernels::Sha1Kernel k(m);
  EXPECT_EQ(hex(k.hash(ascii("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex(k.hash(ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

// --- MD5 (RFC 1321 A.5) ----------------------------------------------------

TEST(KatMd5, Rfc1321TestSuite) {
  const std::pair<const char*, const char*> vectors[] = {
      {"", "d41d8cd98f00b204e9800998ecf8427e"},
      {"a", "0cc175b9c0f1b6a831c399e269772661"},
      {"abc", "900150983cd24fb0d6963f7d28e17f72"},
      {"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
      {"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
      {"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
       "d174ab98d277d9f5a5611c2c9f419d9f"},
      {"1234567890123456789012345678901234567890123456789012345678901234567890"
       "1234567890",
       "57edf4a22be3c955ac49da2e2107b67a"},
  };
  for (const auto& [msg, want] : vectors) {
    EXPECT_EQ(hex(Md5::hash(ascii(msg))), want) << "msg=\"" << msg << "\"";
  }
}

// --- HMAC (RFC 2202) -------------------------------------------------------

TEST(KatHmac, Rfc2202Md5) {
  EXPECT_EQ(to_hex(hmac_md5(std::vector<std::uint8_t>(16, 0x0b),
                            ascii("Hi There"))),
            "9294727a3638bb1c13f48ef8158bfc9d");
  EXPECT_EQ(to_hex(hmac_md5(ascii("Jefe"),
                            ascii("what do ya want for nothing?"))),
            "750c783e6ab0b503eaa86e310a5db738");
  EXPECT_EQ(to_hex(hmac_md5(std::vector<std::uint8_t>(16, 0xaa),
                            std::vector<std::uint8_t>(50, 0xdd))),
            "56be34521d144c88dbb8c733f0e8b3f6");
  EXPECT_EQ(to_hex(hmac_md5(from_hex("0102030405060708090a0b0c0d0e0f10111213"
                                     "141516171819"),
                            std::vector<std::uint8_t>(50, 0xcd))),
            "697eaf0aca3a3aea3a75164746ffaa79");
  // Test 6: key larger than one hash block.
  EXPECT_EQ(to_hex(hmac_md5(
                std::vector<std::uint8_t>(80, 0xaa),
                ascii("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd");
}

TEST(KatHmac, Rfc2202Sha1) {
  EXPECT_EQ(to_hex(hmac_sha1(std::vector<std::uint8_t>(20, 0x0b),
                             ascii("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  EXPECT_EQ(to_hex(hmac_sha1(ascii("Jefe"),
                             ascii("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
  EXPECT_EQ(to_hex(hmac_sha1(std::vector<std::uint8_t>(20, 0xaa),
                             std::vector<std::uint8_t>(50, 0xdd))),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
  EXPECT_EQ(to_hex(hmac_sha1(from_hex("0102030405060708090a0b0c0d0e0f1011121"
                                      "3141516171819"),
                             std::vector<std::uint8_t>(50, 0xcd))),
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da");
  EXPECT_EQ(to_hex(hmac_sha1(
                std::vector<std::uint8_t>(80, 0xaa),
                ascii("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

}  // namespace
}  // namespace wsp

// Functional SSL-style channel: handshake, record protection across all
// cipher suites, tamper detection, and the transaction cost model.
#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/des.h"
#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "aes_ref.h"
#include "des_ref.h"
#include "rc4_ref.h"
#include "ssl/ssl.h"
#include "ssl/workload.h"

namespace wsp {
namespace {

using ssl::Cipher;
using ssl::perform_handshake;

const rsa::PrivateKey& server_key() {
  static const rsa::PrivateKey key = [] {
    Rng rng(431);
    return rsa::generate_key(512, rng);
  }();
  return key;
}

class SslCipherTest : public ::testing::TestWithParam<Cipher> {};

TEST_P(SslCipherTest, HandshakeAndBidirectionalTransfer) {
  Rng rng(432);
  ModexpEngine client_engine{ModexpConfig{}};
  ModexpEngine server_engine{ModexpConfig{}};
  auto hs = perform_handshake(server_key(), GetParam(), client_engine,
                              server_engine, rng);
  EXPECT_EQ(hs.master_secret.size(), 48u);
  EXPECT_GT(hs.handshake_bytes, 100u);

  const std::vector<std::uint8_t> req = {'G', 'E', 'T', ' ', '/'};
  const auto wire1 = hs.client_write.seal(req);
  EXPECT_NE(wire1, req);
  EXPECT_EQ(hs.client_write.open(wire1), req);

  const auto resp = Rng(433).bytes(3000);
  const auto wire2 = hs.server_write.seal(resp);
  EXPECT_EQ(hs.server_write.open(wire2), resp);
}

TEST_P(SslCipherTest, SequencedRecordsDecryptInOrder) {
  Rng rng(434);
  ModexpEngine ce{ModexpConfig{}}, se{ModexpConfig{}};
  auto hs = perform_handshake(server_key(), GetParam(), ce, se, rng);
  std::vector<std::vector<std::uint8_t>> wires;
  for (int i = 0; i < 5; ++i) {
    wires.push_back(hs.client_write.seal({static_cast<std::uint8_t>(i), 42}));
  }
  for (int i = 0; i < 5; ++i) {
    const auto p = hs.client_write.open(wires[static_cast<std::size_t>(i)]);
    EXPECT_EQ(p[0], i);
  }
}

TEST_P(SslCipherTest, TamperedRecordRejected) {
  Rng rng(435);
  ModexpEngine ce{ModexpConfig{}}, se{ModexpConfig{}};
  auto hs = perform_handshake(server_key(), GetParam(), ce, se, rng);
  auto wire = hs.client_write.seal({1, 2, 3, 4, 5, 6, 7, 8});
  wire[2] ^= 0x80;
  EXPECT_THROW(hs.client_write.open(wire), std::runtime_error);
}

// Regression for the MAC timing side-channel fix: a forged record whose
// length is valid but whose MAC bytes differ (here: the last wire byte,
// which under RC4 maps 1:1 onto the last MAC byte) must be rejected by the
// constant-time comparison — including when only the final byte differs,
// the case an early-exit compare leaks fastest.
TEST(SslCtCompare, MacOnlyForgeryRejected) {
  Rng rng(436);
  ModexpEngine ce{ModexpConfig{}}, se{ModexpConfig{}};
  auto hs = perform_handshake(server_key(), Cipher::kRc4, ce, se, rng);
  auto wire = hs.client_write.seal({9, 9, 9, 9});
  wire.back() ^= 0x01;  // payload intact, MAC tail flipped
  EXPECT_THROW(hs.client_write.open(wire), std::runtime_error);
}

TEST(SslCipherProfile, MatchesSuiteKeySizes) {
  EXPECT_EQ(ssl::cipher_profile(Cipher::kTripleDesCbc).key_len, 24u);
  EXPECT_EQ(ssl::cipher_profile(Cipher::kTripleDesCbc).iv_len, 8u);
  EXPECT_EQ(ssl::cipher_profile(Cipher::kAes128Cbc).key_len, 16u);
  EXPECT_EQ(ssl::cipher_profile(Cipher::kAes128Cbc).iv_len, 16u);
  EXPECT_EQ(ssl::cipher_profile(Cipher::kRc4).key_len, 16u);
  EXPECT_EQ(ssl::cipher_profile(Cipher::kRc4).iv_len, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ciphers, SslCipherTest,
                         ::testing::Values(Cipher::kTripleDesCbc,
                                           Cipher::kAes128Cbc, Cipher::kRc4),
                         [](const ::testing::TestParamInfo<Cipher>& info) {
                           switch (info.param) {
                             case Cipher::kTripleDesCbc: return "des3";
                             case Cipher::kAes128Cbc: return "aes";
                             case Cipher::kRc4: return "rc4";
                           }
                           return "?";
                         });

// --- record layer against the reference block functions --------------------

// The plaintext of one record as the record layer builds it: payload, then
// HMAC-SHA1 over (sequence, type 0x17, length, payload).
std::vector<std::uint8_t> reference_mac_plain(const std::vector<std::uint8_t>& mac_key,
                                              std::uint64_t seq,
                                              const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> mac_in;
  for (int i = 7; i >= 0; --i) mac_in.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
  mac_in.push_back(0x17);
  mac_in.push_back(static_cast<std::uint8_t>(payload.size() >> 8));
  mac_in.push_back(static_cast<std::uint8_t>(payload.size()));
  mac_in.insert(mac_in.end(), payload.begin(), payload.end());
  std::vector<std::uint8_t> plain = payload;
  const auto mac = hmac_sha1(mac_key, mac_in);
  plain.insert(plain.end(), mac.begin(), mac.end());
  return plain;
}

// The CBC plaintext: the MAC'd payload padded to the block size with the
// pad length as every pad byte.
std::vector<std::uint8_t> reference_record_plain(const std::vector<std::uint8_t>& mac_key,
                                                 std::uint64_t seq,
                                                 const std::vector<std::uint8_t>& payload,
                                                 std::size_t block) {
  std::vector<std::uint8_t> plain = reference_mac_plain(mac_key, seq, payload);
  const std::size_t pad = block - plain.size() % block;
  plain.insert(plain.end(), pad, static_cast<std::uint8_t>(pad));
  return plain;
}

// Seals many records on one channel and checks every one against CBC built
// from the *_ref blocks, with the IV residue carried between records.  This
// pins the per-channel key-schedule cache and the fast block bodies byte
// for byte; the same channel then opens its own records.
void expect_records_match_reference(Cipher cipher, std::uint64_t seed) {
  Rng rng(seed);
  const auto profile = ssl::cipher_profile(cipher);
  const auto key = rng.bytes(profile.key_len);
  const auto mac_key = rng.bytes(20);
  auto chain = rng.bytes(profile.iv_len);
  ssl::SecureChannel channel(cipher, key, mac_key, chain);
  const auto load = [](const std::uint8_t* p) { return des::load_be64(p); };
  const des::TripleKeySchedule des3 =
      cipher == Cipher::kTripleDesCbc
          ? des::triple_key_schedule(load(key.data()), load(key.data() + 8),
                                     load(key.data() + 16))
          : des::TripleKeySchedule{};
  const aes::KeySchedule aes_ks =
      cipher == Cipher::kAes128Cbc ? aes::key_schedule(key) : aes::KeySchedule{};
  std::vector<std::vector<std::uint8_t>> payloads, records;
  for (std::uint64_t seq = 0; seq < 60; ++seq) {
    const auto payload = rng.bytes(static_cast<std::size_t>(rng.below(701)));
    const auto plain = reference_record_plain(mac_key, seq, payload, profile.iv_len);
    std::vector<std::uint8_t> want(plain.size());
    for (std::size_t i = 0; i < plain.size(); i += profile.iv_len) {
      std::uint8_t x[16];
      for (std::size_t b = 0; b < profile.iv_len; ++b) x[b] = plain[i + b] ^ chain[b];
      if (cipher == Cipher::kTripleDesCbc) {
        std::uint64_t c = des_ref::encrypt_block(load(x), des3.k1);
        c = des_ref::decrypt_block(c, des3.k2);
        c = des_ref::encrypt_block(c, des3.k3);
        des::store_be64(c, want.data() + i);
      } else {
        aes_ref::encrypt_block(x, want.data() + i, aes_ks);
      }
      chain.assign(want.begin() + static_cast<std::ptrdiff_t>(i),
                   want.begin() + static_cast<std::ptrdiff_t>(i + profile.iv_len));
    }
    const auto sealed = channel.seal(payload);
    ASSERT_EQ(sealed, want) << ssl::to_string(cipher) << " record " << seq;
    payloads.push_back(payload);
    records.push_back(sealed);
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(channel.open(records[i]), payloads[i]) << "record " << i;
  }
}

TEST(SslRecordOracle, TripleDesRecordsMatchReferenceCbc) {
  expect_records_match_reference(Cipher::kTripleDesCbc, 441);
}

// Every payload length 0..80 on each CBC cipher: a padded 3DES record of
// 3..13 blocks, so the record layer's CBC decryption meets every 4-block
// tail, and an AES record of 2..7 blocks.  Each record is opened right
// after it is sealed, the order Session::pump uses.
TEST(SslRecordOracle, CbcSealOpenAtEveryLength) {
  Rng rng(445);
  for (const Cipher cipher : {Cipher::kTripleDesCbc, Cipher::kAes128Cbc}) {
    const auto profile = ssl::cipher_profile(cipher);
    const std::size_t block = profile.iv_len;
    const auto key = rng.bytes(profile.key_len);
    const auto mac_key = rng.bytes(20);
    const auto iv = rng.bytes(block);
    ssl::SecureChannel channel(cipher, key, mac_key, iv);
    for (std::size_t len = 0; len <= 80; ++len) {
      const auto payload = rng.bytes(len);
      const auto sealed = channel.seal(payload);
      EXPECT_EQ(sealed.size(), (len + 20) / block * block + block)
          << ssl::to_string(cipher) << " len=" << len;
      EXPECT_EQ(channel.open(sealed), payload) << ssl::to_string(cipher) << " len=" << len;
    }
  }
}

// A channel whose residue differs (same keys, another IV) decrypts the
// first block wrong, so the MAC check fails.
TEST(SslRecordOracle, TripleDesWrongResidueFailsOpen) {
  Rng rng(446);
  const auto key = rng.bytes(24);
  const auto mac_key = rng.bytes(20);
  auto iv = rng.bytes(8);
  ssl::SecureChannel sealer(Cipher::kTripleDesCbc, key, mac_key, iv);
  iv[7] ^= 0x01;
  ssl::SecureChannel opener(Cipher::kTripleDesCbc, key, mac_key, iv);
  const auto sealed = sealer.seal(rng.bytes(41));
  EXPECT_THROW(opener.open(sealed), std::runtime_error);
}

TEST(SslRecordOracle, AesRecordsMatchReferenceCbc) {
  expect_records_match_reference(Cipher::kAes128Cbc, 442);
}

// RC4 records: payload || MAC XOR'd with one keystream that continues
// across records, checked against the byte-state reference RC4
// (rc4_ref.h), not the class under test.  This pins the 32-bit-state Rc4,
// the one key setup both directions share, the in-place seal and the
// per-channel MAC key state (its sequence numbers and its reuse across
// records) against a fresh hmac_sha1 per record.  With `interleave` each
// record is opened right after it is sealed, the order Session::pump uses;
// otherwise every record is sealed before the first is opened.
void expect_rc4_records_match_reference(std::uint64_t seed, bool interleave) {
  Rng rng(seed);
  const auto key = rng.bytes(ssl::cipher_profile(Cipher::kRc4).key_len);
  const auto mac_key = rng.bytes(20);
  ssl::SecureChannel channel(Cipher::kRc4, key, mac_key, {});
  Rc4Ref keystream(key);
  std::vector<std::vector<std::uint8_t>> payloads, records;
  for (std::uint64_t seq = 0; seq < 60; ++seq) {
    const auto payload = rng.bytes(static_cast<std::size_t>(rng.below(601)));
    const auto want = keystream.process(reference_mac_plain(mac_key, seq, payload));
    const auto sealed = channel.seal(payload);
    ASSERT_EQ(sealed, want) << "record " << seq;
    if (interleave) {
      EXPECT_EQ(channel.open(sealed), payload) << "record " << seq;
    } else {
      payloads.push_back(payload);
      records.push_back(sealed);
    }
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(channel.open(records[i]), payloads[i]) << "record " << i;
  }
}

TEST(SslRecordOracle, Rc4RecordsMatchReference) {
  expect_rc4_records_match_reference(443, /*interleave=*/false);
}

TEST(SslRecordOracle, Rc4InterleavedSealOpenMatchesReference) {
  expect_rc4_records_match_reference(446, /*interleave=*/true);
}

// A channel whose first RC4 use is an open: the key setup then runs on
// the decrypt side, and the sealing side must still start at keystream
// byte 0 and sequence number 0.
TEST(SslRecordOracle, Rc4ChannelOpensBeforeItSeals) {
  Rng rng(447);
  const auto key = rng.bytes(ssl::cipher_profile(Cipher::kRc4).key_len);
  const auto mac_key = rng.bytes(20);
  Rc4Ref keystream(key);
  std::vector<std::vector<std::uint8_t>> payloads, records;
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    payloads.push_back(rng.bytes(static_cast<std::size_t>(rng.below(601))));
    records.push_back(keystream.process(reference_mac_plain(mac_key, seq, payloads.back())));
  }
  ssl::SecureChannel channel(Cipher::kRc4, key, mac_key, {});
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(channel.open(records[i]), payloads[i]) << "record " << i;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(channel.seal(payloads[i]), records[i]) << "record " << i;
  }
}

// Key material of the wrong size used to be accepted and then read past
// its end on the first seal; the constructor now rejects it up front.
TEST(SslChannelKeySizes, WrongKeyOrIvSizeRejected) {
  Rng rng(444);
  const auto mac_key = rng.bytes(20);
  for (const Cipher cipher : {Cipher::kTripleDesCbc, Cipher::kAes128Cbc, Cipher::kRc4}) {
    SCOPED_TRACE(ssl::to_string(cipher));
    const auto profile = ssl::cipher_profile(cipher);
    const auto key = rng.bytes(profile.key_len);
    const auto iv = rng.bytes(profile.iv_len);
    EXPECT_THROW(ssl::SecureChannel(cipher, rng.bytes(profile.key_len - 1), mac_key, iv),
                 std::invalid_argument);
    EXPECT_THROW(ssl::SecureChannel(cipher, rng.bytes(profile.key_len + 1), mac_key, iv),
                 std::invalid_argument);
    if (profile.iv_len > 0) {
      EXPECT_THROW(ssl::SecureChannel(cipher, key, mac_key, rng.bytes(profile.iv_len - 1)),
                   std::invalid_argument);
    }
    EXPECT_THROW(ssl::SecureChannel(cipher, key, mac_key, rng.bytes(profile.iv_len + 1)),
                 std::invalid_argument);
    ssl::SecureChannel channel(cipher, key, mac_key, iv);
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    EXPECT_EQ(channel.open(channel.seal(payload)), payload);
  }
}

// kdf_ssl3 against the SSLv3 formula written out one round at a time:
// block r = MD5(secret || SHA1(salt_r || secret || r1 || r2)), salt_r being
// r copies of the r-th capital letter.
TEST(SslKdf, MatchesSsl3Formula) {
  Rng rng(445);
  const auto secret = rng.bytes(48), r1 = rng.bytes(32), r2 = rng.bytes(32);
  std::vector<std::uint8_t> chain;
  for (int round = 1; round <= 26; ++round) {
    std::vector<std::uint8_t> inner(static_cast<std::size_t>(round),
                                    static_cast<std::uint8_t>('A' + round - 1));
    inner.insert(inner.end(), secret.begin(), secret.end());
    inner.insert(inner.end(), r1.begin(), r1.end());
    inner.insert(inner.end(), r2.begin(), r2.end());
    const auto inner_digest = Sha1::hash(inner);
    std::vector<std::uint8_t> outer = secret;
    outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
    const auto block = Md5::hash(outer);
    chain.insert(chain.end(), block.begin(), block.end());
  }
  ASSERT_EQ(chain.size(), 416u);
  for (const std::size_t len : {1, 48, 72, 104, 416}) {
    const std::vector<std::uint8_t> want(chain.begin(),
                                         chain.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(ssl::kdf_ssl3(secret, r1, r2, len), want) << "length " << len;
  }
  // Round 27 would salt past 'Z': no longer SSLv3, so it is refused.
  EXPECT_THROW(ssl::kdf_ssl3(secret, r1, r2, 417), std::invalid_argument);
}

TEST(SslKdf, DeterministicAndLengthExact) {
  const std::vector<std::uint8_t> secret(48, 0x11), r1(32, 0x22), r2(32, 0x33);
  const auto a = ssl::kdf_ssl3(secret, r1, r2, 104);
  const auto b = ssl::kdf_ssl3(secret, r1, r2, 104);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 104u);
  // Different randoms must give different keys.
  EXPECT_NE(a, ssl::kdf_ssl3(secret, r2, r1, 104));
}

TEST(SslWorkload, BreakdownShiftsWithTransactionSize) {
  ssl::PlatformCosts base = ssl::misc_cost_defaults();
  base.rsa_private_cycles = 60e6;
  base.rsa_public_cycles = 1e6;
  base.symmetric_cycles_per_byte = 1400.0;
  const auto small = ssl::transaction_cost(base, 1024);
  const auto large = ssl::transaction_cost(base, 32 * 1024);
  EXPECT_GT(small.public_key_fraction(), large.public_key_fraction());
  EXPECT_LT(small.symmetric_fraction(), large.symmetric_fraction());
  EXPECT_NEAR(small.public_key_fraction() + small.symmetric_fraction() +
                  small.misc_fraction(),
              1.0, 1e-9);
}

TEST(SslWorkload, SpeedupDecreasesWithSizeWhenPkDominatesGains) {
  ssl::PlatformCosts base = ssl::misc_cost_defaults();
  base.rsa_private_cycles = 60e6;
  base.rsa_public_cycles = 1e6;
  base.symmetric_cycles_per_byte = 1400.0;
  ssl::PlatformCosts opt = ssl::misc_cost_defaults();  // misc unchanged
  opt.rsa_private_cycles = 60e6 / 50.0;
  opt.rsa_public_cycles = 1e6 / 10.0;
  opt.symmetric_cycles_per_byte = 1400.0 / 30.0;
  const auto rows =
      ssl::ssl_speedup_table(base, opt, {1024, 4096, 16384, 32768});
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i].speedup, rows[i - 1].speedup)
        << "speedup must fall as unaccelerated misc grows";
  }
  EXPECT_GT(rows.front().speedup, 5.0);
  EXPECT_GT(rows.back().speedup, 1.0);
  const std::string table = ssl::format_speedup_table(rows);
  EXPECT_NE(table.find("1KB"), std::string::npos);
  EXPECT_NE(table.find("X"), std::string::npos);
}

}  // namespace
}  // namespace wsp

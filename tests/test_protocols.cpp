// CRC-32 and the WEP / IPsec-ESP protocol layers — the paper's
// "different layers of the protocol stack" claim: the same platform
// primitives serving link-, network- and transport-layer protocols.
// Includes the tamper-recovery suite (docs/faults.md): a corrupted
// transmission is rejected, and a clean retransmission — after rekeying
// where the channel state desynced — verifies; repair never silently
// accepts corrupted bytes.
#include <gtest/gtest.h>

#include "crypto/crc32.h"
#include "crypto/ct.h"
#include "crypto/des.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "des_ref.h"
#include "ssl/esp.h"
#include "ssl/ssl.h"
#include "ssl/wep.h"

namespace wsp {
namespace {

TEST(CtEqual, AgreesWithOperatorEq) {
  Rng rng(520);
  const auto a = rng.bytes(64);
  auto b = a;
  EXPECT_TRUE(ct::equal(a, b));
  b[63] ^= 0x01;  // last-byte difference: the case early exit leaks fastest
  EXPECT_FALSE(ct::equal(a, b));
  b = a;
  b[0] ^= 0x80;
  EXPECT_FALSE(ct::equal(a, b));
}

TEST(CtEqual, SizeMismatchAndEmpty) {
  const std::vector<std::uint8_t> a = {1, 2, 3}, b = {1, 2};
  EXPECT_FALSE(ct::equal(a, b));
  EXPECT_TRUE(ct::equal(std::vector<std::uint8_t>{}, std::vector<std::uint8_t>{}));
  EXPECT_TRUE(ct::equal(a.data(), a.data(), 0));
}

TEST(Crc32, KnownVectors) {
  const std::vector<std::uint8_t> check = {'1', '2', '3', '4', '5',
                                           '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32(std::vector<std::uint8_t>{}), 0x00000000u);
  const std::vector<std::uint8_t> a = {'a'};
  EXPECT_EQ(crc32(a), 0xE8B7BE43u);
}

TEST(Crc32, DetectsBitFlips) {
  Rng rng(511);
  auto data = rng.bytes(256);
  const std::uint32_t before = crc32(data);
  data[100] ^= 0x01;
  EXPECT_NE(crc32(data), before);
}

TEST(Wep, SealOpenRoundTrip) {
  Rng rng(512);
  const auto key = rng.bytes(13);  // WEP-104
  for (std::size_t len : {1u, 64u, 1500u}) {
    const auto payload = rng.bytes(len);
    const auto frame = wep::seal(payload, key, rng);
    EXPECT_LE(frame.iv, 0xFFFFFFu);
    EXPECT_EQ(frame.ciphertext.size(), len + 4);
    EXPECT_NE(frame.ciphertext, payload);
    EXPECT_EQ(wep::open(frame, key), payload);
  }
}

TEST(Wep, Wep40KeysSupported) {
  Rng rng(513);
  const auto key = rng.bytes(5);
  const auto payload = rng.bytes(100);
  const auto frame = wep::seal(payload, key, rng);
  EXPECT_EQ(wep::open(frame, key), payload);
}

TEST(Wep, CorruptionDetected) {
  Rng rng(514);
  const auto key = rng.bytes(13);
  auto frame = wep::seal(rng.bytes(64), key, rng);
  frame.ciphertext[10] ^= 0x40;
  EXPECT_THROW(wep::open(frame, key), std::runtime_error);
}

TEST(Wep, IcvOnlyForgeryRejected) {
  // The trailing 4 ciphertext bytes carry the ICV; flip only its last byte.
  Rng rng(521);
  const auto key = rng.bytes(13);
  auto frame = wep::seal(rng.bytes(64), key, rng);
  frame.ciphertext.back() ^= 0x01;
  EXPECT_THROW(wep::open(frame, key), std::runtime_error);
}

TEST(Wep, WrongKeyRejectedByIcv) {
  Rng rng(515);
  const auto key = rng.bytes(13);
  auto other = key;
  other[0] ^= 1;
  const auto frame = wep::seal(rng.bytes(64), key, rng);
  EXPECT_THROW(wep::open(frame, other), std::runtime_error);
}

TEST(Wep, BadKeyLengthRejected) {
  Rng rng(516);
  EXPECT_THROW(wep::seal({1, 2, 3}, rng.bytes(7), rng), std::invalid_argument);
}

class EspTest : public ::testing::Test {
 protected:
  static esp::Sa make_sa() {
    Rng rng(517);
    const auto enc_key = rng.bytes(24);
    const auto auth_key = rng.bytes(20);
    return esp::Sa(0x1001, enc_key, auth_key);
  }
  esp::Sa sa_ = make_sa();
  Rng rng_{518};
};

TEST_F(EspTest, SealOpenRoundTripVariousSizes) {
  // 0..7 B pad to one ciphertext block, 8..15 to two, ..., 32..39 to five,
  // so the short lengths meet every tail of the 4-block CBC decryption.
  for (std::size_t len : {0u, 1u, 7u, 8u, 15u, 16u, 23u, 24u, 31u, 32u, 39u,
                          100u, 1400u}) {
    esp::Sa receiver = sa_;
    const auto payload = rng_.bytes(len);
    const auto packet = esp::seal(sa_, payload, rng_);
    std::uint32_t seq = 0;
    EXPECT_EQ(esp::open(receiver, packet, &seq), payload) << "len=" << len;
    EXPECT_EQ(seq, sa_.seq);
  }
}

// Each packet against one built from the bitwise 3DES reference and a fresh
// hmac_sha1 over spi || seq || iv || ciphertext, the IV drawn from a copy of
// the sealing Rng.  This pins the SA's key schedule and MAC key state and
// the in-place seal byte for byte.
TEST_F(EspTest, SealMatchesReference) {
  Rng keys(517);
  const auto enc_key = keys.bytes(24);
  const auto auth_key = keys.bytes(20);
  const auto ks = des::triple_key_schedule(des::load_be64(enc_key.data()),
                                           des::load_be64(enc_key.data() + 8),
                                           des::load_be64(enc_key.data() + 16));
  for (std::size_t len : {0u, 1u, 7u, 8u, 15u, 16u, 23u, 24u, 31u, 32u, 39u,
                          100u, 1400u}) {
    const auto payload = rng_.bytes(len);
    Rng iv_rng = rng_;
    std::uint64_t chain = iv_rng.next_u64();
    const auto packet = esp::seal(sa_, payload, rng_);

    std::vector<std::uint8_t> want(16);
    for (int i = 0; i < 4; ++i) {
      want[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(sa_.spi >> (24 - 8 * i));
      want[static_cast<std::size_t>(4 + i)] = static_cast<std::uint8_t>(sa_.seq >> (24 - 8 * i));
    }
    des::store_be64(chain, want.data() + 8);
    auto plain = payload;
    const std::size_t pad = (8 - (len + 1) % 8) % 8;
    plain.insert(plain.end(), pad, 0);
    plain.push_back(static_cast<std::uint8_t>(pad));
    for (std::size_t i = 0; i < plain.size(); i += 8) {
      chain = des_ref::encrypt_block(
          des_ref::decrypt_block(
              des_ref::encrypt_block(des::load_be64(plain.data() + i) ^ chain, ks.k1),
              ks.k2),
          ks.k3);
      want.resize(want.size() + 8);
      des::store_be64(chain, want.data() + want.size() - 8);
    }
    const auto icv = hmac_sha1(auth_key, want);
    want.insert(want.end(), icv.begin(), icv.begin() + 12);
    EXPECT_EQ(packet, want) << "len=" << len;
  }
}

TEST(Esp, SaRejectsBadKeyLength) {
  EXPECT_THROW(esp::Sa(1, std::vector<std::uint8_t>(16), std::vector<std::uint8_t>(20)),
               std::invalid_argument);
}

TEST_F(EspTest, SequenceNumbersIncrease) {
  std::uint32_t s1 = 0, s2 = 0;
  const auto p1 = esp::seal(sa_, {1}, rng_);
  const auto p2 = esp::seal(sa_, {2}, rng_);
  esp::open(sa_, p1, &s1);
  esp::open(sa_, p2, &s2);
  EXPECT_EQ(s2, s1 + 1);
}

TEST_F(EspTest, TamperingRejected) {
  auto packet = esp::seal(sa_, rng_.bytes(64), rng_);
  packet[20] ^= 0x80;
  EXPECT_THROW(esp::open(sa_, packet, nullptr), std::runtime_error);
}

TEST_F(EspTest, IcvOnlyForgeryRejected) {
  // Body intact, last ICV byte flipped: exercises the constant-time tail.
  auto packet = esp::seal(sa_, rng_.bytes(64), rng_);
  packet.back() ^= 0x01;
  EXPECT_THROW(esp::open(sa_, packet, nullptr), std::runtime_error);
}

TEST_F(EspTest, WrongSpiRejected) {
  const auto packet = esp::seal(sa_, rng_.bytes(16), rng_);
  esp::Sa other = sa_;
  other.spi = 0x2002;
  EXPECT_THROW(esp::open(other, packet, nullptr), std::runtime_error);
}

TEST_F(EspTest, TruncatedPacketRejected) {
  auto packet = esp::seal(sa_, rng_.bytes(16), rng_);
  packet.resize(20);
  EXPECT_THROW(esp::open(sa_, packet, nullptr), std::runtime_error);
}

// --- Tamper-recovery: corruption -> rejection -> retransmit (+rekey) ----

/// Key material for one direction of a record channel, as the handshake's
/// key block would provide it.  make() mints an independent SecureChannel
/// over the CURRENT material (SecureChannel is a shared handle, so copying
/// one would alias its state machine); rekey() derives fresh material —
/// the protocol-layer shape of the server's repair ladder.
struct ChannelKeys {
  explicit ChannelKeys(ssl::Cipher cipher) : cipher_(cipher), rng_(777) {
    rekey();
  }

  void rekey() {
    key_ = rng_.bytes(ssl::cipher_profile(cipher_).key_len);
    mac_ = rng_.bytes(Sha1::kDigestSize);
    iv_ = rng_.bytes(ssl::cipher_profile(cipher_).iv_len);
  }

  ssl::SecureChannel make() const {
    return ssl::SecureChannel(cipher_, key_, mac_, iv_);
  }

  ssl::Cipher cipher_;
  Rng rng_;
  std::vector<std::uint8_t> key_, mac_, iv_;
};

// SSL record MAC, stream cipher: a tampered record is rejected, and the
// plain retransmission of the SAME payload verifies — sequence numbers and
// keystream stay aligned across the rejected record.
TEST(TamperRecovery, SslRc4RecordRecoversByRetransmit) {
  ChannelKeys ch(ssl::Cipher::kRc4);
  ssl::SecureChannel sender = ch.make();
  ssl::SecureChannel receiver = ch.make();
  Rng rng(900);
  const auto payload = rng.bytes(200);

  auto tampered = sender.seal(payload);
  tampered.back() ^= 0x01;
  EXPECT_THROW(receiver.open(tampered), std::runtime_error);

  // Retransmit: re-seal the same payload; it must verify AND match.
  const auto retransmit = sender.seal(payload);
  EXPECT_EQ(receiver.open(retransmit), payload);
}

// SSL record MAC, CBC ciphers: the tampered record desyncs the receiver's
// chaining state, so retransmission alone keeps failing — but re-deriving
// both channels (the rekey leg of the repair ladder) recovers the stream.
TEST(TamperRecovery, SslCbcRecordRecoversAfterRekey) {
  for (ssl::Cipher cipher :
       {ssl::Cipher::kAes128Cbc, ssl::Cipher::kTripleDesCbc}) {
    SCOPED_TRACE(static_cast<int>(cipher));
    ChannelKeys ch(cipher);
    ssl::SecureChannel sender = ch.make();
    ssl::SecureChannel receiver = ch.make();
    Rng rng(901);
    const auto payload = rng.bytes(200);

    auto tampered = sender.seal(payload);
    tampered.back() ^= 0x01;  // last block: poisons the chained IV too
    EXPECT_THROW(receiver.open(tampered), std::runtime_error);

    // Rekey: fresh key block, fresh channels both ends, clean retransmit.
    ch.rekey();
    ssl::SecureChannel sender2 = ch.make();
    ssl::SecureChannel receiver2 = ch.make();
    const auto retransmit = sender2.seal(payload);
    EXPECT_EQ(receiver2.open(retransmit), payload);
  }
}

// Repair must never silently accept corrupted bytes: every corrupted copy
// of the record is rejected even while clean retransmissions succeed.
TEST(TamperRecovery, SslRepairNeverAcceptsCorruptedBytes) {
  ChannelKeys ch(ssl::Cipher::kRc4);
  ssl::SecureChannel sender = ch.make();
  ssl::SecureChannel receiver = ch.make();
  Rng rng(902);
  const auto payload = rng.bytes(64);
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto wire = sender.seal(payload);
    wire.back() ^= static_cast<std::uint8_t>(1u << attempt);
    EXPECT_THROW(receiver.open(wire), std::runtime_error)
        << "attempt " << attempt;
  }
  EXPECT_EQ(receiver.open(sender.seal(payload)), payload);
}

// WEP ICV: frames are self-contained (IV on the wire), so recovery is pure
// retransmission — the corrupted frame is rejected, the re-sealed one
// opens, and the corrupted one STAYS rejected afterwards.
TEST(Wep, CorruptedFrameRecoversByRetransmit) {
  Rng rng(903);
  const auto key = rng.bytes(13);
  const auto payload = rng.bytes(128);
  auto frame = wep::seal(payload, key, rng);
  auto corrupted = frame;
  corrupted.ciphertext.back() ^= 0x10;  // ICV tail
  EXPECT_THROW(wep::open(corrupted, key), std::runtime_error);

  const auto retransmit = wep::seal(payload, key, rng);  // fresh IV
  EXPECT_EQ(wep::open(retransmit, key), payload);
  EXPECT_THROW(wep::open(corrupted, key), std::runtime_error)
      << "recovery must not whitelist the corrupted frame";
}

// ESP ICV: a tampered packet is rejected without disturbing the SA, so the
// retransmitted packet (next sequence number) verifies.
TEST_F(EspTest, CorruptedPacketRecoversByRetransmit) {
  const auto payload = rng_.bytes(96);
  auto packet = esp::seal(sa_, payload, rng_);
  auto corrupted = packet;
  corrupted.back() ^= 0x01;  // ICV tail
  EXPECT_THROW(esp::open(sa_, corrupted, nullptr), std::runtime_error);

  const auto retransmit = esp::seal(sa_, payload, rng_);
  std::uint32_t seq = 0;
  EXPECT_EQ(esp::open(sa_, retransmit, &seq), payload);
  EXPECT_EQ(seq, sa_.seq);
  EXPECT_THROW(esp::open(sa_, corrupted, nullptr), std::runtime_error)
      << "recovery must not whitelist the corrupted packet";
}

TEST_F(EspTest, IvRandomizesCiphertext) {
  const auto payload = rng_.bytes(32);
  const auto p1 = esp::seal(sa_, payload, rng_);
  const auto p2 = esp::seal(sa_, payload, rng_);
  // Different IVs => different ciphertext even for identical payloads.
  EXPECT_NE(std::vector<std::uint8_t>(p1.begin() + 16, p1.end() - 12),
            std::vector<std::uint8_t>(p2.begin() + 16, p2.end() - 12));
}

}  // namespace
}  // namespace wsp

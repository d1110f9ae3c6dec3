#include "ssl/ssl.h"

#include <cstring>
#include <optional>
#include <stdexcept>

#include "support/trace.h"

#include "crypto/aes.h"
#include "crypto/ct.h"
#include "crypto/des.h"
#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "crypto/rc4.h"
#include "crypto/sha1.h"

namespace wsp::ssl {

const char* to_string(Cipher cipher) {
  switch (cipher) {
    case Cipher::kTripleDesCbc: return "3DES-CBC";
    case Cipher::kAes128Cbc: return "AES-128-CBC";
    case Cipher::kRc4: return "RC4";
  }
  return "?";
}

namespace {

std::uint64_t load64(const std::vector<std::uint8_t>& v) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < 8 && i < v.size(); ++i) out = (out << 8) | v[i];
  return out;
}

std::vector<std::uint8_t> cbc_pad(std::vector<std::uint8_t> data, std::size_t block) {
  const std::size_t pad = block - (data.size() % block);
  data.insert(data.end(), pad, static_cast<std::uint8_t>(pad));
  return data;
}

std::vector<std::uint8_t> cbc_unpad(std::vector<std::uint8_t> data) {
  if (data.empty()) throw std::runtime_error("ssl: empty CBC plaintext");
  const std::uint8_t pad = data.back();
  if (pad == 0 || pad > data.size()) throw std::runtime_error("ssl: bad padding");
  for (std::size_t i = data.size() - pad; i < data.size(); ++i) {
    if (data[i] != pad) throw std::runtime_error("ssl: bad padding");
  }
  data.resize(data.size() - pad);
  return data;
}

}  // namespace

struct SecureChannel::Impl {
  Cipher cipher;
  std::vector<std::uint8_t> cipher_key;
  std::vector<std::uint8_t> mac_key;
  // The same channel object is shared by the sealing and the opening
  // endpoint (in-process transport), so each side keeps its own sequence
  // number and cipher chaining state.
  std::vector<std::uint8_t> iv_enc, iv_dec;
  std::uint64_t seq_out = 0, seq_in = 0;

  // Key schedules, derived on first use and shared by both directions: the
  // cipher key is fixed for the channel's lifetime.
  std::unique_ptr<aes::KeySchedule> aes_ks_cache;
  std::unique_ptr<des::TripleKeySchedule> des3_ks_cache;

  const aes::KeySchedule& cached_aes_ks() {
    if (!aes_ks_cache) {
      aes_ks_cache = std::make_unique<aes::KeySchedule>(aes::key_schedule(cipher_key));
    }
    return *aes_ks_cache;
  }

  const des::TripleKeySchedule& cached_des3_ks() {
    if (!des3_ks_cache) {
      // EDE with the key split in three 8-byte parts.
      des3_ks_cache = std::make_unique<des::TripleKeySchedule>(des::triple_key_schedule(
          load64({cipher_key.begin(), cipher_key.begin() + 8}),
          load64({cipher_key.begin() + 8, cipher_key.begin() + 16}),
          load64({cipher_key.begin() + 16, cipher_key.begin() + 24})));
    }
    return *des3_ks_cache;
  }

  // Both RC4 directions start from the same key: the key schedule runs
  // once, on first use of either direction, and the opening side starts
  // from a copy of it.  Each stream then persists across records.
  struct Rc4Pair {
    explicit Rc4Pair(const std::vector<std::uint8_t>& key) : enc(key), dec(enc) {}
    Rc4 enc, dec;
  };
  std::unique_ptr<Rc4Pair> rc4_cache;

  Rc4Pair& cached_rc4() {
    if (!rc4_cache) rc4_cache = std::make_unique<Rc4Pair>(cipher_key);
    return *rc4_cache;
  }

  // The MAC key state, built on first use like the key schedules above.
  std::optional<HmacSha1> mac_cache;

  const HmacSha1& cached_mac() {
    if (!mac_cache) mac_cache.emplace(mac_key);
    return *mac_cache;
  }

  // HMAC-SHA1 of one record: the 11-byte header (sequence number, type,
  // payload length) and the payload, fed straight into a copy of the
  // channel's keyed inner context.
  HmacSha1::Tag record_mac(std::uint64_t sequence, const std::uint8_t* payload,
                           std::size_t n) {
    std::uint8_t header[11];
    for (int i = 0; i < 8; ++i) header[i] = static_cast<std::uint8_t>(sequence >> (56 - 8 * i));
    header[8] = 0x17;  // application-data type
    header[9] = static_cast<std::uint8_t>(n >> 8);
    header[10] = static_cast<std::uint8_t>(n);
    const HmacSha1& key = cached_mac();
    Sha1 inner = key.start();
    inner.update(header, sizeof header);
    inner.update(payload, n);
    return key.finish(inner);
  }

  // Seal side: the payload with its MAC under the next outbound sequence
  // number appended.  The buffer is reserved for the MAC and the largest
  // CBC pad (one AES block), so neither appending nor padding regrows it.
  std::vector<std::uint8_t> append_mac(const std::vector<std::uint8_t>& payload) {
    WSP_TRACE_SPAN("ssl.record", "seal/mac");
    std::vector<std::uint8_t> plain;
    plain.reserve(payload.size() + Sha1::kDigestSize + 16);
    plain.assign(payload.begin(), payload.end());
    const auto mac = record_mac(seq_out++, payload.data(), payload.size());
    plain.insert(plain.end(), mac.begin(), mac.end());
    return plain;
  }

  // Open side: checks the trailing MAC under the next inbound sequence
  // number (consumed even when the check fails) and strips it.
  std::vector<std::uint8_t> verify_mac(std::vector<std::uint8_t> plain) {
    if (plain.size() < Sha1::kDigestSize) throw std::runtime_error("ssl: short record");
    WSP_TRACE_SPAN("ssl.record", "open/mac");
    const std::size_t n = plain.size() - Sha1::kDigestSize;
    const auto expect = record_mac(seq_in++, plain.data(), n);
    if (!ct::equal(plain.data() + n, expect.data(), expect.size())) {
      throw std::runtime_error("ssl: MAC verification failed");
    }
    plain.resize(n);
    return plain;
  }

  // Encrypts the MAC'd plaintext; 3DES-CBC and RC4 work in its buffer.
  std::vector<std::uint8_t> encrypt(std::vector<std::uint8_t> plain) {
    switch (cipher) {
      case Cipher::kTripleDesCbc: {
        const des::TripleKeySchedule& ks = cached_des3_ks();
        auto out = cbc_pad(std::move(plain), 8);
        std::uint64_t chain = load64(iv_enc);
        for (std::size_t i = 0; i < out.size(); i += 8) {
          chain = des::encrypt_block_3des(des::load_be64(out.data() + i) ^ chain, ks);
          des::store_be64(chain, out.data() + i);
        }
        iv_enc.assign(8, 0);
        des::store_be64(chain, iv_enc.data());  // CBC residue chaining
        return out;
      }
      case Cipher::kAes128Cbc: {
        const aes::KeySchedule& ks = cached_aes_ks();
        std::array<std::uint8_t, 16> aiv{};
        std::copy(iv_enc.begin(), iv_enc.begin() + 16, aiv.begin());
        const auto out = aes::encrypt_cbc(cbc_pad(std::move(plain), 16), ks, aiv);
        iv_enc.assign(out.end() - 16, out.end());
        return out;
      }
      case Cipher::kRc4: {
        cached_rc4().enc.process(plain.data(), plain.size());
        return plain;
      }
    }
    throw std::logic_error("ssl: bad cipher");
  }

  std::vector<std::uint8_t> decrypt(const std::vector<std::uint8_t>& ct) {
    switch (cipher) {
      case Cipher::kTripleDesCbc: {
        if (ct.size() % 8 != 0) throw std::runtime_error("ssl: bad record length");
        const des::TripleKeySchedule& ks = cached_des3_ks();
        std::vector<std::uint8_t> out(ct.size());
        std::uint64_t chain = load64(iv_dec);
        for (std::size_t i = 0; i < ct.size(); i += 8) {
          const std::uint64_t c = des::load_be64(ct.data() + i);
          des::store_be64(des::decrypt_block_3des(c, ks) ^ chain, out.data() + i);
          chain = c;
        }
        iv_dec.assign(8, 0);
        des::store_be64(chain, iv_dec.data());
        return cbc_unpad(std::move(out));
      }
      case Cipher::kAes128Cbc: {
        if (ct.size() % 16 != 0) throw std::runtime_error("ssl: bad record length");
        // An empty record would otherwise reach the residue update below
        // with ct.end() - 16 out of range; reject it with the same error
        // cbc_unpad raises for a decrypted-to-nothing record.
        if (ct.empty()) throw std::runtime_error("ssl: empty CBC plaintext");
        const aes::KeySchedule& ks = cached_aes_ks();
        std::array<std::uint8_t, 16> aiv{};
        std::copy(iv_dec.begin(), iv_dec.begin() + 16, aiv.begin());
        auto out = aes::decrypt_cbc(ct, ks, aiv);
        iv_dec.assign(ct.end() - 16, ct.end());
        return cbc_unpad(std::move(out));
      }
      case Cipher::kRc4: return cached_rc4().dec.process(ct);
    }
    throw std::logic_error("ssl: bad cipher");
  }
};

SecureChannel::SecureChannel(Cipher cipher, std::vector<std::uint8_t> cipher_key,
                             std::vector<std::uint8_t> mac_key,
                             std::vector<std::uint8_t> iv)
    : impl_(std::make_shared<Impl>()) {
  // The record layer reads exactly the suite's key and IV lengths.
  const CipherProfile profile = cipher_profile(cipher);
  if (cipher_key.size() != profile.key_len || iv.size() != profile.iv_len) {
    throw std::invalid_argument("ssl: key or IV size does not match the cipher suite");
  }
  impl_->cipher = cipher;
  impl_->cipher_key = std::move(cipher_key);
  impl_->mac_key = std::move(mac_key);
  impl_->iv_enc = iv;
  impl_->iv_dec = std::move(iv);
}

std::vector<std::uint8_t> SecureChannel::seal(const std::vector<std::uint8_t>& payload) {
  WSP_TRACE_SPAN("ssl.record", "seal");
  std::vector<std::uint8_t> plain = impl_->append_mac(payload);
  WSP_TRACE_SPAN("ssl.record", "seal/encrypt");
  return impl_->encrypt(std::move(plain));
}

std::vector<std::uint8_t> SecureChannel::open(const std::vector<std::uint8_t>& record) {
  WSP_TRACE_SPAN("ssl.record", "open");
  std::vector<std::uint8_t> plain;
  {
    WSP_TRACE_SPAN("ssl.record", "open/decrypt");
    plain = impl_->decrypt(record);
  }
  return impl_->verify_mac(std::move(plain));
}

std::vector<std::uint8_t> kdf_ssl3(const std::vector<std::uint8_t>& secret,
                                   const std::vector<std::uint8_t>& r1,
                                   const std::vector<std::uint8_t>& r2,
                                   std::size_t out_len) {
  // Round r salts with r copies of the r-th letter, so 'Z' ends the scheme.
  constexpr std::size_t kMaxRounds = 26;
  if (out_len > kMaxRounds * Md5::kDigestSize) {
    throw std::invalid_argument("ssl: kdf_ssl3 output longer than 26 MD5 blocks");
  }
  std::vector<std::uint8_t> out;
  out.reserve(out_len + Md5::kDigestSize);
  std::uint8_t salt[kMaxRounds];
  for (std::size_t round = 1; out.size() < out_len; ++round) {
    std::memset(salt, 'A' + static_cast<int>(round) - 1, round);
    Sha1 inner;
    inner.update(salt, round);
    inner.update(secret);
    inner.update(r1);
    inner.update(r2);
    const auto inner_digest = inner.digest();
    Md5 outer;
    outer.update(secret);
    outer.update(inner_digest.data(), inner_digest.size());
    const auto block = outer.digest();
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(out_len);
  return out;
}

CipherProfile cipher_profile(Cipher cipher) {
  switch (cipher) {
    case Cipher::kTripleDesCbc: return {24, 8};
    case Cipher::kAes128Cbc: return {16, 16};
    case Cipher::kRc4: return {16, 0};
  }
  throw std::logic_error("ssl: bad cipher");
}

Handshake perform_handshake(const rsa::PrivateKey& server_key, Cipher cipher,
                            ModexpEngine& client_engine,
                            ModexpEngine& server_engine, Rng& rng,
                            const HandshakeFault* fault) {
  WSP_TRACE_SPAN("ssl.handshake", "perform_handshake");
  // ClientHello / ServerHello randoms.
  const auto client_random = rng.bytes(32);
  const auto server_random = rng.bytes(32);

  // Client: premaster under the server's public key.
  const auto premaster = rng.bytes(48);
  std::vector<std::uint8_t> encrypted_premaster;
  {
    WSP_TRACE_SPAN("ssl.handshake", "premaster/encrypt");
    encrypted_premaster =
        rsa::encrypt(premaster, server_key.public_key(), client_engine, rng);
  }
  if (fault && fault->corrupt_premaster && !encrypted_premaster.empty()) {
    // Flip a mid-ciphertext byte "on the wire": the server either fails the
    // PKCS#1 unpadding or recovers a premaster the client does not hold.
    WSP_TRACE_INSTANT("ssl.handshake", "premaster/corrupted");
    encrypted_premaster[encrypted_premaster.size() / 2] ^= 0x01;
  }

  // Server: recover the premaster (the expensive private-key operation).
  std::vector<std::uint8_t> recovered;
  {
    WSP_TRACE_SPAN("ssl.handshake", "premaster/decrypt");
    recovered = rsa::decrypt(encrypted_premaster, server_key, server_engine);
  }
  if (recovered != premaster) throw std::runtime_error("ssl: handshake failure");

  // Both sides derive the master secret and the key block.
  WSP_TRACE_SPAN("ssl.handshake", "kdf");
  const auto master = kdf_ssl3(premaster, client_random, server_random, 48);
  const CipherProfile spec = cipher_profile(cipher);
  const std::size_t block_len = 2 * (Sha1::kDigestSize + spec.key_len + spec.iv_len);
  const auto key_block = kdf_ssl3(master, server_random, client_random, block_len);

  std::size_t off = 0;
  auto take = [&](std::size_t n) {
    std::vector<std::uint8_t> v(key_block.begin() + static_cast<std::ptrdiff_t>(off),
                                key_block.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
    return v;
  };
  const auto client_mac = take(Sha1::kDigestSize);
  const auto server_mac = take(Sha1::kDigestSize);
  const auto client_key = take(spec.key_len);
  const auto server_key_bytes = take(spec.key_len);
  const auto client_iv = take(spec.iv_len);
  const auto server_iv = take(spec.iv_len);

  Handshake hs{
      SecureChannel(cipher, client_key, client_mac, client_iv),
      SecureChannel(cipher, server_key_bytes, server_mac, server_iv),
      master,
      // hello randoms + encrypted premaster + finished digests (2 x 36).
      32 + 32 + encrypted_premaster.size() + 72,
  };
  return hs;
}

}  // namespace wsp::ssl

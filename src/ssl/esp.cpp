#include "ssl/esp.h"

#include <stdexcept>

#include "crypto/ct.h"
#include "crypto/des.h"
#include "crypto/hmac.h"

namespace wsp::esp {

namespace {

constexpr std::size_t kIcvLen = 12;  // HMAC-SHA1-96

std::uint64_t key_part(const std::vector<std::uint8_t>& key, std::size_t idx) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | key[8 * idx + i];
  return v;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

}  // namespace

std::vector<std::uint8_t> seal(Sa& sa, const std::vector<std::uint8_t>& payload,
                               Rng& rng) {
  if (sa.enc_key.size() != 24) throw std::invalid_argument("esp: need a 24-byte 3DES key");
  const auto ks = des::triple_key_schedule(key_part(sa.enc_key, 0),
                                           key_part(sa.enc_key, 1),
                                           key_part(sa.enc_key, 2));
  const std::uint64_t iv = rng.next_u64();
  std::vector<std::uint8_t> packet;
  put_u32(packet, sa.spi);
  put_u32(packet, ++sa.seq);
  packet.resize(packet.size() + 8);
  des::store_be64(iv, packet.data() + 8);
  // The payload, padded to the 8-byte block with a pad-length trailer
  // byte, encrypted in place.
  const std::uint8_t pad =
      static_cast<std::uint8_t>(8 - ((payload.size() + 1) % 8)) % 8;
  packet.insert(packet.end(), payload.begin(), payload.end());
  packet.insert(packet.end(), pad, 0);
  packet.push_back(pad);
  std::uint64_t chain = iv;
  des::encrypt_cbc_3des(packet.data() + 16, packet.data() + 16, packet.size() - 16,
                        ks, chain);

  const auto mac = hmac_sha1(sa.auth_key, packet);
  packet.insert(packet.end(), mac.begin(), mac.begin() + kIcvLen);
  return packet;
}

std::vector<std::uint8_t> open(const Sa& sa,
                               const std::vector<std::uint8_t>& packet,
                               std::uint32_t* seq_out) {
  if (packet.size() < 16 + 8 + kIcvLen || (packet.size() - 16 - kIcvLen) % 8 != 0) {
    throw std::runtime_error("esp: malformed packet");
  }
  const std::vector<std::uint8_t> body(packet.begin(),
                                       packet.end() - static_cast<std::ptrdiff_t>(kIcvLen));
  const std::vector<std::uint8_t> icv(packet.end() - static_cast<std::ptrdiff_t>(kIcvLen),
                                      packet.end());
  const auto mac = hmac_sha1(sa.auth_key, body);
  if (!ct::equal(icv.data(), mac.data(), kIcvLen)) {
    throw std::runtime_error("esp: authentication failed");
  }
  if (get_u32(packet.data()) != sa.spi) throw std::runtime_error("esp: wrong SPI");
  if (seq_out) *seq_out = get_u32(packet.data() + 4);

  const auto ks = des::triple_key_schedule(key_part(sa.enc_key, 0),
                                           key_part(sa.enc_key, 1),
                                           key_part(sa.enc_key, 2));
  std::uint64_t chain = des::load_be64(packet.data() + 8);  // the IV
  std::vector<std::uint8_t> plain(body.size() - 16);
  des::decrypt_cbc_3des(body.data() + 16, plain.data(), plain.size(), ks, chain);
  if (plain.empty()) throw std::runtime_error("esp: empty payload");
  const std::uint8_t pad = plain.back();
  if (pad + 1u > plain.size()) throw std::runtime_error("esp: bad padding");
  plain.resize(plain.size() - 1 - pad);
  return plain;
}

}  // namespace wsp::esp

// IPsec ESP-style packet protection (network layer) — the third protocol
// layer of the paper's WEP / IPsec / SSL trio.
//
// Modeled on RFC 2406: an SPI + sequence-number header, 3DES-CBC payload
// encryption with per-packet IV, and a truncated HMAC-SHA1-96
// authenticator over header-and-ciphertext.  Framing is simplified (no
// next-header byte chaining beyond the pad-length trailer).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/des.h"
#include "crypto/hmac.h"
#include "support/random.h"

namespace wsp::esp {

/// A security association (one direction).  The 3DES key schedule and the
/// HMAC key state are built once, from the keys the constructor takes, and
/// cannot be replaced afterwards, so every packet of the SA runs on the
/// schedule of its own key.
class Sa {
 public:
  /// Throws std::invalid_argument unless `enc_key` is 24 bytes (3DES EDE).
  Sa(std::uint32_t spi, const std::vector<std::uint8_t>& enc_key,
     const std::vector<std::uint8_t>& auth_key);

  std::uint32_t spi = 0;
  std::uint32_t seq = 0;  ///< outbound sequence counter

  const des::TripleKeySchedule& cipher() const { return cipher_; }
  const HmacSha1& auth() const { return auth_; }

 private:
  des::TripleKeySchedule cipher_;
  HmacSha1 auth_;
};

/// Builds a protected packet: spi || seq || iv || ciphertext || icv(12).
std::vector<std::uint8_t> seal(Sa& sa, const std::vector<std::uint8_t>& payload,
                               Rng& rng);

/// Verifies and decrypts; throws std::runtime_error on authentication or
/// format failure.  Returns the payload and reports the sequence number.
std::vector<std::uint8_t> open(const Sa& sa,
                               const std::vector<std::uint8_t>& packet,
                               std::uint32_t* seq_out = nullptr);

}  // namespace wsp::esp

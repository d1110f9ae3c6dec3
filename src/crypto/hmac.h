// HMAC (RFC 2104) over the library's hash functions.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/md5.h"
#include "crypto/sha1.h"

namespace wsp {

/// An HMAC key, held as the two hash contexts left after absorbing
/// key ⊕ ipad and key ⊕ opad.  Each MAC starts from a copy of the inner
/// context, so a key that authenticates many messages (a record-layer
/// channel) hashes its pad blocks once instead of once per message.
template <typename Hash>
class HmacKey {
 public:
  using Tag = std::array<std::uint8_t, Hash::kDigestSize>;

  explicit HmacKey(const std::vector<std::uint8_t>& key);

  /// A fresh inner context: feed it the message, then hand it to finish().
  Hash start() const { return inner_; }
  /// Finalizes an inner context from start() into the tag.
  Tag finish(Hash& inner) const;

  /// One-shot MAC of `n` bytes.
  Tag mac(const std::uint8_t* data, std::size_t n) const;

 private:
  Hash inner_, outer_;
};

using HmacSha1 = HmacKey<Sha1>;
using HmacMd5 = HmacKey<Md5>;

extern template class HmacKey<Sha1>;
extern template class HmacKey<Md5>;

/// HMAC-SHA1 of `data` under `key`; returns the 20-byte tag.
std::vector<std::uint8_t> hmac_sha1(const std::vector<std::uint8_t>& key,
                                    const std::vector<std::uint8_t>& data);

/// HMAC-MD5 of `data` under `key`; returns the 16-byte tag.
std::vector<std::uint8_t> hmac_md5(const std::vector<std::uint8_t>& key,
                                   const std::vector<std::uint8_t>& data);

}  // namespace wsp

#include "crypto/hmac.h"

#include <algorithm>

namespace wsp {

template <typename Hash>
HmacKey<Hash>::HmacKey(const std::vector<std::uint8_t>& key) {
  // Keys longer than a block are hashed first; shorter ones are zero-padded.
  std::uint8_t k[Hash::kBlockSize] = {};
  if (key.size() > Hash::kBlockSize) {
    const auto d = Hash::hash(key);
    std::copy(d.begin(), d.end(), k);
  } else {
    std::copy(key.begin(), key.end(), k);
  }
  std::uint8_t pad[Hash::kBlockSize];
  for (std::size_t i = 0; i < Hash::kBlockSize; ++i) {
    pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
  }
  inner_.update(pad, Hash::kBlockSize);
  for (std::size_t i = 0; i < Hash::kBlockSize; ++i) {
    pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  outer_.update(pad, Hash::kBlockSize);
}

template <typename Hash>
typename HmacKey<Hash>::Tag HmacKey<Hash>::finish(Hash& inner) const {
  const auto inner_digest = inner.digest();
  Hash outer = outer_;
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.digest();
}

template <typename Hash>
typename HmacKey<Hash>::Tag HmacKey<Hash>::mac(const std::uint8_t* data,
                                               std::size_t n) const {
  Hash inner = start();
  inner.update(data, n);
  return finish(inner);
}

template class HmacKey<Sha1>;
template class HmacKey<Md5>;

namespace {

template <typename Hash>
std::vector<std::uint8_t> hmac(const std::vector<std::uint8_t>& key,
                               const std::vector<std::uint8_t>& data) {
  const auto tag = HmacKey<Hash>(key).mac(data.data(), data.size());
  return std::vector<std::uint8_t>(tag.begin(), tag.end());
}

}  // namespace

std::vector<std::uint8_t> hmac_sha1(const std::vector<std::uint8_t>& key,
                                    const std::vector<std::uint8_t>& data) {
  return hmac<Sha1>(key, data);
}

std::vector<std::uint8_t> hmac_md5(const std::vector<std::uint8_t>& key,
                                   const std::vector<std::uint8_t>& data) {
  return hmac<Md5>(key, data);
}

}  // namespace wsp

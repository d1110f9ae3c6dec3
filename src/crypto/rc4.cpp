#include "crypto/rc4.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace wsp {

Rc4::Rc4(const std::vector<std::uint8_t>& key) {
  if (key.empty()) throw std::invalid_argument("rc4: empty key");
  for (std::uint32_t i = 0; i < 256; ++i) s_[i] = i;
  const std::size_t key_len = key.size();
  std::size_t k = 0;  // key index, wrapping instead of i % key_len
  std::uint32_t j = 0;
  for (std::uint32_t i = 0; i < 256; ++i) {
    const std::uint32_t si = s_[i];
    j = (j + si + key[k]) & 0xff;
    if (++k == key_len) k = 0;
    s_[i] = s_[j];
    s_[j] = si;
  }
}

namespace {

// One keystream byte: advance i and j, swap, look up the output.
inline std::uint32_t next_byte(std::uint32_t* s, std::uint32_t& i, std::uint32_t& j) {
  i = (i + 1) & 0xff;
  const std::uint32_t si = s[i];
  j = (j + si) & 0xff;
  const std::uint32_t sj = s[j];
  s[i] = sj;
  s[j] = si;
  return s[(si + sj) & 0xff];
}

}  // namespace

void Rc4::process(std::uint8_t* data, std::size_t n) {
  std::uint32_t i = i_, j = j_;
  // Eight keystream bytes are gathered into one word in memory order, so
  // the data takes one load and one store per eight bytes.
  constexpr bool kLittle = std::endian::native == std::endian::little;
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    std::uint64_t stream = 0;
    for (int b = 0; b < 8; ++b) {
      stream |= std::uint64_t{next_byte(s_, i, j)} << (8 * (kLittle ? b : 7 - b));
    }
    std::uint64_t word;
    std::memcpy(&word, data + k, 8);
    word ^= stream;
    std::memcpy(data + k, &word, 8);
  }
  for (; k < n; ++k) data[k] ^= static_cast<std::uint8_t>(next_byte(s_, i, j));
  i_ = i;
  j_ = j;
}

std::vector<std::uint8_t> Rc4::process(const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> out = data;
  process(out.data(), out.size());
  return out;
}

}  // namespace wsp

#include "crypto/sha1.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace wsp {

namespace {

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

// Message word W[t].  The schedule is a 16-word ring: W[t] for t >= 16
// overwrites W[t - 16] in place.
template <int t>
inline std::uint32_t schedule(std::uint32_t (&w)[16]) {
  if constexpr (t < 16) {
    return w[t];
  } else {
    w[t & 15] = rotl(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15], 1);
    return w[t & 15];
  }
}

// One round t of the compression, with the working variables renamed
// instead of shifted: the caller rotates the argument order every round.
// Every branch is on the template argument, so an instantiation is
// straight-line code.
template <int t>
inline void step(std::uint32_t a, std::uint32_t& b, std::uint32_t c, std::uint32_t d,
                 std::uint32_t& e, std::uint32_t (&w)[16]) {
  const std::uint32_t x = schedule<t>(w);
  if constexpr (t < 20) {
    e += rotl(a, 5) + (d ^ (b & (c ^ d))) + 0x5A827999 + x;
  } else if constexpr (t < 40) {
    e += rotl(a, 5) + (b ^ c ^ d) + 0x6ED9EBA1 + x;
  } else if constexpr (t < 60) {
    e += rotl(a, 5) + ((b & c) | (d & (b | c))) + 0x8F1BBCDC + x;
  } else {
    e += rotl(a, 5) + (b ^ c ^ d) + 0xCA62C1D6 + x;
  }
  b = rotl(b, 30);
}

// Five rounds bring the renamed variables back to their starting roles.
template <int t>
inline void five_rounds(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                        std::uint32_t& d, std::uint32_t& e, std::uint32_t (&w)[16]) {
  step<t>(a, b, c, d, e, w);
  step<t + 1>(e, a, b, c, d, w);
  step<t + 2>(d, e, a, b, c, w);
  step<t + 3>(c, d, e, a, b, w);
  step<t + 4>(b, c, d, e, a, w);
}

void compress(std::uint32_t (&h)[5], const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  [&]<int... g>(std::integer_sequence<int, g...>) {
    (five_rounds<5 * g>(a, b, c, d, e, w), ...);
  }(std::make_integer_sequence<int, 16>{});
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

}  // namespace

Sha1::Sha1() {
  h_[0] = 0x67452301;
  h_[1] = 0xEFCDAB89;
  h_[2] = 0x98BADCFE;
  h_[3] = 0x10325476;
  h_[4] = 0xC3D2E1F0;
}

void Sha1::update(const std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  total_ += n;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(n, kBlockSize - buf_len_);
    std::memcpy(buf_ + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    n -= take;
    if (buf_len_ < kBlockSize) return;
    compress(h_, buf_);
    buf_len_ = 0;
  }
  // Whole blocks are hashed straight from the caller's buffer.
  for (; n >= kBlockSize; n -= kBlockSize, data += kBlockSize) compress(h_, data);
  if (n > 0) std::memcpy(buf_, data, n);
  buf_len_ = n;
}

std::array<std::uint8_t, Sha1::kDigestSize> Sha1::digest() {
  const std::uint64_t bit_len = total_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > kBlockSize - 8) {
    // No room for the length: pad this block out and start another.
    std::memset(buf_ + buf_len_, 0, kBlockSize - buf_len_);
    compress(h_, buf_);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, kBlockSize - 8 - buf_len_);
  for (int i = 0; i < 8; ++i) buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress(h_, buf_);
  std::array<std::uint8_t, kDigestSize> out{};
  for (int i = 0; i < 5; ++i) {
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

std::array<std::uint8_t, Sha1::kDigestSize> Sha1::hash(const std::uint8_t* data,
                                                       std::size_t n) {
  Sha1 ctx;
  ctx.update(data, n);
  return ctx.digest();
}

std::array<std::uint8_t, Sha1::kDigestSize> Sha1::hash(
    const std::vector<std::uint8_t>& data) {
  return hash(data.data(), data.size());
}

}  // namespace wsp

#include "crypto/md5.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace wsp {

namespace {

constexpr std::uint32_t kK[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr int kShift[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
                            5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
                            4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                            6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

// One step i of the compression, with the working variables renamed
// instead of shifted: the caller rotates the argument order every step.
// The round function, message word, constant and shift all follow from
// the template argument, so an instantiation is straight-line code.
template <int i>
inline void step(std::uint32_t& a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
                 const std::uint32_t (&m)[16]) {
  if constexpr (i < 16) {
    a = b + rotl(a + (d ^ (b & (c ^ d))) + kK[i] + m[i], kShift[i]);
  } else if constexpr (i < 32) {
    a = b + rotl(a + (c ^ (d & (b ^ c))) + kK[i] + m[(5 * i + 1) % 16], kShift[i]);
  } else if constexpr (i < 48) {
    a = b + rotl(a + (b ^ c ^ d) + kK[i] + m[(3 * i + 5) % 16], kShift[i]);
  } else {
    a = b + rotl(a + (c ^ (b | ~d)) + kK[i] + m[(7 * i) % 16], kShift[i]);
  }
}

// Four steps bring the renamed variables back to their starting roles.
template <int i>
inline void four_steps(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                       std::uint32_t& d, const std::uint32_t (&m)[16]) {
  step<i>(a, b, c, d, m);
  step<i + 1>(d, a, b, c, m);
  step<i + 2>(c, d, a, b, m);
  step<i + 3>(b, c, d, a, m);
}

void compress(std::uint32_t (&h)[4], const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  [&]<int... g>(std::integer_sequence<int, g...>) {
    (four_steps<4 * g>(a, b, c, d, m), ...);
  }(std::make_integer_sequence<int, 16>{});
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
}

}  // namespace

Md5::Md5() {
  h_[0] = 0x67452301;
  h_[1] = 0xefcdab89;
  h_[2] = 0x98badcfe;
  h_[3] = 0x10325476;
}

void Md5::update(const std::uint8_t* data, std::size_t n) {
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

std::array<std::uint8_t, Md5::kDigestSize> Md5::digest() {
  const std::uint64_t bit_len = total_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > kBlockSize - 8) {
    // No room for the length: pad this block out and start another.
    std::memset(buf_ + buf_len_, 0, kBlockSize - buf_len_);
    compress(h_, buf_);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, kBlockSize - 8 - buf_len_);
  for (int i = 0; i < 8; ++i) buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  compress(h_, buf_);
  std::array<std::uint8_t, kDigestSize> out{};
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(h_[i]);
    out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(h_[i] >> 24);
  }
  return out;
}

std::array<std::uint8_t, Md5::kDigestSize> Md5::hash(const std::uint8_t* data,
                                                     std::size_t n) {
  Md5 ctx;
  ctx.update(data, n);
  return ctx.digest();
}

std::array<std::uint8_t, Md5::kDigestSize> Md5::hash(
    const std::vector<std::uint8_t>& data) {
  return hash(data.data(), data.size());
}

}  // namespace wsp

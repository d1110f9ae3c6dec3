#include "support/random.h"

#include <stdexcept>

namespace wsp {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("rng: below(0) has no values");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next_u64();  // [0, 2^64 - 1]: every value
  return lo + below(span);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::vector<std::uint8_t> Rng::bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(next_u64());
  return out;
}

void Rng::fill(std::uint8_t* out, std::size_t n) {
  for (; n >= 8; out += 8, n -= 8) {
    const std::uint64_t r = next_u64();
    for (int b = 0; b < 8; ++b) out[b] = static_cast<std::uint8_t>(r >> (8 * b));
  }
  if (n > 0) {
    const std::uint64_t r = next_u64();
    for (std::size_t b = 0; b < n; ++b) out[b] = static_cast<std::uint8_t>(r >> (8 * b));
  }
}

}  // namespace wsp

#include "mp/prime.h"

#include <array>
#include <stdexcept>

#include "mp/modexp.h"

namespace wsp {

namespace {
constexpr std::array<std::uint32_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

// |n| mod m for a one-limb m, one 32-bit limb at a time (trial division
// without an Mpz division per small prime).
std::uint32_t mod_limb(const Mpz& n, std::uint32_t m) {
  const std::vector<Mpz::Limb>& limbs = n.limbs();
  std::uint64_t r = 0;
  for (std::size_t i = limbs.size(); i-- > 0;) r = ((r << 32) | limbs[i]) % m;
  return static_cast<std::uint32_t>(r);
}

// The Miller-Rabin exponentiation: Montgomery CIOS at radix 2^32 with the
// context cached, so every round on one candidate shares one R^2 mod n.
constexpr ModexpConfig kWitnessConfig{MulAlgo::kMontCIOS, 4, CrtMode::kNone,
                                      Radix::k32, Caching::kContext};
}  // namespace

Mpz random_bits(std::size_t bits, Rng& rng) {
  if (bits == 0) return Mpz();
  const std::size_t nbytes = (bits + 7) / 8;
  std::vector<std::uint8_t> buf = rng.bytes(nbytes);
  // Clear excess bits, then force the MSB.
  const unsigned top_bits = static_cast<unsigned>(bits - (nbytes - 1) * 8);
  buf[0] &= static_cast<std::uint8_t>((1u << top_bits) - 1);
  buf[0] |= static_cast<std::uint8_t>(1u << (top_bits - 1));
  return Mpz::from_bytes_be(buf);
}

Mpz random_below(const Mpz& bound, Rng& rng) {
  const std::size_t bits = bound.bit_length();
  for (;;) {
    const std::size_t nbytes = (bits + 7) / 8;
    std::vector<std::uint8_t> buf = rng.bytes(nbytes);
    const unsigned excess = static_cast<unsigned>(nbytes * 8 - bits);
    buf[0] &= static_cast<std::uint8_t>(0xffu >> excess);
    Mpz v = Mpz::from_bytes_be(buf);
    if (v < bound) return v;
  }
}

bool is_probable_prime(const Mpz& n, int rounds, Rng& rng) {
  if (n < Mpz(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (n.limbs().size() == 1 && n.limbs()[0] == p) return true;
    if (mod_limb(n, p) == 0) return false;
  }
  // Write n-1 = d * 2^s with d odd.
  const Mpz n_minus_1 = n - Mpz(1);
  Mpz d = n_minus_1;
  std::size_t s = 0;
  while (d.is_even()) {
    d = d.rshift(1);
    ++s;
  }
  // n is odd here (2 was caught above), as Montgomery needs.
  ModexpEngine engine(kWitnessConfig);
  for (int round = 0; round < rounds; ++round) {
    // Base in [2, n-2].
    Mpz a = random_below(n - Mpz(3), rng) + Mpz(2);
    Mpz x = engine.powm(a, d, n);
    if (x == Mpz(1) || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 1; i < s; ++i) {
      x = (x * x).mod(n);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

Mpz gen_prime(std::size_t bits, Rng& rng, int rounds) {
  if (bits < 8) throw std::invalid_argument("gen_prime: need at least 8 bits");
  for (;;) {
    Mpz candidate = random_bits(bits, rng);
    // Force the second-highest bit (RSA modulus sizing) and oddness.
    if (!candidate.bit(bits - 2)) candidate = candidate + Mpz(1).lshift(bits - 2);
    if (candidate.is_even()) candidate = candidate + Mpz(1);
    if (candidate.bit_length() != bits) continue;
    if (is_probable_prime(candidate, rounds, rng)) return candidate;
  }
}

}  // namespace wsp

#include <gtest/gtest.h>

#include <array>

#include "mp/prime.h"
#include "mpz_ref.h"

namespace wsp {
namespace {

// The Miller-Rabin test as it was before it ran on the Montgomery engine:
// trial division by full Mpz divisions and a^d mod n by mpz_ref::powm.
// Kept as the oracle the library's verdicts and witness draws must match.
bool is_probable_prime_ref(const Mpz& n, int rounds, Rng& rng) {
  static constexpr std::array<std::uint32_t, 54> kSmallPrimes = {
      2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
      47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
      109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
      191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};
  if (n < Mpz(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    const Mpz pz(static_cast<std::int64_t>(p));
    if (n == pz) return true;
    if ((n % pz).is_zero()) return false;
  }
  const Mpz n_minus_1 = n - Mpz(1);
  Mpz d = n_minus_1;
  std::size_t s = 0;
  while (d.is_even()) {
    d = d.rshift(1);
    ++s;
  }
  for (int round = 0; round < rounds; ++round) {
    Mpz a = random_below(n - Mpz(3), rng) + Mpz(2);
    Mpz x = mpz_ref::powm(a, d, n);
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

TEST(Prime, KnownSmallPrimes) {
  Rng rng(51);
  for (int p : {2, 3, 5, 7, 11, 13, 97, 101, 257, 65537}) {
    EXPECT_TRUE(is_probable_prime(Mpz(p), 16, rng)) << p;
  }
}

TEST(Prime, KnownComposites) {
  Rng rng(52);
  for (int c : {1, 4, 6, 9, 15, 91, 561 /* Carmichael */, 65535, 1000001}) {
    EXPECT_FALSE(is_probable_prime(Mpz(c), 16, rng)) << c;
  }
}

TEST(Prime, LargeKnownPrime) {
  Rng rng(53);
  // 2^127 - 1 (Mersenne prime).
  const Mpz m127 = Mpz(1).lshift(127) - Mpz(1);
  EXPECT_TRUE(is_probable_prime(m127, 12, rng));
  // 2^128 - 1 is composite.
  EXPECT_FALSE(is_probable_prime(Mpz(1).lshift(128) - Mpz(1), 12, rng));
}

TEST(Prime, GeneratedPrimeHasRequestedSize) {
  Rng rng(54);
  for (std::size_t bits : {32u, 64u, 128u}) {
    const Mpz p = gen_prime(bits, rng);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(p.bit(bits - 2)) << "second-highest bit forced for RSA sizing";
    EXPECT_TRUE(is_probable_prime(p, 16, rng));
  }
}

TEST(Prime, RandomBelowInRange) {
  Rng rng(55);
  const Mpz bound = Mpz::from_hex("10000000000000");
  for (int i = 0; i < 100; ++i) {
    const Mpz v = random_below(bound, rng);
    EXPECT_TRUE(v < bound);
    EXPECT_FALSE(v.is_negative());
  }
}

TEST(Prime, RandomBitsExactWidth) {
  Rng rng(56);
  for (std::size_t bits : {9u, 33u, 65u, 100u}) {
    EXPECT_EQ(random_bits(bits, rng).bit_length(), bits);
  }
}

// The library's test against the mpz_ref::powm oracle on ~2,000 odd
// candidates of 2 to 512 bits, some prime, some Carmichael: the same
// verdicts, and the same number of witness draws (the generators end in
// the same state).
TEST(Prime, AgreesWithPowmReference) {
  Rng pick(57);
  std::vector<Mpz> candidates;
  for (int i = 0; i < 1900; ++i) {
    const std::size_t bits = 2 + pick.next_u64() % 511;
    Mpz c = random_bits(bits, pick);
    if (c.is_even()) c = c + Mpz(1);
    candidates.push_back(c);
  }
  for (std::size_t bits : {16u, 64u, 128u, 256u, 512u}) {
    for (int i = 0; i < 8; ++i) candidates.push_back(gen_prime(bits, pick, 8));
  }
  for (int c : {3, 5, 251, 257, 561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
                62745, 63973, 75361, 101101, 126217, 172081, 188461, 252601}) {
    candidates.push_back(Mpz(c));
  }
  std::size_t primes = 0;
  for (const Mpz& c : candidates) {
    Rng fast(c.to_u64() ^ 0x5151);
    Rng ref = fast;
    const bool got = is_probable_prime(c, 24, fast);
    ASSERT_EQ(got, is_probable_prime_ref(c, 24, ref)) << c.to_hex();
    ASSERT_EQ(fast.state(), ref.state()) << c.to_hex();
    primes += got ? 1 : 0;
  }
  EXPECT_GT(primes, 40u);
}

}  // namespace
}  // namespace wsp

#include <gtest/gtest.h>

#include "mp/mpz.h"
#include "mpz_ref.h"
#include "support/random.h"

namespace wsp {
namespace {

Mpz random_mpz(Rng& rng, std::size_t max_bytes) {
  const std::size_t n = 1 + rng.below(max_bytes);
  return Mpz::from_bytes_be(rng.bytes(n));
}

TEST(Mpz, HexRoundTrip) {
  const char* cases[] = {"0", "1", "ff", "100", "deadbeefcafebabe",
                         "123456789abcdef0123456789abcdef"};
  for (const char* c : cases) {
    EXPECT_EQ(Mpz::from_hex(c).to_hex(), c);
  }
  EXPECT_EQ(Mpz::from_hex("-ff").to_hex(), "-ff");
  EXPECT_EQ(Mpz::from_hex("0x10").to_hex(), "10");
}

TEST(Mpz, SmallArithmetic) {
  EXPECT_EQ(Mpz(3) + Mpz(4), Mpz(7));
  EXPECT_EQ(Mpz(3) - Mpz(4), Mpz(-1));
  EXPECT_EQ(Mpz(-3) * Mpz(4), Mpz(-12));
  EXPECT_EQ(Mpz(17) / Mpz(5), Mpz(3));
  EXPECT_EQ(Mpz(17) % Mpz(5), Mpz(2));
  EXPECT_EQ(Mpz(-17) % Mpz(5), Mpz(-2));  // remainder follows dividend
  EXPECT_EQ(Mpz(-17).mod(Mpz(5)), Mpz(3));
}

TEST(Mpz, DivisionByZeroThrows) {
  EXPECT_THROW(Mpz(1) / Mpz(0), std::domain_error);
}

TEST(Mpz, DivmodIdentityRandom) {
  Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    const Mpz a = random_mpz(rng, 40);
    Mpz b = random_mpz(rng, 20);
    if (b.is_zero()) b = Mpz(1);
    Mpz q, r;
    Mpz::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a) << "iter " << i;
    EXPECT_TRUE((r.is_negative() ? -r : r) < (b.is_negative() ? -b : b));
  }
}

TEST(Mpz, MulDistributesOverAdd) {
  Rng rng(22);
  for (int i = 0; i < 100; ++i) {
    const Mpz a = random_mpz(rng, 24);
    const Mpz b = random_mpz(rng, 24);
    const Mpz c = random_mpz(rng, 24);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(Mpz, ShiftsMatchMulDiv) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    const Mpz a = random_mpz(rng, 16);
    const std::size_t s = rng.below(70);
    EXPECT_EQ(a.lshift(s), a * Mpz(1).lshift(s));
    EXPECT_EQ(a.rshift(s), a / Mpz(1).lshift(s));
  }
}

TEST(Mpz, BitAccess) {
  const Mpz v = Mpz::from_hex("8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_EQ(v.bit_length(), 64u);
  EXPECT_EQ(v.bits(0, 4), 1u);
  EXPECT_EQ(v.bits(60, 4), 8u);
}

TEST(Mpz, GcdMatchesEuclid) {
  EXPECT_EQ(Mpz::gcd(Mpz(48), Mpz(36)), Mpz(12));
  EXPECT_EQ(Mpz::gcd(Mpz(17), Mpz(5)), Mpz(1));
  EXPECT_EQ(Mpz::gcd(Mpz(0), Mpz(7)), Mpz(7));
}

TEST(Mpz, GcdextBezoutIdentity) {
  Rng rng(24);
  for (int i = 0; i < 60; ++i) {
    const Mpz a = random_mpz(rng, 12);
    const Mpz b = random_mpz(rng, 12);
    Mpz x, y;
    const Mpz g = Mpz::gcdext(a, b, x, y);
    EXPECT_EQ(a * x + b * y, g);
    if (!a.is_zero() && !b.is_zero()) {
      EXPECT_EQ(a % g, Mpz(0));
      EXPECT_EQ(b % g, Mpz(0));
    }
  }
}

TEST(Mpz, InvmodInvertsOddModulus) {
  Rng rng(25);
  const Mpz m = Mpz::from_hex("fffffffffffffffffffffffffffffff1");
  for (int i = 0; i < 40; ++i) {
    Mpz a = random_mpz(rng, 16).mod(m);
    if (a.is_zero()) continue;
    if (!(Mpz::gcd(a, m) == Mpz(1))) continue;
    const Mpz inv = Mpz::invmod(a, m);
    EXPECT_EQ((a * inv).mod(m), Mpz(1));
  }
}

TEST(Mpz, InvmodThrowsWhenNotInvertible) {
  EXPECT_THROW(Mpz::invmod(Mpz(4), Mpz(8)), std::domain_error);
}

TEST(Mpz, PowmSmallCases) {
  EXPECT_EQ(mpz_ref::powm(Mpz(2), Mpz(10), Mpz(1000)), Mpz(24));
  EXPECT_EQ(mpz_ref::powm(Mpz(3), Mpz(0), Mpz(7)), Mpz(1));
  EXPECT_EQ(mpz_ref::powm(Mpz(0), Mpz(5), Mpz(7)), Mpz(0));
  // Fermat: a^(p-1) = 1 mod p.
  EXPECT_EQ(mpz_ref::powm(Mpz(123456), Mpz(1000003 - 1), Mpz(1000003)), Mpz(1));
}

TEST(Mpz, PowmMatchesNaive) {
  Rng rng(26);
  for (int i = 0; i < 30; ++i) {
    const Mpz base(static_cast<std::int64_t>(rng.below(1000)));
    const std::uint64_t e = rng.below(40);
    const Mpz mod(static_cast<std::int64_t>(2 + rng.below(100000)));
    Mpz naive(1);
    for (std::uint64_t k = 0; k < e; ++k) naive = (naive * base).mod(mod);
    EXPECT_EQ(mpz_ref::powm(base, Mpz::from_u64(e), mod), naive);
  }
}

TEST(Mpz, BytesRoundTrip) {
  Rng rng(27);
  for (int i = 0; i < 30; ++i) {
    auto bytes = rng.bytes(1 + rng.below(33));
    bytes[0] |= 1;  // avoid leading-zero ambiguity
    const Mpz v = Mpz::from_bytes_be(bytes);
    EXPECT_EQ(v.to_bytes_be(bytes.size()), bytes);
  }
}

TEST(Mpz, ComparisonOperators) {
  EXPECT_TRUE(Mpz(-5) < Mpz(3));
  EXPECT_TRUE(Mpz(3) > Mpz(-5));
  EXPECT_TRUE(Mpz(-5) < Mpz(-3));
  EXPECT_TRUE(Mpz(7) <= Mpz(7));
  EXPECT_TRUE(Mpz(7) >= Mpz(7));
}

}  // namespace
}  // namespace wsp

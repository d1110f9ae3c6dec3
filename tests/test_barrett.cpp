#include <gtest/gtest.h>

#include <array>

#include "barrett_ref.h"
#include "mp/barrett.h"
#include "mp/mpz.h"
#include "support/random.h"

namespace wsp {
namespace {

template <typename L>
std::vector<L> to_limbs(const Mpz& x, std::size_t k) {
  auto be = x.to_bytes_be(k * sizeof(L));
  std::vector<std::uint8_t> le(be.rbegin(), be.rend());
  return mpn::from_bytes_le<L>(le.data(), le.size());
}

template <typename L>
Mpz from_limbs(const std::vector<L>& v) {
  std::vector<std::uint8_t> le(v.size() * sizeof(L));
  mpn::to_bytes_le(v.data(), v.size(), le.data(), le.size());
  std::vector<std::uint8_t> be(le.rbegin(), le.rend());
  return Mpz::from_bytes_be(be);
}

template <typename T>
class BarrettTest : public ::testing::Test {};
using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t>;
TYPED_TEST_SUITE(BarrettTest, LimbTypes);

TYPED_TEST(BarrettTest, RejectsZeroModulus) {
  using L = TypeParam;
  std::vector<L> zero(3, 0);
  EXPECT_THROW(Barrett<L>{zero}, std::invalid_argument);
}

TYPED_TEST(BarrettTest, ReduceMatchesReference) {
  using L = TypeParam;
  Rng rng(41);
  // Works for even moduli too, unlike Montgomery.
  for (const char* mh : {"f7d8a9b3c2e1f4a5d6b7c8d9eaf1b2c4",
                         "b1946ac92492d2347c6235b4d2611184",
                         "8f14e45fceea167a5a36dedd4bea2543"}) {
    const Mpz m = Mpz::from_hex(mh);
    const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                          mpn::LimbTraits<L>::bits;
    Barrett<L> ctx(to_limbs<L>(m, k));
    for (int i = 0; i < 30; ++i) {
      const Mpz x = Mpz::from_bytes_be(rng.bytes(2 * 16 - 1));  // < B^2k
      std::vector<L> r(k);
      const auto xl = to_limbs<L>(x, 2 * k);
      ctx.reduce(r, xl);
      EXPECT_EQ(from_limbs<L>(r), x.mod(m)) << mh << " iter " << i;
    }
  }
}

TYPED_TEST(BarrettTest, MulmodMatchesReference) {
  using L = TypeParam;
  Rng rng(42);
  const Mpz m = Mpz::from_hex("d4c3b2a190887766554433221100ffef");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Barrett<L> ctx(to_limbs<L>(m, k));
  for (int i = 0; i < 40; ++i) {
    const Mpz a = Mpz::from_bytes_be(rng.bytes(16)).mod(m);
    const Mpz b = Mpz::from_bytes_be(rng.bytes(16)).mod(m);
    std::vector<L> r(k);
    ctx.mulmod(r, to_limbs<L>(a, k), to_limbs<L>(b, k));
    EXPECT_EQ(from_limbs<L>(r), (a * b).mod(m)) << "iter " << i;
  }
}

TYPED_TEST(BarrettTest, ReduceOfSmallValueIsIdentity) {
  using L = TypeParam;
  const Mpz m = Mpz::from_hex("10000000000000000000000000000061");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Barrett<L> ctx(to_limbs<L>(m, k));
  const Mpz x(12345);
  std::vector<L> r(k);
  ctx.reduce(r, to_limbs<L>(x, 2 * k));
  EXPECT_EQ(from_limbs<L>(r), x);
}

// Counts SubN events and folds every event, one by one, into an FNV-1a
// digest.
class SubNCounter : public CostHook {
 public:
  void on_prim(Prim p, std::size_t n, std::size_t m, unsigned limb_bits) override {
    if (p == Prim::kSubN) ++subn;
    for (const std::uint64_t v : {static_cast<std::uint64_t>(p), std::uint64_t{n},
                                  std::uint64_t{m}, std::uint64_t{limb_bits}}) {
      digest = (digest ^ v) * 0x100000001b3ull;
    }
  }
  std::size_t subn = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
};

// Reduces x with the packed-word context and the limb loop, checks that
// both return the same limbs and the same events, and returns the number
// of correction subtractions (SubN events beyond the one of r1 - r2).
template <typename L>
std::size_t corrections_match(const Mpz& m, const Mpz& x) {
  constexpr int kBits = mpn::LimbTraits<L>::bits;
  const std::size_t k = (m.bit_length() + kBits - 1) / kBits;
  SubNCounter fast_hook, ref_hook;
  Barrett<L> fast(to_limbs<L>(m, k), &fast_hook);
  barrett_ref::Barrett<L> ref(to_limbs<L>(m, k), &ref_hook);
  EXPECT_EQ(fast.mu(), ref.mu()) << m.to_hex();
  fast_hook = SubNCounter{};
  ref_hook = SubNCounter{};
  std::vector<L> got(k), want(k);
  const auto xl = to_limbs<L>(x, 2 * k);
  fast.reduce(got, xl);
  ref.reduce(want, xl);
  EXPECT_EQ(got, want) << m.to_hex() << " " << x.to_hex();
  EXPECT_EQ(fast_hook.subn, ref_hook.subn) << m.to_hex() << " " << x.to_hex();
  EXPECT_EQ(fast_hook.digest, ref_hook.digest) << m.to_hex() << " " << x.to_hex();
  return ref_hook.subn - 1;
}

// Per-reduce SubN counts against the limb loop, with 0, 1 and 2
// corrections each seen.  Random moduli and operands give 0 or 1.  Two
// need q3 two below x / m: x a multiple of a modulus just above B^(k-1)
// with x near B^(2k), where both truncations lose almost a whole unit.
TYPED_TEST(BarrettTest, CorrectionCountsMatchLimbLoop) {
  using L = TypeParam;
  constexpr int kBits = mpn::LimbTraits<L>::bits;
  Rng rng(43);
  std::array<std::size_t, 3> seen{};
  const auto count = [&](const Mpz& m, const Mpz& x) {
    const std::size_t c = corrections_match<L>(m, x);
    ASSERT_LT(c, seen.size());
    ++seen[c];
  };
  for (std::size_t k : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u, 33u}) {
    const std::size_t bytes = k * sizeof(L);
    for (int i = 0; i < 40; ++i) {
      Mpz m = Mpz::from_bytes_be(rng.bytes(bytes));
      if (m.bit_length() <= (k - 1) * kBits) m = m + Mpz(1).lshift((k - 1) * kBits);
      count(m, Mpz::from_bytes_be(rng.bytes(2 * bytes)));
      count(m, m * m - Mpz(1));
    }
  }
  for (std::size_t k : {2u, 3u}) {
    const Mpz low = Mpz(1).lshift((k - 1) * kBits);
    const Mpz top = Mpz(1).lshift(2 * k * kBits);
    for (int i = 0; i < 400; ++i) {
      const Mpz m = low + Mpz::from_u64(1 + rng.below(std::uint64_t{1} << (kBits - 1)));
      const Mpz q = (top - Mpz(1)) / m - Mpz::from_u64(rng.below(1000));
      count(m, q * m);
    }
  }
  EXPECT_GT(seen[0], 0u);
  EXPECT_GT(seen[1], 0u);
  EXPECT_GT(seen[2], 0u);
}

}  // namespace
}  // namespace wsp

// Montgomery contexts: all three scanning variants, both radices, checked
// against the Mpz reference and against the limb loops in tests/mont_ref.h.
#include <gtest/gtest.h>

#include <cstdint>

#include "mont_ref.h"
#include "mp/montgomery.h"
#include "mp/mpz.h"
#include "support/random.h"

namespace wsp {
namespace {

template <typename L>
std::vector<L> to_limbs(const Mpz& x, std::size_t k) {
  const auto bytes_needed = k * sizeof(L);
  auto be = x.to_bytes_be(bytes_needed);
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
class MontTest : public ::testing::Test {};
using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t>;
TYPED_TEST_SUITE(MontTest, LimbTypes);

TYPED_TEST(MontTest, RejectsEvenModulus) {
  using L = TypeParam;
  std::vector<L> even = {4, 1};
  EXPECT_THROW(Mont<L>{even}, std::invalid_argument);
}

TYPED_TEST(MontTest, N0InvProperty) {
  using L = TypeParam;
  // n0' = -n^{-1} mod B  =>  n0 * n0inv = -1 mod B.
  const Mpz m = Mpz::from_hex("f123456789abcdef123456789abcdef1");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Mont<L> ctx(to_limbs<L>(m, k));
  const L prod = static_cast<L>(ctx.modulus()[0] * ctx.n0inv());
  EXPECT_EQ(prod, static_cast<L>(~static_cast<L>(0)));
}

TYPED_TEST(MontTest, MulMatchesReferenceAllVariants) {
  using L = TypeParam;
  Rng rng(31);
  const Mpz m = Mpz::from_hex("c90fdaa22168c234c4c6628b80dc1cd1");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Mont<L> ctx(to_limbs<L>(m, k));
  for (MontVariant v : {MontVariant::kSOS, MontVariant::kCIOS, MontVariant::kFIOS}) {
    for (int i = 0; i < 25; ++i) {
      const Mpz a = Mpz::from_bytes_be(rng.bytes(16)).mod(m);
      const Mpz b = Mpz::from_bytes_be(rng.bytes(16)).mod(m);
      const auto am = ctx.to_mont(to_limbs<L>(a, k), v);
      const auto bm = ctx.to_mont(to_limbs<L>(b, k), v);
      std::vector<L> rm(k);
      ctx.mul(rm, am, bm, v);
      const Mpz r = from_limbs<L>(ctx.from_mont(rm, v));
      EXPECT_EQ(r, (a * b).mod(m)) << "variant " << static_cast<int>(v);
    }
  }
}

TYPED_TEST(MontTest, VariantsAgreeWithEachOther) {
  using L = TypeParam;
  Rng rng(32);
  const Mpz m = Mpz::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e5");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Mont<L> ctx(to_limbs<L>(m, k));
  const Mpz a = Mpz::from_bytes_be(rng.bytes(20)).mod(m);
  const Mpz b = Mpz::from_bytes_be(rng.bytes(20)).mod(m);
  const auto al = to_limbs<L>(a, k);
  const auto bl = to_limbs<L>(b, k);
  std::vector<L> sos(k), cios(k), fios(k);
  ctx.mul(sos, al, bl, MontVariant::kSOS);
  ctx.mul(cios, al, bl, MontVariant::kCIOS);
  ctx.mul(fios, al, bl, MontVariant::kFIOS);
  EXPECT_EQ(sos, cios);
  EXPECT_EQ(sos, fios);
}

TYPED_TEST(MontTest, ToFromMontRoundTrips) {
  using L = TypeParam;
  Rng rng(33);
  const Mpz m = Mpz::from_hex("ffdd2bd3499f1f25f3ed4c3b9e0e6401");
  const std::size_t k = (m.bit_length() + mpn::LimbTraits<L>::bits - 1) /
                        mpn::LimbTraits<L>::bits;
  Mont<L> ctx(to_limbs<L>(m, k));
  for (int i = 0; i < 20; ++i) {
    const Mpz a = Mpz::from_bytes_be(rng.bytes(16)).mod(m);
    const auto mont = ctx.to_mont(to_limbs<L>(a, k), MontVariant::kCIOS);
    EXPECT_EQ(from_limbs<L>(ctx.from_mont(mont, MontVariant::kCIOS)), a);
  }
}

TEST(MontHook, ReportsAddmulEvents) {
  struct Counter : CostHook {
    std::size_t addmuls = 0;
    void on_prim(Prim p, std::size_t, std::size_t, unsigned) override {
      if (p == Prim::kAddMul1) ++addmuls;
    }
  } counter;
  const Mpz m = Mpz::from_hex("f0000000000000000000000000000001");
  Mont<std::uint32_t> ctx(to_limbs<std::uint32_t>(m, 4));
  ctx.set_hook(&counter);
  std::vector<std::uint32_t> r(4), a = {1, 2, 3, 4}, b = {5, 6, 7, 8};
  ctx.mul(r, a, b, MontVariant::kCIOS);
  // CIOS does 2 addmul_1 sweeps per limb of b.
  EXPECT_EQ(counter.addmuls, 8u);
}

// Folds every event (prim, n, m, limb_bits), one by one, into an FNV-1a
// digest.
class EventDigest : public CostHook {
 public:
  void on_prim(Prim p, std::size_t n, std::size_t m, unsigned limb_bits) override {
    for (const std::uint64_t v : {static_cast<std::uint64_t>(p), std::uint64_t{n},
                                  std::uint64_t{m}, std::uint64_t{limb_bits}}) {
      for (int i = 0; i < 8; ++i) {
        digest ^= (v >> (8 * i)) & 0xff;
        digest *= 0x100000001b3ull;
      }
    }
    ++events;
  }
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::size_t events = 0;
};

template <typename L>
std::vector<L> random_limbs(std::size_t nn, Rng& rng) {
  std::vector<L> v(nn);
  for (L& x : v) x = static_cast<L>(rng.next_u64());
  return v;
}

// Odd nn-limb moduli: 2^k - 1 (every limb all ones), 2^(k-1) + 1, and two
// random ones (one with a full top limb, one with a top limb of 1).
template <typename L>
std::vector<std::vector<L>> reference_moduli(std::size_t nn, Rng& rng) {
  constexpr int kBits = mpn::LimbTraits<L>::bits;
  std::vector<std::vector<L>> out;
  out.emplace_back(nn, static_cast<L>(~L{0}));
  std::vector<L> pow_plus(nn, 0);
  pow_plus[nn - 1] = static_cast<L>(L{1} << (kBits - 1));
  pow_plus[0] = static_cast<L>(pow_plus[0] | 1);
  out.push_back(pow_plus);
  for (const L top : {static_cast<L>(0), static_cast<L>(1)}) {
    std::vector<L> r = random_limbs<L>(nn, rng);
    r[0] = static_cast<L>(r[0] | 1);
    if (top != 0) r[nn - 1] = top;
    if (r[nn - 1] == 0) r[nn - 1] = 1;
    out.push_back(r);
  }
  return out;
}

// Operands below n: 0, 1, n - 1 and two random values.
template <typename L>
std::vector<std::vector<L>> reference_operands(const std::vector<L>& n, Rng& rng) {
  const std::size_t nn = n.size();
  std::vector<std::vector<L>> out;
  out.emplace_back(nn, 0);
  std::vector<L> one(nn, 0);
  one[0] = 1;
  out.push_back(one);
  std::vector<L> n_minus_1 = n;
  n_minus_1[0] = static_cast<L>(n_minus_1[0] - 1);  // n is odd: no borrow
  out.push_back(n_minus_1);
  for (int i = 0; i < 2; ++i) {
    std::vector<L> r = random_limbs<L>(nn, rng);
    r[nn - 1] = static_cast<L>(n[nn - 1] > 1 ? r[nn - 1] % n[nn - 1] : 0);
    out.push_back(r);
  }
  return out;
}

template <typename T>
class MontReference : public ::testing::Test {};
TYPED_TEST_SUITE(MontReference, LimbTypes);

// The word-wide SOS and CIOS products (even limb counts at radix 32,
// nn % 4 == 0 at radix 16) against the limb loops, and the limb-loop
// fallbacks (FIOS, every other count): the same R^2, the same result limbs and the same per-call
// event stream, for nn = 1..40.
TYPED_TEST(MontReference, WordPathMatchesLimbLoop) {
  using L = TypeParam;
  Rng rng(2101);
  for (std::size_t nn = 1; nn <= 40; ++nn) {
    for (const std::vector<L>& n : reference_moduli<L>(nn, rng)) {
      EventDigest fast_setup, ref_setup;
      Mont<L> fast(n, &fast_setup);
      mont_ref::Mont<L> ref(n, &ref_setup);
      ASSERT_EQ(fast.r2(), ref.r2()) << "nn " << nn;
      ASSERT_EQ(Mont<L>(n).r2(), ref.r2()) << "hook-free R^2, nn " << nn;
      ASSERT_EQ(fast_setup.digest, ref_setup.digest) << "nn " << nn;
      ASSERT_EQ(fast_setup.events, ref_setup.events) << "nn " << nn;
      const auto operands = reference_operands<L>(n, rng);
      for (MontVariant v : {MontVariant::kSOS, MontVariant::kCIOS, MontVariant::kFIOS}) {
        for (const auto& a : operands) {
          for (const auto& b : operands) {
            EventDigest fast_hook, ref_hook;
            fast.set_hook(&fast_hook);
            ref.set_hook(&ref_hook);
            std::vector<L> got(nn), want(nn);
            fast.mul(got, a, b, v);
            ref.mul(want, a, b, v);
            ASSERT_EQ(got, want) << "nn " << nn << " variant " << static_cast<int>(v);
            ASSERT_EQ(fast_hook.digest, ref_hook.digest)
                << "nn " << nn << " variant " << static_cast<int>(v);
            ASSERT_EQ(fast_hook.events, ref_hook.events);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace wsp

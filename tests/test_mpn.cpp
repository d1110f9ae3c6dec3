// Property tests of the mpn kernels, for both radix options, checked
// against 64-bit arithmetic and against each other.
#include <gtest/gtest.h>

#include "mp/mpn.h"
#include "mpn_ref.h"
#include "support/random.h"

namespace wsp {
namespace {

template <typename L>
std::vector<L> random_limbs(Rng& rng, std::size_t n) {
  std::vector<L> v(n);
  for (auto& x : v) x = static_cast<L>(rng.next_u64());
  return v;
}

template <typename T>
class MpnTypedTest : public ::testing::Test {};

using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t>;
TYPED_TEST_SUITE(MpnTypedTest, LimbTypes);

TYPED_TEST(MpnTypedTest, AddThenSubRoundTrips) {
  using L = TypeParam;
  Rng rng(7);
  for (std::size_t n : {1u, 2u, 5u, 16u, 33u}) {
    const auto a = random_limbs<L>(rng, n);
    const auto b = random_limbs<L>(rng, n);
    std::vector<L> sum(n), back(n);
    const L carry = mpn::add_n(sum.data(), a.data(), b.data(), n);
    const L borrow = mpn::sub_n(back.data(), sum.data(), b.data(), n);
    EXPECT_EQ(back, a) << "n=" << n;
    EXPECT_EQ(carry, borrow) << "n=" << n;  // wrap symmetric
  }
}

TYPED_TEST(MpnTypedTest, AddIsCommutative) {
  using L = TypeParam;
  Rng rng(8);
  const std::size_t n = 24;
  const auto a = random_limbs<L>(rng, n);
  const auto b = random_limbs<L>(rng, n);
  std::vector<L> r1(n), r2(n);
  const L c1 = mpn::add_n(r1.data(), a.data(), b.data(), n);
  const L c2 = mpn::add_n(r2.data(), b.data(), a.data(), n);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(c1, c2);
}

TYPED_TEST(MpnTypedTest, Mul1MatchesAddmul1OnZeroTarget) {
  using L = TypeParam;
  Rng rng(9);
  const std::size_t n = 17;
  const auto a = random_limbs<L>(rng, n);
  const L b = static_cast<L>(rng.next_u64() | 1);
  std::vector<L> r1(n), r2(n, 0);
  const L c1 = mpn::mul_1(r1.data(), a.data(), n, b);
  const L c2 = mpn::addmul_1(r2.data(), a.data(), n, b);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(c1, c2);
}

TYPED_TEST(MpnTypedTest, AddmulThenSubmulCancels) {
  using L = TypeParam;
  Rng rng(10);
  const std::size_t n = 20;
  const auto a = random_limbs<L>(rng, n);
  const auto base = random_limbs<L>(rng, n);
  const L b = static_cast<L>(rng.next_u64());
  std::vector<L> r = base;
  const L c1 = mpn::addmul_1(r.data(), a.data(), n, b);
  const L c2 = mpn::submul_1(r.data(), a.data(), n, b);
  EXPECT_EQ(r, base);
  EXPECT_EQ(c1, c2);
}

TYPED_TEST(MpnTypedTest, KaratsubaMatchesBasecase) {
  using L = TypeParam;
  Rng rng(11);
  for (std::size_t n : {16u, 32u, 48u, 64u}) {
    const auto a = random_limbs<L>(rng, n);
    const auto b = random_limbs<L>(rng, n);
    std::vector<L> r1(2 * n), r2(2 * n);
    mpn::mul_basecase(r1.data(), a.data(), n, b.data(), n);
    mpn::mul_karatsuba(r2.data(), a.data(), b.data(), n);
    EXPECT_EQ(r1, r2) << "n=" << n;
  }
}

TYPED_TEST(MpnTypedTest, ShiftRoundTrip) {
  using L = TypeParam;
  Rng rng(12);
  const std::size_t n = 9;
  for (unsigned count = 1; count < mpn::LimbTraits<L>::bits; ++count) {
    auto a = random_limbs<L>(rng, n);
    a[n - 1] = static_cast<L>(a[n - 1] >> count);  // headroom so no bits lost
    std::vector<L> up(n), back(n);
    mpn::lshift(up.data(), a.data(), n, count);
    mpn::rshift(back.data(), up.data(), n, count);
    EXPECT_EQ(back, a) << "count=" << count;
  }
}

TYPED_TEST(MpnTypedTest, DivremReconstructs) {
  using L = TypeParam;
  Rng rng(13);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t dn = 1 + rng.below(6);
    const std::size_t un = dn + rng.below(8);
    auto u = random_limbs<L>(rng, un);
    auto d = random_limbs<L>(rng, dn);
    if (d[dn - 1] == 0) d[dn - 1] = 1;
    std::vector<L> q(un - dn + 1), r(dn);
    mpn::divrem(q.data(), r.data(), u.data(), un, d.data(), dn);
    // Check u == q*d + r and r < d.
    std::vector<L> qd(q.size() + dn, 0);
    mpn::mul_basecase(qd.data(), q.data(), q.size(), d.data(), dn);
    std::vector<L> sum(un + 2, 0);
    for (std::size_t i = 0; i < qd.size() && i < sum.size(); ++i) sum[i] = qd[i];
    L carry = mpn::add_n(sum.data(), sum.data(), r.data(), dn);
    mpn::add_1(sum.data() + dn, sum.data() + dn, sum.size() - dn, carry);
    EXPECT_EQ(mpn::cmp2(sum.data(), sum.size(), u.data(), un), 0) << "iter=" << iter;
    EXPECT_LT(mpn::cmp2(r.data(), dn, d.data(), dn), 1);
    EXPECT_EQ(mpn::cmp2(r.data(), dn, d.data(), dn) < 0, true);
  }
}

TYPED_TEST(MpnTypedTest, BitLength) {
  using L = TypeParam;
  std::vector<L> v(3, 0);
  EXPECT_EQ(mpn::bit_length(v.data(), 3), 0u);
  v[0] = 1;
  EXPECT_EQ(mpn::bit_length(v.data(), 3), 1u);
  v[2] = 1;
  EXPECT_EQ(mpn::bit_length(v.data(), 3), 2 * mpn::LimbTraits<L>::bits + 1);
}

TYPED_TEST(MpnTypedTest, CmpOrdersCorrectly) {
  using L = TypeParam;
  std::vector<L> a = {1, 2, 3};
  std::vector<L> b = {2, 2, 3};
  EXPECT_EQ(mpn::cmp(a.data(), b.data(), 3), -1);
  EXPECT_EQ(mpn::cmp(b.data(), a.data(), 3), 1);
  EXPECT_EQ(mpn::cmp(a.data(), a.data(), 3), 0);
}

TYPED_TEST(MpnTypedTest, BytesRoundTrip) {
  using L = TypeParam;
  Rng rng(14);
  const auto bytes = rng.bytes(23);
  const auto limbs = mpn::from_bytes_le<L>(bytes.data(), bytes.size());
  std::vector<std::uint8_t> back(23);
  mpn::to_bytes_le(limbs.data(), limbs.size(), back.data(), back.size());
  EXPECT_EQ(back, bytes);
}

// --- Word-wide host kernels against the limb loops of tests/mpn_ref.h ------
//
// Every length 0..70 is run at limb offsets 0..3, so the 64-bit words are
// unaligned and every tail length occurs.  The buffers carry guard limbs on
// both sides, and the whole buffer is compared, so a stray store shows.

template <typename T>
class MpnReference : public ::testing::Test {};
TYPED_TEST_SUITE(MpnReference, LimbTypes);

enum class Fill { kRandom, kOnes, kZero };
constexpr Fill kFills[] = {Fill::kRandom, Fill::kOnes, Fill::kZero};
constexpr std::size_t kMaxLimbs = 70;
constexpr std::size_t kMaxOffset = 3;

// n limbs of the pattern behind `offset` guard limbs, plus one guard limb.
template <typename L>
std::vector<L> guarded(Rng& rng, std::size_t offset, std::size_t n, Fill fill) {
  std::vector<L> v = random_limbs<L>(rng, offset + n + 1);
  for (std::size_t i = offset; i < offset + n; ++i) {
    if (fill == Fill::kOnes) v[i] = static_cast<L>(~L{0});
    if (fill == Fill::kZero) v[i] = 0;
  }
  return v;
}

template <typename L>
std::vector<L> multipliers(Rng& rng) {
  return {L{0}, L{1}, static_cast<L>(~L{0}), static_cast<L>(rng.next_u64() | 2)};
}

// Runs `fast` and `ref` on copies of the same operands and checks that they
// leave the same buffer and return the same carry/borrow limb.
template <typename L, typename Fast, typename Ref>
void check_mul_1(Fast fast, Ref ref, std::uint64_t seed) {
  Rng rng(seed);
  for (Fill fill_a : kFills) {
    for (Fill fill_r : kFills) {
      for (std::size_t n = 0; n <= kMaxLimbs; ++n) {
        for (std::size_t a_off = 0; a_off <= kMaxOffset; ++a_off) {
          for (std::size_t r_off = 0; r_off <= kMaxOffset; ++r_off) {
            const std::vector<L> a = guarded<L>(rng, a_off, n, fill_a);
            const std::vector<L> r = guarded<L>(rng, r_off, n, fill_r);
            for (L b : multipliers<L>(rng)) {
              std::vector<L> got = r, want = r;
              const L out = fast(got.data() + r_off, a.data() + a_off, n, b);
              const L want_out = ref(want.data() + r_off, a.data() + a_off, n, b);
              ASSERT_EQ(got, want) << "n=" << n << " a_off=" << a_off
                                   << " r_off=" << r_off << " b=" << +b;
              ASSERT_EQ(out, want_out) << "n=" << n << " a_off=" << a_off
                                       << " r_off=" << r_off << " b=" << +b;
            }
          }
        }
      }
    }
  }
}

TYPED_TEST(MpnReference, Addmul1MatchesLimbLoop) {
  using L = TypeParam;
  check_mul_1<L>(mpn::addmul_1<L>, mpn_ref::addmul_1<L>, 301);
}

TYPED_TEST(MpnReference, Submul1MatchesLimbLoop) {
  using L = TypeParam;
  check_mul_1<L>(mpn::submul_1<L>, mpn_ref::submul_1<L>, 302);
}

template <typename L>
void check_mul_basecase(Rng& rng, std::size_t an, std::size_t bn, std::size_t off,
                        Fill fill_a, Fill fill_b) {
  const std::size_t b_off = (off + 1) % (kMaxOffset + 1);
  const std::size_t r_off = (off + 2) % (kMaxOffset + 1);
  const std::vector<L> a = guarded<L>(rng, off, an, fill_a);
  const std::vector<L> b = guarded<L>(rng, b_off, bn, fill_b);
  const std::vector<L> r = guarded<L>(rng, r_off, an + bn, Fill::kRandom);
  std::vector<L> got = r, want = r;
  mpn::mul_basecase(got.data() + r_off, a.data() + off, an, b.data() + b_off, bn);
  mpn_ref::mul_basecase(want.data() + r_off, a.data() + off, an, b.data() + b_off, bn);
  ASSERT_EQ(got, want) << "an=" << an << " bn=" << bn << " off=" << off;
}

TYPED_TEST(MpnReference, MulBasecaseMatchesLimbLoop) {
  using L = TypeParam;
  Rng rng(303);
  const std::pair<Fill, Fill> fills[] = {{Fill::kRandom, Fill::kRandom},
                                         {Fill::kOnes, Fill::kOnes},
                                         {Fill::kOnes, Fill::kRandom},
                                         {Fill::kZero, Fill::kRandom},
                                         {Fill::kRandom, Fill::kZero}};
  for (const auto& [fill_a, fill_b] : fills) {
    for (std::size_t an = 0; an <= kMaxLimbs; ++an) {
      for (std::size_t bn : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 17u, 33u, 70u}) {
        for (std::size_t off = 0; off <= kMaxOffset; ++off) {
          check_mul_basecase<L>(rng, an, bn, off, fill_a, fill_b);
        }
      }
    }
  }
}

TYPED_TEST(MpnReference, MulBasecasePastThePackedBufferMatchesLimbLoop) {
  using L = TypeParam;
  Rng rng(304);
  // Operands longer than the packed stack buffers take the limb loop.
  constexpr std::size_t kLimit = mpn::detail::kPackedWords * mpn::detail::kPerWord<L>;
  const std::size_t sizes[] = {1, 9, kLimit - 1, kLimit, kLimit + 1, kLimit + 5};
  for (std::size_t an : sizes) {
    for (std::size_t bn : sizes) {
      for (Fill fill : {Fill::kRandom, Fill::kOnes}) {
        check_mul_basecase<L>(rng, an, bn, an % (kMaxOffset + 1), fill, fill);
      }
    }
  }
}

// The limbs of a number given as 64-bit words, least significant first.
template <typename L>
std::vector<L> limbs_of_words(const std::vector<std::uint64_t>& w) {
  std::vector<std::uint8_t> le(8 * w.size());
  for (std::size_t i = 0; i < le.size(); ++i) {
    le[i] = static_cast<std::uint8_t>(w[i / 8] >> (8 * (i % 8)));
  }
  std::vector<L> out = mpn::from_bytes_le<L>(le.data(), le.size());
  out.resize(mpn::normalize(out.data(), out.size()));
  return out;
}

// Divides u by d with the packed-word division and with the limb loop and
// checks that both leave the same quotient and remainder limbs and that
// neither writes past them (each output carries a guard limb), and that
// the remainder-only call agrees.
template <typename L>
void check_divrem(const std::vector<L>& u, const std::vector<L>& d, const char* what) {
  const std::size_t un = u.size();
  const std::size_t dn = d.size();
  ASSERT_GE(un, dn);
  ASSERT_NE(d[dn - 1], 0);
  const L guard = static_cast<L>(0xa5a5a5a5u);
  std::vector<L> got_q(un - dn + 2, guard), got_r(dn + 1, guard);
  std::vector<L> want_q = got_q, want_r = got_r, rem_only = got_r;
  mpn::divrem(got_q.data(), got_r.data(), u.data(), un, d.data(), dn);
  mpn_ref::divrem(want_q.data(), want_r.data(), u.data(), un, d.data(), dn);
  mpn::divrem<L>(nullptr, rem_only.data(), u.data(), un, d.data(), dn);
  ASSERT_EQ(got_q, want_q) << what << " un=" << un << " dn=" << dn;
  ASSERT_EQ(got_r, want_r) << what << " un=" << un << " dn=" << dn;
  ASSERT_EQ(rem_only, want_r) << what << " un=" << un << " dn=" << dn;
}

// Word-path divisors and dividends that hit the qhat clamp and the
// add-back, built on the normalised words and shifted right by s, so that
// the division's own normalisation shifts them back.  dw >= 2 words; D has
// its top bit set and its low s bits clear.
//
// Add-back: D = T * B^m + B^m - 2^s (T its top two words, m = dw - 2 >= 1)
// and U = q * T * B^m.  The window's top three words are q * T, so qhat
// after the second-word test is q, but U / D < q: the multiply-subtract
// borrows and the divisor is added back.  The quotient is q - 1.
//
// Clamp: U = (D - 2^s) * B + W.  The last window's top word equals D's top
// word, so qhat starts at B - 1.  With D's second word large, rhat
// overflows and the second-word test is skipped; with it small (s = 0),
// the test runs.
struct CraftedDivision {
  std::vector<std::uint64_t> u, d;
  std::uint64_t expect_q0 = 0;  // the quotient word for add-back cases, else 0
};

std::vector<CraftedDivision> crafted_divisions(Rng& rng, std::size_t dw) {
  std::vector<CraftedDivision> out;
  const auto shifted = [](std::vector<std::uint64_t> w, unsigned s) {
    if (s != 0) {
      for (std::size_t i = 0; i < w.size(); ++i) {
        const std::uint64_t hi = i + 1 < w.size() ? w[i + 1] : 0;
        w[i] = (w[i] >> s) | (hi << (64 - s));
      }
    }
    return w;
  };
  for (unsigned s : {0u, 1u, 17u, 63u}) {
    if (dw >= 3) {
      // Add-back.
      const std::size_t m = dw - 2;
      const std::uint64_t t0 = rng.next_u64() & ~std::uint64_t{1};  // T + 1 does not carry
      const std::uint64_t t1 = rng.next_u64() | (std::uint64_t{1} << 63);
      const std::uint64_t q = (rng.next_u64() >> 1) | 2;
      std::vector<std::uint64_t> dd(dw, 0), uu(dw + 1, 0);
      // B^m - 2^s: all ones above bit s in the low m words.
      for (std::size_t i = 0; i < m; ++i) dd[i] = ~std::uint64_t{0};
      dd[0] = ~std::uint64_t{0} << s;
      dd[m] = t0;
      dd[m + 1] = t1;
      // q * T at words m..m+2.
      const unsigned __int128 lo = static_cast<unsigned __int128>(q) * t0;
      const unsigned __int128 hi = static_cast<unsigned __int128>(q) * t1 +
                                   static_cast<std::uint64_t>(lo >> 64);
      uu[m] = static_cast<std::uint64_t>(lo);
      uu[m + 1] = static_cast<std::uint64_t>(hi);
      uu[m + 2] = static_cast<std::uint64_t>(hi >> 64);
      out.push_back({shifted(uu, s), shifted(dd, s), q - 1});
    }
    // Clamp, with rhat overflowing (large second word) and, at s = 0,
    // without (second word 2).
    for (const bool small_second : {false, true}) {
      if (small_second && s != 0) continue;
      std::vector<std::uint64_t> dd(dw);
      for (auto& w : dd) w = rng.next_u64();
      dd[dw - 1] |= std::uint64_t{1} << 63;
      if (small_second) {
        dd[dw - 2] = 2;
        dd[0] |= 1;
      } else {
        dd[dw - 2] |= std::uint64_t{1} << 63;
        dd[0] &= ~std::uint64_t{0} << s;
      }
      std::vector<std::uint64_t> uu(dw + 1);
      uu[0] = rng.next_u64() & (~std::uint64_t{0} << s);  // W
      std::uint64_t borrow = std::uint64_t{1} << s;        // D - 2^s
      for (std::size_t i = 0; i < dw; ++i) {
        uu[i + 1] = dd[i] - borrow;
        borrow = dd[i] < borrow ? 1 : 0;
      }
      out.push_back({shifted(uu, s), shifted(dd, s), 0});
    }
  }
  return out;
}

// The packed-word Knuth D against the limb loop: divisors of 1..70 limbs
// and dividends of dn..2dn+2 limbs, random and all-ones operands, divisors
// with a top limb of 1 (the largest normalising shift), and the crafted
// word-path clamp and add-back cases.
TYPED_TEST(MpnReference, DivremMatchesLimbLoop) {
  using L = TypeParam;
  Rng rng(305);
  for (std::size_t dn = 1; dn <= kMaxLimbs; ++dn) {
    for (std::size_t un = dn; un <= 2 * dn + 2; ++un) {
      std::vector<L> u = random_limbs<L>(rng, un);
      std::vector<L> d = random_limbs<L>(rng, dn);
      if (d[dn - 1] == 0) d[dn - 1] = 1;
      check_divrem<L>(u, d, "random");
      std::vector<L> ones(un, static_cast<L>(~L{0}));
      d[dn - 1] = 1;
      check_divrem<L>(ones, d, "ones / top limb 1");
      check_divrem<L>(u, std::vector<L>(dn, static_cast<L>(~L{0})), "random / ones");
    }
  }
  for (std::size_t dw = 2; dw <= 12; ++dw) {
    for (const CraftedDivision& c : crafted_divisions(rng, dw)) {
      const std::vector<L> u = limbs_of_words<L>(c.u);
      const std::vector<L> d = limbs_of_words<L>(c.d);
      check_divrem<L>(u, d, c.expect_q0 != 0 ? "add-back" : "clamp");
      if (c.expect_q0 != 0) {
        // The crafted add-back's quotient is q - 1: qhat overshot.
        std::vector<L> q(u.size() - d.size() + 1), r(d.size());
        mpn_ref::divrem(q.data(), r.data(), u.data(), u.size(), d.data(), d.size());
        std::vector<std::uint64_t> qw(mpn::detail::words_for<L>(q.size()) + 1, 0);
        mpn::detail::pack_words(qw.data(), q.data(), q.size());
        EXPECT_EQ(qw[0], c.expect_q0) << "dw=" << dw;
        for (std::size_t i = 1; i < qw.size(); ++i) EXPECT_EQ(qw[i], 0u) << "dw=" << dw;
      }
    }
  }
}

TEST(Mpn, DivremAddBackPath) {
  // Crafted so the initial qhat estimate overshoots by one
  // (u = 2^94, d = 2^63 + 2^32 - 1): exercises Knuth-D's add-back
  // correction, which random inputs essentially never reach.
  const std::vector<std::uint32_t> u = {0, 0, 0x40000000u};
  const std::vector<std::uint32_t> d = {0xFFFFFFFFu, 0x80000000u};
  std::vector<std::uint32_t> q(2), r(2);
  mpn::divrem(q.data(), r.data(), u.data(), 3, d.data(), 2);
  EXPECT_EQ(q[0], 0x7FFFFFFFu);
  EXPECT_EQ(q[1], 0u);
  // Reconstruct.
  std::vector<std::uint32_t> qd(4, 0);
  mpn::mul_basecase(qd.data(), q.data(), 2, d.data(), 2);
  std::uint32_t carry = mpn::add_n(qd.data(), qd.data(), r.data(), 2);
  mpn::add_1(qd.data() + 2, qd.data() + 2, 2, carry);
  EXPECT_EQ(mpn::cmp2(qd.data(), 4, u.data(), 3), 0);
}

TEST(Mpn, DivremQhatClampPath) {
  // Top remainder limb equal to the top divisor limb forces the
  // qhat = B-1 clamp.
  const std::vector<std::uint32_t> u = {5, 0xFFFFFFFFu, 0x7FFFFFFFu, 0x80000000u};
  const std::vector<std::uint32_t> d = {1, 0x80000000u};
  std::vector<std::uint32_t> q(3), r(2);
  mpn::divrem(q.data(), r.data(), u.data(), 4, d.data(), 2);
  std::vector<std::uint32_t> qd(5, 0);
  mpn::mul_basecase(qd.data(), q.data(), 3, d.data(), 2);
  std::uint32_t carry = mpn::add_n(qd.data(), qd.data(), r.data(), 2);
  mpn::add_1(qd.data() + 2, qd.data() + 2, 3, carry);
  EXPECT_EQ(mpn::cmp2(qd.data(), 5, u.data(), 4), 0);
  EXPECT_LT(mpn::cmp2(r.data(), 2, d.data(), 2), 0);
}

TEST(Mpn, Clz) {
  EXPECT_EQ(mpn::clz<std::uint32_t>(1u), 31u);
  EXPECT_EQ(mpn::clz<std::uint32_t>(0x80000000u), 0u);
  EXPECT_EQ(mpn::clz<std::uint16_t>(std::uint16_t{1}), 15u);
}

}  // namespace
}  // namespace wsp

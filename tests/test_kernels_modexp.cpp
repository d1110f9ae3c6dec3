// Montgomery / division modular-multiplication kernels and the ISS modexp
// drivers, checked against the Mpz reference, plus the call-graph structure
// (paper Fig. 4) and base-vs-TIE performance ordering.
#include <gtest/gtest.h>

#include "kernels/modexp_kernel.h"
#include "mp/prime.h"
#include "mpz_ref.h"
#include "support/random.h"

namespace wsp {
namespace {

using kernels::IssModexp;
using kernels::Machine;
using kernels::make_modexp_machine;
using kernels::MpnTieConfig;

Mpz normalized_odd_modulus(Rng& rng, std::size_t bits) {
  // Top bit set (limb-normalized) and odd.
  Mpz m = random_bits(bits, rng);
  if (m.is_even()) m = m + Mpz(1);
  return m;
}

TEST(IssModexpKernel, MontMulMatchesReference) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  Rng rng(301);
  const Mpz mod = normalized_odd_modulus(rng, 256);
  for (int i = 0; i < 10; ++i) {
    const Mpz a = random_below(mod, rng);
    const Mpz b = random_below(mod, rng);
    const auto res = mx.mont_mul_once(a, b, mod);
    // mont_mul computes a*b*R^{-1} mod n with R = 2^(32*k).
    const Mpz r_inv = Mpz::invmod(Mpz(1).lshift(256), mod);
    EXPECT_EQ(res.result, (a * b * r_inv).mod(mod)) << i;
    EXPECT_GT(res.cycles, 0u);
  }
}

TEST(IssModexpKernel, PowmBaseMatchesReference) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  Rng rng(302);
  const Mpz mod = normalized_odd_modulus(rng, 192);
  for (int i = 0; i < 5; ++i) {
    const Mpz base = random_below(mod, rng);
    const Mpz exp = random_bits(64, rng);
    const auto res = mx.powm_base(base, exp, mod);
    EXPECT_EQ(res.result, mpz_ref::powm(base, exp, mod)) << i;
  }
}

TEST(IssModexpKernel, PowmBaseRequiresNormalizedModulus) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  EXPECT_THROW(mx.powm_base(Mpz(2), Mpz(5), Mpz(1000001)), std::invalid_argument);
}

TEST(IssModexpKernel, PowmMontMatchesReferenceAcrossWindows) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  Rng rng(303);
  const Mpz mod = normalized_odd_modulus(rng, 192);
  const Mpz base = random_below(mod, rng);
  const Mpz exp = random_bits(96, rng);
  const Mpz expect = mpz_ref::powm(base, exp, mod);
  for (unsigned w = 1; w <= 5; ++w) {
    const auto res = mx.powm_mont(base, exp, mod, w);
    EXPECT_EQ(res.result, expect) << "window " << w;
  }
}

TEST(IssModexpKernel, PowmMontHandlesEdgeExponents) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  Rng rng(304);
  const Mpz mod = normalized_odd_modulus(rng, 96);
  EXPECT_EQ(mx.powm_mont(Mpz(7), Mpz(0), mod, 4).result, Mpz(1));
  EXPECT_EQ(mx.powm_mont(Mpz(7), Mpz(1), mod, 4).result, Mpz(7));
  const Mpz base = random_below(mod, rng);
  EXPECT_EQ(mx.powm_mont(base, Mpz(2), mod, 3).result, (base * base).mod(mod));
}

TEST(IssModexpKernel, PowmBarrettMatchesReference) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  Rng rng(310);
  // Works for even and odd, normalized and unnormalized moduli.
  for (std::size_t bits : {96u, 150u, 192u}) {
    const Mpz mod = random_bits(bits, rng);
    const Mpz base = random_below(mod, rng);
    const Mpz exp = random_bits(64, rng);
    for (unsigned w : {1u, 4u}) {
      const auto res = mx.powm_barrett(base, exp, mod, w);
      EXPECT_EQ(res.result, mpz_ref::powm(base, exp, mod))
          << "bits=" << bits << " w=" << w;
    }
  }
}

TEST(IssModexpKernel, PowmMontSosMatchesReference) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  Rng rng(312);
  const Mpz mod = normalized_odd_modulus(rng, 192);
  const Mpz base = random_below(mod, rng);
  const Mpz exp = random_bits(96, rng);
  const Mpz expect = mpz_ref::powm(base, exp, mod);
  for (unsigned w : {1u, 3u, 5u}) {
    EXPECT_EQ(mx.powm_mont_sos(base, exp, mod, w).result, expect) << "w=" << w;
  }
  // SOS does the same multiplications in a different schedule: correct but
  // slower than CIOS's interleaved form on this core (the exploration's
  // finding).
  const auto sos = mx.powm_mont_sos(base, exp, mod, 4);
  const auto cios = mx.powm_mont(base, exp, mod, 4);
  EXPECT_EQ(sos.result, cios.result);
}

TEST(IssModexpKernel, BarrettAgreesWithMontOnOddModuli) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  Rng rng(311);
  const Mpz mod = normalized_odd_modulus(rng, 160);
  const Mpz base = random_below(mod, rng);
  const Mpz exp = random_bits(80, rng);
  EXPECT_EQ(mx.powm_barrett(base, exp, mod, 3).result,
            mx.powm_mont(base, exp, mod, 3).result);
}

TEST(IssModexpKernel, RsaCrtMatchesHostRsa) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  Rng rng(305);
  const auto key = rsa::generate_key(256, rng);
  ModexpEngine engine{ModexpConfig{}};
  for (int i = 0; i < 3; ++i) {
    const Mpz msg = random_below(key.n, rng);
    const Mpz c = rsa::public_op(msg, key.public_key(), engine);
    const auto res = mx.rsa_crt(c, key, 4);
    EXPECT_EQ(res.result, msg) << i;
  }
}

TEST(IssModexpKernel, CallGraphShowsAddmulUnderMontMul) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  Rng rng(306);
  const Mpz mod = normalized_odd_modulus(rng, 128);  // 4 limbs
  m.cpu().reset_stats();
  mx.mont_mul_once(Mpz(12345), Mpz(67890), mod);
  const auto& edges = m.cpu().profiler().edges();
  // CIOS: 2 addmul_1 sweeps per limb of b.
  ASSERT_TRUE(edges.count({"mont_mul", "mpn_addmul_1"}));
  EXPECT_EQ(edges.at({"mont_mul", "mpn_addmul_1"}), 8u);
}

TEST(IssModexpPerf, MontBeatsDivisionBaseline) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  Rng rng(307);
  const Mpz mod = normalized_odd_modulus(rng, 256);
  const Mpz base = random_below(mod, rng);
  const Mpz exp = random_bits(128, rng);
  const auto base_res = mx.powm_base(base, exp, mod);
  const auto mont_res = mx.powm_mont(base, exp, mod, 4);
  EXPECT_EQ(base_res.result, mont_res.result);
  EXPECT_GT(base_res.cycles, mont_res.cycles);
}

TEST(IssModexpPerf, MacCustomInstructionsAccelerateMont) {
  Rng rng(308);
  const Mpz mod = normalized_odd_modulus(rng, 512);
  const Mpz base = random_below(mod, rng);
  const Mpz exp = random_bits(64, rng);
  Machine base_m = make_modexp_machine();
  Machine tie_m = make_modexp_machine(MpnTieConfig{8, 4});
  IssModexp mx_base(base_m), mx_tie(tie_m);
  const auto r1 = mx_base.powm_mont(base, exp, mod, 4);
  const auto r2 = mx_tie.powm_mont(base, exp, mod, 4);
  EXPECT_EQ(r1.result, r2.result);
  EXPECT_GT(static_cast<double>(r1.cycles) / static_cast<double>(r2.cycles), 1.8)
      << "base=" << r1.cycles << " tie=" << r2.cycles;
}

TEST(IssModexpPerf, LargerWindowsReduceCycles) {
  Machine m = make_modexp_machine();
  IssModexp mx(m);
  Rng rng(309);
  const Mpz mod = normalized_odd_modulus(rng, 256);
  const Mpz base = random_below(mod, rng);
  const Mpz exp = random_bits(256, rng);
  const auto w1 = mx.powm_mont(base, exp, mod, 1);
  const auto w4 = mx.powm_mont(base, exp, mod, 4);
  EXPECT_EQ(w1.result, w4.result);
  EXPECT_GT(w1.cycles, w4.cycles);
}

}  // namespace
}  // namespace wsp

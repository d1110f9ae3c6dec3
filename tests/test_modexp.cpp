// The centerpiece correctness sweep: every one of the 450 algorithm
// configurations in the paper's design space must produce identical results
// to the Mpz reference on an RSA-style workload.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <iterator>

#include "mp/modexp.h"
#include "mp/prime.h"
#include "mpz_ref.h"
#include "support/random.h"

namespace wsp {
namespace {

struct RsaFixture {
  Mpz p, q, n, e, d;
  CrtKey crt;

  static const RsaFixture& get() {
    static const RsaFixture fx = [] {
      RsaFixture f;
      Rng rng(77);
      f.p = gen_prime(96, rng);
      f.q = gen_prime(96, rng);
      f.n = f.p * f.q;
      f.e = Mpz(65537);
      const Mpz phi = (f.p - Mpz(1)) * (f.q - Mpz(1));
      f.d = Mpz::invmod(f.e, phi);
      f.crt = CrtKey::derive(f.p, f.q, f.d);
      return f;
    }();
    return fx;
  }
};

TEST(ModexpConfig, SpaceHas450Points) {
  EXPECT_EQ(all_modexp_configs().size(), 450u);
}

TEST(ModexpConfig, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& cfg : all_modexp_configs()) names.insert(cfg.name());
  EXPECT_EQ(names.size(), 450u);
}

class ModexpAllConfigs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModexpAllConfigs, RsaRoundTripMatchesReference) {
  const ModexpConfig cfg = all_modexp_configs()[GetParam()];
  const RsaFixture& fx = RsaFixture::get();
  Rng rng(1000 + GetParam());
  ModexpEngine engine(cfg);

  const Mpz m = random_below(fx.n, rng);
  // Public op (no CRT applies).
  const Mpz c = engine.powm(m, fx.e, fx.n);
  EXPECT_EQ(c, mpz_ref::powm(m, fx.e, fx.n)) << cfg.name();
  // Private op through the configured CRT mode.
  const Mpz back = engine.powm_crt(c, fx.d, fx.crt);
  EXPECT_EQ(back, m) << cfg.name();
}

INSTANTIATE_TEST_SUITE_P(All450, ModexpAllConfigs,
                         ::testing::Range<std::size_t>(0, 450),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           std::string name =
                               all_modexp_configs()[info.param].name();
                           for (char& ch : name) {
                             if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

// Every configuration at a 520-bit modulus, whose limbs do not fill whole
// 64-bit words (17 limbs at radix 32, 33 at radix 16, CRT halves of 9 and
// 17): the packed division and Barrett paths pad the top word with zero
// limbs, and Montgomery takes its limb loops.  The public and the private
// operation must equal the oracle's.
TEST(Modexp, AllConfigsMatchReferenceAtPartialWordModulus) {
  Rng rng(520);
  const Mpz p = gen_prime(260, rng);
  const Mpz q = gen_prime(260, rng);
  const Mpz n = p * q;
  ASSERT_EQ(n.bit_length(), 520u);
  const Mpz e(65537);
  const Mpz d = Mpz::invmod(e, (p - Mpz(1)) * (q - Mpz(1)));
  const CrtKey crt = CrtKey::derive(p, q, d);
  const Mpz m = random_below(n, rng);
  const Mpz c = mpz_ref::powm(m, e, n);
  ASSERT_EQ(mpz_ref::powm(c, d, n), m);
  for (const ModexpConfig& cfg : all_modexp_configs()) {
    ModexpEngine engine(cfg);
    EXPECT_EQ(engine.powm(m, e, n), c) << cfg.name();
    EXPECT_EQ(engine.powm_crt(c, d, crt), m) << cfg.name();
  }
}

TEST(Modexp, CachingDoesNotChangeResults) {
  const RsaFixture& fx = RsaFixture::get();
  ModexpConfig cfg;
  cfg.caching = Caching::kFull;
  ModexpEngine engine(cfg);
  Rng rng(91);
  const Mpz m = random_below(fx.n, rng);
  const Mpz first = engine.powm(m, fx.d, fx.n);
  const Mpz second = engine.powm(m, fx.d, fx.n);  // cache-hit path
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, mpz_ref::powm(m, fx.d, fx.n));
}

/// The Mpz whose 32-bit limbs are `limbs`, least significant first.
Mpz from_limbs32(std::initializer_list<std::uint32_t> limbs) {
  Mpz r;
  for (auto it = std::rbegin(limbs); it != std::rend(limbs); ++it) {
    r = r.lshift(32) + Mpz::from_u64(*it);
  }
  return r;
}

TEST(Modexp, FullCacheKeysDoNotCollideAcrossBaseModulusSplits) {
  // Concatenating base and modulus limbs gives {1,3,5,7,9} for both pairs,
  // so a naive key would serve the first pair's power table to the second.
  const Mpz base_a = from_limbs32({1, 3});
  const Mpz mod_a = from_limbs32({5, 7, 9});
  const Mpz base_b = from_limbs32({1});
  const Mpz mod_b = from_limbs32({3, 5, 7, 9});
  ASSERT_EQ(base_a.limbs().size() + mod_a.limbs().size(),
            base_b.limbs().size() + mod_b.limbs().size());
  const Mpz exp = Mpz::from_hex("1f3a9c57");
  for (const MulAlgo mul :
       {MulAlgo::kBasecaseDiv, MulAlgo::kKaratsubaDiv, MulAlgo::kBarrett,
        MulAlgo::kMontSOS, MulAlgo::kMontCIOS}) {
    for (const Radix radix : {Radix::k16, Radix::k32}) {
      ModexpConfig cfg;
      cfg.mul = mul;
      cfg.radix = radix;
      cfg.caching = Caching::kFull;
      ModexpEngine engine(cfg);
      for (int round = 0; round < 2; ++round) {  // cold, then cache hits
        EXPECT_EQ(engine.powm(base_a, exp, mod_a), mpz_ref::powm(base_a, exp, mod_a))
            << cfg.name() << " round " << round;
        EXPECT_EQ(engine.powm(base_b, exp, mod_b), mpz_ref::powm(base_b, exp, mod_b))
            << cfg.name() << " round " << round;
      }
    }
  }
}

TEST(Modexp, HookObservesFewerEventsWhenCached) {
  struct Counter : CostHook {
    std::size_t events = 0;
    void on_prim(Prim, std::size_t, std::size_t, unsigned) override { ++events; }
  };
  const RsaFixture& fx = RsaFixture::get();
  ModexpConfig cfg;
  cfg.caching = Caching::kFull;
  Counter c1;
  ModexpEngine engine(cfg, &c1);
  Rng rng(92);
  const Mpz m = random_below(fx.n, rng);
  engine.powm(m, fx.d, fx.n);
  const std::size_t cold = c1.events;
  c1.events = 0;
  engine.powm(m, fx.d, fx.n);
  const std::size_t warm = c1.events;
  EXPECT_LT(warm, cold) << "cached run must skip context+table setup events";
}

TEST(Modexp, WindowSizeTradesTableForScanMults) {
  struct Counter : CostHook {
    std::size_t addmuls = 0;
    void on_prim(Prim p, std::size_t, std::size_t, unsigned) override {
      if (p == Prim::kAddMul1) ++addmuls;
    }
  };
  const RsaFixture& fx = RsaFixture::get();
  Rng rng(93);
  const Mpz m = random_below(fx.n, rng);
  std::size_t events_w1 = 0, events_w5 = 0;
  for (unsigned w : {1u, 5u}) {
    ModexpConfig cfg;
    cfg.window_bits = w;
    cfg.caching = Caching::kContext;  // exclude context setup from the count
    Counter c;
    ModexpEngine engine(cfg, &c);
    engine.powm(m, fx.d, fx.n);
    (w == 1 ? events_w1 : events_w5) = c.addmuls;
  }
  // A 5-bit window needs fewer multiplications overall on a ~192-bit
  // exponent than binary scanning.
  EXPECT_LT(events_w5, events_w1);
}

TEST(Modexp, EdgeCases) {
  ModexpEngine engine{ModexpConfig{}};
  EXPECT_EQ(engine.powm(Mpz(5), Mpz(0), Mpz(7)), Mpz(1));
  EXPECT_EQ(engine.powm(Mpz(0), Mpz(5), Mpz(7)), Mpz(0));
  EXPECT_EQ(engine.powm(Mpz(5), Mpz(3), Mpz(1)), Mpz(0));
  EXPECT_THROW(engine.powm(Mpz(5), Mpz(3), Mpz(0)), std::domain_error);
}

TEST(Modexp, NegativeExponentThrowsForEveryMulAlgo) {
  // mpz_ref::powm rejects a negative exponent; the engine used to compute
  // base^|exp| instead (3^-5 mod 101 came back as 3^5 mod 101 = 0x29).
  EXPECT_THROW(mpz_ref::powm(Mpz(3), Mpz(-5), Mpz(101)), std::domain_error);
  const RsaFixture& fx = RsaFixture::get();
  for (MulAlgo alg : {MulAlgo::kBasecaseDiv, MulAlgo::kKaratsubaDiv, MulAlgo::kBarrett,
                      MulAlgo::kMontSOS, MulAlgo::kMontCIOS}) {
    for (Radix radix : {Radix::k16, Radix::k32}) {
      ModexpConfig cfg;
      cfg.mul = alg;
      cfg.radix = radix;
      ModexpEngine engine(cfg);
      EXPECT_THROW(engine.powm(Mpz(3), Mpz(-5), Mpz(101)), std::domain_error)
          << cfg.name();
      EXPECT_THROW(engine.powm(Mpz(3), Mpz(-5), Mpz(1)), std::domain_error)
          << cfg.name();
      EXPECT_EQ(engine.powm(Mpz(3), Mpz(5), Mpz(101)), Mpz(0x29)) << cfg.name();
      for (CrtMode crt : {CrtMode::kNone, CrtMode::kTextbook, CrtMode::kGarner}) {
        cfg.crt = crt;
        ModexpEngine crt_engine(cfg);
        EXPECT_THROW(crt_engine.powm_crt(Mpz(3), -fx.d, fx.crt), std::domain_error)
            << cfg.name();
      }
    }
  }
}

TEST(Modexp, MontgomeryRejectsEvenModulus) {
  ModexpConfig cfg;
  cfg.mul = MulAlgo::kMontCIOS;
  ModexpEngine engine(cfg);
  EXPECT_THROW(engine.powm(Mpz(3), Mpz(5), Mpz(100)), std::invalid_argument);
}

TEST(Modexp, DivisionConfigsHandleEvenModulus) {
  for (MulAlgo alg : {MulAlgo::kBasecaseDiv, MulAlgo::kKaratsubaDiv, MulAlgo::kBarrett}) {
    ModexpConfig cfg;
    cfg.mul = alg;
    ModexpEngine engine(cfg);
    const Mpz m = Mpz::from_hex("10000000000000000000000000000000");  // even
    const Mpz r = engine.powm(Mpz(12345), Mpz(67), m);
    EXPECT_EQ(r, mpz_ref::powm(Mpz(12345), Mpz(67), m)) << to_string(alg);
  }
}

TEST(Modexp, InvalidWindowRejected) {
  ModexpConfig cfg;
  cfg.window_bits = 6;
  EXPECT_THROW(ModexpEngine{cfg}, std::invalid_argument);
  cfg.window_bits = 0;
  EXPECT_THROW(ModexpEngine{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace wsp

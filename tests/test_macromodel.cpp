// Regression fitting + ISS-driven characterization of the mpn routines.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>

#include "macromodel/characterize.h"
#include "macromodel/regression.h"

namespace wsp {
namespace {

using macromodel::CharacterizeOptions;
using macromodel::fit;
using macromodel::FitQuality;
using macromodel::MacroModelSet;
using macromodel::Monomial;
using macromodel::PolyModel;
using macromodel::RoutineModel;

TEST(Regression, RecoversExactLinearModel) {
  std::vector<std::vector<double>> features;
  std::vector<double> cycles;
  for (int n = 1; n <= 40; ++n) {
    features.push_back({static_cast<double>(n), 0.0});
    cycles.push_back(17.0 + 12.5 * n);
  }
  FitQuality q;
  const PolyModel model = fit(features, cycles, {{0, 0}, {1, 0}}, &q);
  EXPECT_NEAR(model.coeffs()[0], 17.0, 1e-6);
  EXPECT_NEAR(model.coeffs()[1], 12.5, 1e-6);
  EXPECT_GT(q.r2, 0.9999);
  EXPECT_LT(q.mae_pct, 0.01);
}

TEST(Regression, RecoversQuadraticModel) {
  std::vector<std::vector<double>> features;
  std::vector<double> cycles;
  for (int n = 1; n <= 30; ++n) {
    features.push_back({static_cast<double>(n)});
    cycles.push_back(5.0 + 2.0 * n + 0.75 * n * n);
  }
  const PolyModel model = fit(features, cycles, {{0}, {1}, {2}});
  EXPECT_NEAR(model.coeffs()[2], 0.75, 1e-6);
  EXPECT_NEAR(model.evaluate(std::vector<double>{10.0}), 5.0 + 20.0 + 75.0, 1e-6);
}

TEST(Regression, CrossTermModel) {
  // cycles = 3*n*m sampled over a grid.
  std::vector<std::vector<double>> features;
  std::vector<double> cycles;
  for (int n = 1; n <= 8; ++n) {
    for (int m = 1; m <= 8; ++m) {
      features.push_back({static_cast<double>(n), static_cast<double>(m)});
      cycles.push_back(3.0 * n * m);
    }
  }
  const PolyModel model = fit(features, cycles, {{0, 0}, {1, 1}});
  EXPECT_NEAR(model.coeffs()[1], 3.0, 1e-6);
}

TEST(Regression, ToStringShowsTerms) {
  const PolyModel model({{0, 0}, {1, 0}}, {10.0, 2.0});
  const std::string s = model.to_string({"n", "m"});
  EXPECT_NE(s.find("10"), std::string::npos);
  EXPECT_NE(s.find("*n"), std::string::npos);
}

TEST(Regression, RejectsBadDimensions) {
  EXPECT_THROW(fit({{1.0}}, {1.0, 2.0}, {{0}}), std::invalid_argument);
  EXPECT_THROW(fit({}, {}, {{0}}), std::invalid_argument);
}

class CharacterizeTest : public ::testing::Test {
 protected:
  static const MacroModelSet& models() {
    static const MacroModelSet set = [] {
      kernels::Machine machine = kernels::make_mpn_machine();
      CharacterizeOptions options;
      options.sizes = {2, 4, 8, 16, 24, 32};
      return macromodel::characterize_mpn(machine, options);
    }();
    return set;
  }
};

TEST_F(CharacterizeTest, AllRoutinesCharacterized) {
  for (Prim p : {Prim::kAddN, Prim::kSubN, Prim::kMul1, Prim::kAddMul1,
                 Prim::kSubMul1, Prim::kCmp, Prim::kLshift, Prim::kRshift,
                 Prim::kDiv2by1}) {
    EXPECT_TRUE(models().has(p, 32)) << prim_name(p);
    EXPECT_TRUE(models().has(p, 16)) << prim_name(p);
  }
}

TEST_F(CharacterizeTest, FitsAreTight) {
  // The kernels are deterministic loops, so linear fits should be near-exact.
  for (Prim p : {Prim::kAddN, Prim::kAddMul1, Prim::kSubMul1}) {
    const auto& rm = models().get(p, 32);
    EXPECT_GT(rm.quality.r2, 0.999) << prim_name(p);
    EXPECT_LT(rm.quality.mae_pct, 5.0) << prim_name(p);
  }
}

TEST_F(CharacterizeTest, PredictionsInterpolate) {
  // Predict a size that was not in the characterization sweep and compare
  // against a real ISS run.
  kernels::Machine machine = kernels::make_mpn_machine();
  Rng rng(401);
  const std::size_t n = 20;  // not in {2,4,8,16,24,32}
  std::vector<std::uint32_t> a(n), b(n), r;
  for (auto& x : a) x = rng.next_u32();
  for (auto& x : b) x = rng.next_u32();
  const auto res = kernels::run_add_n(machine, r, a, b);
  const double predicted = models().cycles(Prim::kAddN, n, 0, 32);
  EXPECT_NEAR(predicted, static_cast<double>(res.cycles),
              0.05 * static_cast<double>(res.cycles));
}

TEST_F(CharacterizeTest, AddmulCostsMoreThanAdd) {
  EXPECT_GT(models().cycles(Prim::kAddMul1, 32, 0, 32),
            models().cycles(Prim::kAddN, 32, 0, 32));
}

TEST_F(CharacterizeTest, DescribeListsRoutines) {
  const std::string desc = models().describe();
  EXPECT_NE(desc.find("mpn_addmul_1"), std::string::npos);
  EXPECT_NE(desc.find("R^2"), std::string::npos);
}

TEST(CharacterizeTie, TieModelsPredictFewerCycles) {
  CharacterizeOptions options;
  options.sizes = {8, 16, 32};
  kernels::Machine base = kernels::make_mpn_machine();
  kernels::Machine tie = kernels::make_mpn_machine(kernels::MpnTieConfig{8, 4});
  const auto base_models = macromodel::characterize_mpn(base, options);
  const auto tie_models = macromodel::characterize_mpn(tie, options);
  EXPECT_LT(tie_models.cycles(Prim::kAddN, 32, 0, 32),
            base_models.cycles(Prim::kAddN, 32, 0, 32));
  EXPECT_LT(tie_models.cycles(Prim::kAddMul1, 32, 0, 32),
            base_models.cycles(Prim::kAddMul1, 32, 0, 32));
}

TEST_F(CharacterizeTest, SerializationRoundTrips) {
  const std::string text = models().serialize();
  const auto restored = macromodel::MacroModelSet::deserialize(text);
  for (Prim p : {Prim::kAddN, Prim::kAddMul1, Prim::kDiv2by1}) {
    for (unsigned bits : {16u, 32u}) {
      EXPECT_DOUBLE_EQ(restored.cycles(p, 24, 0, bits),
                       models().cycles(p, 24, 0, bits))
          << prim_name(p) << "@" << bits;
    }
  }
  EXPECT_EQ(restored.serialize(), text);
}

TEST(MacroModelSet, DeserializeRejectsGarbage) {
  EXPECT_THROW(macromodel::MacroModelSet::deserialize("1 32"), std::invalid_argument);
  EXPECT_THROW(macromodel::MacroModelSet::deserialize("x y z"), std::invalid_argument);
  // Empty input yields an empty (but valid) set.
  const auto empty = macromodel::MacroModelSet::deserialize("");
  EXPECT_FALSE(empty.has(Prim::kAddN, 32));
}

TEST(MacroModelSet, UnknownRoutineThrows) {
  MacroModelSet set;
  EXPECT_THROW(set.cycles(Prim::kAddN, 4, 0, 32), std::out_of_range);
}

// --- Compiled cycle tables ---------------------------------------------------

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

// Characterized set with measured radix-16 models (what the explorer uses).
const MacroModelSet& full_models() {
  static const MacroModelSet set = [] {
    kernels::Machine m32 = kernels::make_mpn_machine();
    kernels::Machine m16 = kernels::make_mpn16_machine();
    CharacterizeOptions options;
    options.sizes = {2, 4, 8, 16, 24, 32};
    return macromodel::characterize_mpn_full(m32, m16, options);
  }();
  return set;
}

// Hand-built set with non-linear bases (quadratic, n*m cross term, m-only
// term, fractional and negative coefficients), where the table and the
// polynomial could drift apart if the table were not the polynomial's own
// output.
MacroModelSet nonlinear_models() {
  MacroModelSet set;
  set.set(Prim::kAddN, 32, {PolyModel({{0, 0}, {1, 0}, {2, 0}}, {7.25, 3.1, 0.013}), {}});
  set.set(Prim::kDivrem, 16,
          {PolyModel({{0, 0}, {1, 1}, {0, 2}, {3}}, {-0.5, 2.7, 1.0 / 3.0, 1e-3}), {}});
  set.set(Prim::kCmp, 32, {PolyModel({{1, 0}}, {0.1}), {}});
  return set;
}

std::vector<std::pair<Prim, unsigned>> registered(const MacroModelSet& set) {
  std::vector<std::pair<Prim, unsigned>> keys;
  for (int p = 0; p < static_cast<int>(Prim::kCount); ++p) {
    for (unsigned bits : {16u, 32u}) {
      if (set.has(static_cast<Prim>(p), bits)) keys.emplace_back(static_cast<Prim>(p), bits);
    }
  }
  return keys;
}

TEST(MacroModelSet, DenseTableMatchesPolynomialBitwise) {
  const MacroModelSet nonlinear = nonlinear_models();
  for (const MacroModelSet* set : {&full_models(), &nonlinear}) {
    const auto keys = registered(*set);
    ASSERT_FALSE(keys.empty());
    for (const auto& [p, bits] : keys) {
      const PolyModel& model = set->get(p, bits).model;
      auto check = [&](std::size_t n, std::size_t m) {
        const std::array<double, 2> features = {static_cast<double>(n),
                                                static_cast<double>(m)};
        EXPECT_EQ(bits_of(set->cycles(p, n, m, bits)),
                  bits_of(model.evaluate(features)))
            << prim_name(p) << "@" << bits << " n=" << n << " m=" << m;
      };
      for (std::size_t n = 0; n < MacroModelSet::kTableSize; ++n) check(n, 0);
      for (std::size_t n = MacroModelSet::kTableSize;
           n < MacroModelSet::kTableSize + 5; ++n) {
        check(n, 0);
      }
      check(4096, 0);
      for (std::size_t n : {std::size_t{0}, std::size_t{17}, std::size_t{129}}) {
        check(n, 1);
        check(n, 9);
      }
    }
  }
}

TEST(MacroModelSet, SerializeRoundTripIsByteIdentical) {
  for (const MacroModelSet& set : {full_models(), nonlinear_models()}) {
    const std::string text = set.serialize();
    const MacroModelSet restored = MacroModelSet::deserialize(text);
    EXPECT_EQ(restored.serialize(), text);
    EXPECT_EQ(restored.describe(), set.describe());
    for (const auto& [p, bits] : registered(set)) {
      for (std::size_t n : {std::size_t{1}, std::size_t{64}, std::size_t{400}}) {
        EXPECT_EQ(bits_of(restored.cycles(p, n, 0, bits)),
                  bits_of(set.cycles(p, n, 0, bits)))
            << prim_name(p) << "@" << bits << " n=" << n;
      }
    }
  }
}

TEST(MacroModelSet, SerializeOrdersByRoutineThenRadix) {
  // Registration order must not leak into the text.
  MacroModelSet set;
  set.set(Prim::kCmp, 32, {PolyModel({{0, 0}}, {1.0}), {}});
  set.set(Prim::kCmp, 16, {PolyModel({{0, 0}}, {2.0}), {}});
  set.set(Prim::kAddN, 32, {PolyModel({{0, 0}}, {3.0}), {}});
  EXPECT_EQ(set.serialize(),
            "0 32 1 2 0 0 3 0 0 0\n"
            "10 16 1 2 0 0 2 0 0 0\n"
            "10 32 1 2 0 0 1 0 0 0\n");
}

TEST(MacroModelSet, GetNamesTheMissingRoutine) {
  MacroModelSet set;
  set.set(Prim::kAddN, 16, {PolyModel({{0, 0}}, {1.0}), {}});
  try {
    (void)set.get(Prim::kAddN, 32);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "MacroModelSet: no model for mpn_add_n @32");
  }
  EXPECT_FALSE(set.has(Prim::kAddN, 8));
  EXPECT_THROW(set.cycles(Prim::kAddN, 4, 0, 8), std::out_of_range);
  EXPECT_THROW(set.cycles(Prim::kCount, 4, 0, 16), std::out_of_range);
}

TEST(MacroModelSet, SetRejectsUnknownRoutineOrRadix) {
  MacroModelSet set;
  const RoutineModel rm{PolyModel({{0, 0}}, {1.0}), {}};
  EXPECT_THROW(set.set(Prim::kCount, 32, rm), std::invalid_argument);
  EXPECT_THROW(set.set(static_cast<Prim>(-1), 32, rm), std::invalid_argument);
  EXPECT_THROW(set.set(Prim::kAddN, 8, rm), std::invalid_argument);
  EXPECT_THROW(set.set(Prim::kAddN, 64, rm), std::invalid_argument);
  EXPECT_TRUE(registered(set).empty());
}

// --- Hardened deserialization: every bad line is a std::invalid_argument ----
//
// Line format: prim bits terms {factors exponent... coeff}* r2 mae samples.

TEST(MacroModelSet, DeserializeAcceptsModelsAtTheLimits) {
  // 16 terms of two factors, exponent 8: the largest model accepted.
  std::string line = "7 16 16";
  for (int t = 0; t < 16; ++t) line += " 2 8 " + std::to_string(t % 9) + " 0.5";
  line += " 1 0 3";
  const MacroModelSet set = MacroModelSet::deserialize(line);
  EXPECT_TRUE(set.has(Prim::kDivrem, 16));
  EXPECT_EQ(set.serialize(), line + "\n");
}

TEST(MacroModelSet, DeserializeRejectsRoutineIdOutOfRange) {
  EXPECT_THROW(MacroModelSet::deserialize("-1 32 1 2 0 0 5 1 0 1"),
               std::invalid_argument);
  EXPECT_THROW(MacroModelSet::deserialize(
                   std::to_string(static_cast<int>(Prim::kCount)) +
                   " 32 1 2 0 0 5 1 0 1"),
               std::invalid_argument);
}

TEST(MacroModelSet, DeserializeRejectsLimbBitsOtherThan16Or32) {
  for (const char* bits : {"0", "8", "24", "64", "-16"}) {
    EXPECT_THROW(MacroModelSet::deserialize(std::string("0 ") + bits +
                                            " 1 2 0 0 5 1 0 1"),
                 std::invalid_argument)
        << bits;
  }
}

TEST(MacroModelSet, DeserializeRejectsMoreThanTwoFactors) {
  EXPECT_THROW(MacroModelSet::deserialize("0 32 1 3 0 0 0 5 1 0 1"),
               std::invalid_argument);
}

TEST(MacroModelSet, DeserializeRejectsExponentAboveCap) {
  EXPECT_THROW(MacroModelSet::deserialize("0 32 1 2 9 0 5 1 0 1"),
               std::invalid_argument);
  // Only values just past the cap: without the check, a huge exponent would
  // make the table build loop that many times instead of failing.
  EXPECT_THROW(MacroModelSet::deserialize("0 32 1 2 0 9 5 1 0 1"),
               std::invalid_argument);
}

TEST(MacroModelSet, DeserializeRejectsTooManyTerms) {
  std::string line = "0 32 17";
  for (int t = 0; t < 17; ++t) line += " 2 0 0 1";
  line += " 1 0 1";
  EXPECT_THROW(MacroModelSet::deserialize(line), std::invalid_argument);
}

TEST(MacroModelSet, DeserializeRejectsNonFiniteCoefficient) {
  for (const char* c : {"nan", "inf", "-inf", "1e999"}) {
    EXPECT_THROW(MacroModelSet::deserialize(std::string("0 32 1 2 0 0 ") + c +
                                            " 1 0 1"),
                 std::invalid_argument)
        << c;
  }
}

TEST(MacroModelSet, DeserializeRejectsTrailingFields) {
  EXPECT_NO_THROW(MacroModelSet::deserialize("0 32 1 2 0 0 5 1 0 1"));
  EXPECT_THROW(MacroModelSet::deserialize("0 32 1 2 0 0 5 1 0 1 7"),
               std::invalid_argument);
}

}  // namespace
}  // namespace wsp

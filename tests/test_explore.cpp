// Algorithm design-space exploration: macro-model estimates across the 450
// configurations, ranking sanity, and cross-validation against the ISS.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "explore/space.h"
#include "macromodel/characterize.h"

namespace wsp {
namespace {

using explore::estimate_config;
using explore::make_rsa_workload;
using explore::RsaWorkload;

const macromodel::MacroModelSet& models() {
  static const macromodel::MacroModelSet set = [] {
    kernels::Machine machine = kernels::make_mpn_machine();
    macromodel::CharacterizeOptions options;
    options.sizes = {2, 4, 8, 16, 24, 32};
    return macromodel::characterize_mpn(machine, options);
  }();
  return set;
}

const RsaWorkload& workload() {
  static const RsaWorkload w = [] {
    Rng rng(411);
    auto wl = make_rsa_workload(256, rng);
    wl.repetitions = 2;
    return wl;
  }();
  return w;
}

TEST(Explore, RejectsNonPositiveRepetitions) {
  // repetitions <= 0 used to divide by zero (or negate the average) and
  // return garbage estimates; it must be rejected loudly.
  RsaWorkload bad = workload();
  bad.repetitions = 0;
  EXPECT_THROW(estimate_config(ModexpConfig{}, bad, models()),
               std::invalid_argument);
  bad.repetitions = -3;
  EXPECT_THROW(estimate_config(ModexpConfig{}, bad, models()),
               std::invalid_argument);
  EXPECT_THROW(explore::explore_modexp_space(bad, models()),
               std::invalid_argument);
}

TEST(Explore, EstimatesArePositiveAndFinite) {
  const auto est = estimate_config(ModexpConfig{}, workload(), models());
  EXPECT_GT(est.avg_cycles, 0.0);
  EXPECT_GT(est.events, 0u);
}

TEST(Explore, CrtBeatsNoCrt) {
  ModexpConfig with, without;
  with.crt = CrtMode::kGarner;
  without.crt = CrtMode::kNone;
  const auto e_with = estimate_config(with, workload(), models());
  const auto e_without = estimate_config(without, workload(), models());
  EXPECT_LT(e_with.avg_cycles, e_without.avg_cycles);
}

TEST(Explore, Radix32BeatsRadix16) {
  ModexpConfig r32, r16;
  r32.radix = Radix::k32;
  r16.radix = Radix::k16;
  const auto e32 = estimate_config(r32, workload(), models());
  const auto e16 = estimate_config(r16, workload(), models());
  EXPECT_LT(e32.avg_cycles, e16.avg_cycles);
  // Radix-16 should cost roughly 2-4x (doubled limb counts, quadratic ops).
  EXPECT_GT(e16.avg_cycles / e32.avg_cycles, 1.5);
}

TEST(Explore, CachingHelpsRepeatedOperations) {
  ModexpConfig none, full;
  none.caching = Caching::kNone;
  full.caching = Caching::kFull;
  const auto e_none = estimate_config(none, workload(), models());
  const auto e_full = estimate_config(full, workload(), models());
  EXPECT_LT(e_full.avg_cycles, e_none.avg_cycles);
}

TEST(Explore, MontgomeryBeatsDivisionReduction) {
  ModexpConfig mont, division;
  mont.mul = MulAlgo::kMontCIOS;
  division.mul = MulAlgo::kBasecaseDiv;
  const auto e_mont = estimate_config(mont, workload(), models());
  const auto e_div = estimate_config(division, workload(), models());
  EXPECT_LT(e_mont.avg_cycles, e_div.avg_cycles);
}

TEST(Explore, FullSpaceRanksAndCovers450) {
  const auto report = explore::explore_modexp_space(workload(), models());
  EXPECT_EQ(report.configs, 450u);
  EXPECT_EQ(report.ranked.size(), 450u);
  for (std::size_t i = 1; i < report.ranked.size(); ++i) {
    EXPECT_LE(report.ranked[i - 1].estimate.avg_cycles,
              report.ranked[i].estimate.avg_cycles);
  }
  // The winner should use CRT and the 32-bit radix.
  const auto& best = report.ranked.front().config;
  EXPECT_NE(best.crt, CrtMode::kNone);
  EXPECT_EQ(best.radix, Radix::k32);
  // The worst should be division-based radix-16 without CRT.
  const auto& worst = report.ranked.back().config;
  EXPECT_EQ(worst.crt, CrtMode::kNone);
  EXPECT_EQ(worst.radix, Radix::k16);
}

TEST(Explore, ValidationAgainstIssIsAccurate) {
  kernels::Machine machine = kernels::make_modexp_machine();
  const auto report = explore::validate_estimates(machine, workload(), models());
  ASSERT_EQ(report.points.size(), 8u);
  for (const auto& p : report.points) {
    EXPECT_GT(p.measured_cycles, 0.0) << p.name;
    // Each point within 25%; the paper reports 11.8% mean absolute error.
    EXPECT_LT(p.error_pct, 25.0) << p.name << " est=" << p.estimated_cycles
                                 << " iss=" << p.measured_cycles;
  }
  EXPECT_LT(report.mean_abs_error_pct, 20.0);
  EXPECT_GT(report.speedup_factor, 1.0)
      << "macro-model estimation must beat ISS wall time";
}

// Oracle for the compiled cycle tables: prices every event by evaluating
// the fitted polynomial directly.
class PolynomialOracleHook : public CostHook {
 public:
  explicit PolynomialOracleHook(const macromodel::MacroModelSet& models)
      : models_(models) {}
  void on_prim(Prim p, std::size_t n, std::size_t m, unsigned limb_bits) override {
    const std::array<double, 2> features = {static_cast<double>(n),
                                            static_cast<double>(m)};
    total += models_.get(p, limb_bits).model.evaluate(features);
    ++events;
  }
  double total = 0.0;
  std::size_t events = 0;

 private:
  const macromodel::MacroModelSet& models_;
};

TEST(Explore, EstimateMatchesPolynomialOracleBitwise) {
  const auto configs = all_modexp_configs();
  // A stride coprime to every axis size (5 algorithms, 5 windows, 3 CRT
  // modes, 2 radices, 3 caching modes) visits every value of every axis.
  std::set<int> algos, windows, crts, radices, cachings;
  for (std::size_t i = 0; i < configs.size(); i += 7) {
    const ModexpConfig& cfg = configs[i];
    algos.insert(static_cast<int>(cfg.mul));
    windows.insert(static_cast<int>(cfg.window_bits));
    crts.insert(static_cast<int>(cfg.crt));
    radices.insert(static_cast<int>(cfg.radix));
    cachings.insert(static_cast<int>(cfg.caching));

    PolynomialOracleHook oracle(models());
    ModexpEngine engine(cfg, &oracle);
    for (int rep = 0; rep < workload().repetitions; ++rep) {
      (void)engine.powm_crt(workload().c, workload().d, workload().key);
    }
    const auto est = estimate_config(cfg, workload(), models());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(est.total_cycles),
              std::bit_cast<std::uint64_t>(oracle.total))
        << cfg.name() << ": " << est.total_cycles << " vs " << oracle.total;
    EXPECT_EQ(est.events, oracle.events) << cfg.name();
  }
  EXPECT_EQ(algos.size(), 5u);
  EXPECT_EQ(windows.size(), 5u);
  EXPECT_EQ(crts.size(), 3u);
  EXPECT_EQ(radices.size(), 2u);
  EXPECT_EQ(cachings.size(), 3u);
}

}  // namespace
}  // namespace wsp

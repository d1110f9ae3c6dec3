// The server prices every session with server::calibrated_costs(), a frozen
// copy of the Fig. 8 component costs.  These tests re-measure Fig. 8 on the
// ISS and require the frozen constants to equal it, so a kernel or ISS
// change that moves the figure cannot leave the server pricing stale.
#include <gtest/gtest.h>

#include <cmath>

#include "figures.h"
#include "server/engine.h"

namespace {

using namespace wsp;

const bench::Figure& fig8_figure() {
  static const bench::Figure figure = bench::fig8();
  return figure;
}

double tenths(double v) { return std::round(v * 10.0) / 10.0; }

TEST(Figures, Fig8RsaCyclesEqualCalibratedCosts) {
  const auto& cycles = fig8_figure().result.cycles;
  const ssl::PlatformCosts base = server::calibrated_costs(server::Pricing::kBase);
  const ssl::PlatformCosts opt =
      server::calibrated_costs(server::Pricing::kOptimized);
  EXPECT_EQ(base.rsa_private_cycles, 89884113.0);
  EXPECT_EQ(base.rsa_public_cycles, 997801.0);
  EXPECT_EQ(opt.rsa_private_cycles, 3869594.0);
  EXPECT_EQ(opt.rsa_public_cycles, 175720.0);
  EXPECT_EQ(cycles.at("rsa_private_base"), base.rsa_private_cycles);
  EXPECT_EQ(cycles.at("rsa_public_base"), base.rsa_public_cycles);
  EXPECT_EQ(cycles.at("rsa_private_opt"), opt.rsa_private_cycles);
  EXPECT_EQ(cycles.at("rsa_public_opt"), opt.rsa_public_cycles);
}

// The constants keep one decimal of the measured 3DES cycles per byte.
TEST(Figures, Fig8SymmetricCostEqualsCalibratedCostsToTenths) {
  const auto& cycles = fig8_figure().result.cycles;
  const ssl::PlatformCosts base = server::calibrated_costs(server::Pricing::kBase);
  const ssl::PlatformCosts opt =
      server::calibrated_costs(server::Pricing::kOptimized);
  EXPECT_EQ(base.symmetric_cycles_per_byte, 1660.8);
  EXPECT_EQ(opt.symmetric_cycles_per_byte, 44.3);
  EXPECT_EQ(tenths(cycles.at("sym_cpb_base")), base.symmetric_cycles_per_byte);
  EXPECT_EQ(tenths(cycles.at("sym_cpb_opt")), opt.symmetric_cycles_per_byte);
}

TEST(Figures, Fig8GatesThreeSizesAndTabulatesSix) {
  const bench::Figure& f = fig8_figure();
  for (const char* key : {"speedup_1024", "speedup_4096", "speedup_32768"}) {
    EXPECT_TRUE(f.result.cycles.contains(key)) << key;
  }
  EXPECT_FALSE(f.result.cycles.contains("speedup_2048"));
  for (const char* row : {"   1KB", "   2KB", "   4KB", "   8KB", "  16KB", "  32KB",
                          "SHA-1 kernel"}) {
    EXPECT_NE(f.table.find(row), std::string::npos) << row;
  }
}

}  // namespace

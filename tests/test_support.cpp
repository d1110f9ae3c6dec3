#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "support/cli.h"
#include "support/hex.h"
#include "support/random.h"
#include "support/stats.h"

namespace wsp {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// fill() packs each draw's eight bytes little-endian and truncates the
// last one: ceil(n/8) draws for n bytes, whatever n is.
TEST(Rng, FillPacksEightLittleEndianBytesPerDraw) {
  for (std::size_t n = 0; n <= 17; ++n) {
    SCOPED_TRACE(n);
    Rng filled(77), drawn(77);
    std::vector<std::uint8_t> got(n + 1, 0xA5);  // the sentinel must survive
    filled.fill(got.data(), n);
    std::vector<std::uint8_t> want;
    for (std::size_t draws = 0; draws < (n + 7) / 8; ++draws) {
      const std::uint64_t r = drawn.next_u64();
      for (int b = 0; b < 8; ++b) want.push_back(static_cast<std::uint8_t>(r >> (8 * b)));
    }
    want.resize(n);
    want.push_back(0xA5);
    EXPECT_EQ(got, want);
    EXPECT_EQ(filled.state(), drawn.state());
  }
}

// The known-answer tests, RSA key generation and the characterization
// stimuli are all pinned to bytes(): one draw per byte, its low byte.
// Any change to that stream must fail here first.
TEST(Rng, BytesStreamIsPinned) {
  Rng rng(2024);
  EXPECT_EQ(to_hex(rng.bytes(40)),
            "2e65016ba7f5a86cd5a4e08386750f0509e62923118d8ef6"
            "63d5391cdb9c6f39618b4e7b129071a7");
  Rng a(5), b(5);
  a.bytes(13);
  for (int i = 0; i < 13; ++i) b.next_u64();
  EXPECT_EQ(a.state(), b.state());
}

// below(0) used to compute (0 - 0) % 0; range() over the whole 64-bit span
// reached it through hi - lo + 1 == 0.
TEST(Rng, EmptyAndFullSpansAreDefined) {
  Rng rng(6);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
  Rng full(7), raw(7);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(full.range(0, UINT64_MAX), raw.next_u64());
  }
  EXPECT_EQ(full.state(), raw.state());
  EXPECT_EQ(rng.range(9, 9), 9u);
}

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xab, 0xff, 0x7e};
  EXPECT_EQ(to_hex(data), "0001abff7e");
  EXPECT_EQ(from_hex("0001abff7e"), data);
  EXPECT_EQ(from_hex("00 01 ab ff 7e"), data);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Stats, Summary) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.1180, 1e-3);
}

TEST(Stats, SolveLinearSystem) {
  // 2x + y = 5; x - y = 1 -> x = 2, y = 1.
  const auto x = solve_linear({{2, 1}, {1, -1}}, {5, 1});
  EXPECT_NEAR(x[0], 2.0, 1e-9);
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

TEST(Stats, SolveSingularThrows) {
  EXPECT_THROW(solve_linear({{1, 2}, {2, 4}}, {1, 2}), std::runtime_error);
}

TEST(Stats, LeastSquaresRecoversLine) {
  // y = 3 + 2n sampled exactly.
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  for (int n = 1; n <= 20; ++n) {
    X.push_back({1.0, static_cast<double>(n)});
    y.push_back(3.0 + 2.0 * n);
  }
  const auto c = least_squares(X, y);
  EXPECT_NEAR(c[0], 3.0, 1e-6);
  EXPECT_NEAR(c[1], 2.0, 1e-6);
}

TEST(Stats, RSquaredPerfectFit) {
  EXPECT_DOUBLE_EQ(r_squared({1, 2, 3}, {1, 2, 3}), 1.0);
}

TEST(Stats, MeanAbsPctError) {
  EXPECT_NEAR(mean_abs_pct_error({110, 90}, {100, 100}), 10.0, 1e-9);
}

TEST(Stats, MeanAbsPctErrorSkipsZeroObservations) {
  // A zero observation has no defined percentage error; it is skipped and
  // the mean is taken over the remaining points only.
  EXPECT_NEAR(mean_abs_pct_error({110, 5, 90}, {100, 0, 100}), 10.0, 1e-9);
  // All observations zero: nothing to average — defined as 0, not NaN.
  EXPECT_EQ(mean_abs_pct_error({1, 2}, {0, 0}), 0.0);
  EXPECT_EQ(mean_abs_pct_error({}, {}), 0.0);
}

TEST(Stats, MeanAbsPctErrorSizeMismatchUsesCommonPrefix) {
  // Mismatched lengths are tolerated: only the overlapping prefix counts.
  EXPECT_NEAR(mean_abs_pct_error({110, 90, 50}, {100, 100}), 10.0, 1e-9);
  EXPECT_NEAR(mean_abs_pct_error({110}, {100, 100}), 10.0, 1e-9);
  EXPECT_EQ(mean_abs_pct_error({1, 2, 3}, {}), 0.0);
}

TEST(Stats, SolveSingular3x3Throws) {
  // Row 2 = row 0 + row 1: rank-deficient even though no row is zero.
  EXPECT_THROW(solve_linear({{1, 2, 3}, {4, 5, 6}, {5, 7, 9}}, {1, 2, 3}),
               std::runtime_error);
  EXPECT_THROW(solve_linear({{0}}, {1}), std::runtime_error);
}

// --- Strict CLI values (support/cli.h) --------------------------------------

TEST(CliParse, CountAcceptsOnlyWholeInRangeDecimals) {
  EXPECT_EQ(support::parse_count("4", "--threads", 1, 1024), 4u);
  EXPECT_EQ(support::parse_count("1024", "--threads", 1, 1024), 1024u);
  EXPECT_EQ(support::parse_count("512", "--rsa", 512, 4096), 512u);
  // strtoul read each of these as 0 ("auto" shards), a wrapped huge count,
  // or a prefix; all of them must be refused.
  for (const char* bad : {"", "abc", "-1", "+4", " 4", "4 ", "4x", "0x10",
                          "0", "1025", "18446744073709551616"}) {
    EXPECT_THROW(support::parse_count(bad, "--threads", 1, 1024),
                 std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(CliParse, CountErrorNamesTheFlagAndRange) {
  try {
    support::parse_count("abc", "--shards", 1, 1024);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--shards"), std::string::npos) << what;
    EXPECT_NE(what.find("[1, 1024]"), std::string::npos) << what;
    EXPECT_NE(what.find("'abc'"), std::string::npos) << what;
  }
}

TEST(CliParse, PositiveAcceptsOnlyFinitePositiveNumbers) {
  EXPECT_EQ(support::parse_positive("2000000", "--checkpoint-every"), 2e6);
  EXPECT_EQ(support::parse_positive("2e7", "--checkpoint-every"), 2e7);
  EXPECT_EQ(support::parse_positive("0.5", "--checkpoint-every"), 0.5);
  for (const char* bad : {"", "0", "-1", "abc", "1e999", "inf", "nan", "5x",
                          " 5"}) {
    EXPECT_THROW(support::parse_positive(bad, "--checkpoint-every"),
                 std::invalid_argument)
        << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace wsp

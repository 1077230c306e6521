#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace cachegen {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.Add(rng.Gaussian());
  EXPECT_NEAR(s.Mean(), 0.0, 0.02);
  EXPECT_NEAR(s.StdDev(), 1.0, 0.02);
}

TEST(Rng, GaussianWithParams) {
  Rng rng(12);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(s.Mean(), 5.0, 0.05);
  EXPECT_NEAR(s.StdDev(), 2.0, 0.05);
}

TEST(Rng, NextBelowBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.NextBelow(17), 17u);
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(Rng, LogNormalPositive) {
  Rng rng(14);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.LogNormal(0.0, 1.0), 0.0);
}

TEST(Stats, MeanVariance) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 2.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), std::sqrt(2.0));
}

TEST(Stats, EmptyInputs) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({}), 0.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(EntropyBits({}), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.25), 20.0);
}

TEST(Stats, EmpiricalCdf) {
  const std::vector<double> at = {0.5, 1.5, 2.5, 3.5};
  const auto cdf = EmpiricalCdf({1, 2, 3}, at);
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_NEAR(cdf[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(cdf[2], 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[3], 1.0);
}

TEST(Stats, EntropyUniform) {
  std::vector<int32_t> syms;
  for (int i = 0; i < 1024; ++i) syms.push_back(i % 8);
  EXPECT_NEAR(EntropyBits(syms), 3.0, 1e-9);
}

TEST(Stats, EntropyDegenerate) {
  const std::vector<int32_t> syms(100, 42);
  EXPECT_DOUBLE_EQ(EntropyBits(syms), 0.0);
}

TEST(Stats, GroupedEntropyReducesForSeparableGroups) {
  // Group 0 holds symbols {0,1}, group 1 holds {2,3}: grouping halves the
  // entropy from 2 bits to 1 bit.
  std::vector<int32_t> syms;
  std::vector<uint32_t> groups;
  for (int i = 0; i < 400; ++i) {
    syms.push_back(i % 4);
    groups.push_back(static_cast<uint32_t>((i % 4) / 2));
  }
  EXPECT_NEAR(EntropyBits(syms), 2.0, 1e-9);
  EXPECT_NEAR(GroupedEntropyBits(syms, groups, 2), 1.0, 1e-9);
}

TEST(Stats, GroupedEntropyNoGainForUninformativeGroups) {
  std::vector<int32_t> syms;
  std::vector<uint32_t> groups;
  for (int i = 0; i < 4000; ++i) {
    syms.push_back(i % 4);
    groups.push_back(static_cast<uint32_t>(i / 2000));  // arbitrary split
  }
  EXPECT_NEAR(GroupedEntropyBits(syms, groups, 2), 2.0, 0.01);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(99);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.Gaussian(2.0, 3.0);
    xs.push_back(x);
    rs.Add(x);
  }
  EXPECT_NEAR(rs.Mean(), Mean(xs), 1e-9);
  EXPECT_NEAR(rs.Variance(), Variance(xs), 1e-6);
  EXPECT_EQ(rs.Count(), 5000u);
  EXPECT_LE(rs.Min(), rs.Mean());
  EXPECT_GE(rs.Max(), rs.Mean());
}

// Each accumulator of a row equals a RunningStats fed the same values, bit
// for bit (the profile build relies on this).
TEST(Stats, RunningStatsRowMatchesRunningStats) {
  Rng rng(7);
  constexpr size_t kWidth = 13;
  RunningStatsRow row(kWidth), delta_row(kWidth);
  std::vector<RunningStats> ref(kWidth), delta_ref(kWidth);
  std::vector<float> x(kWidth), anchor(kWidth);
  for (int r = 0; r < 700; ++r) {
    for (size_t i = 0; i < kWidth; ++i) {
      x[i] = static_cast<float>(rng.Gaussian(static_cast<double>(i), 1.0 + i));
      ref[i].Add(x[i]);
      delta_ref[i].Add(static_cast<double>(x[i]) - anchor[i]);
    }
    row.AddRow(x.data());
    delta_row.AddRowDelta(x.data(), anchor.data());
    if (r % 10 == 0) anchor = x;
  }
  EXPECT_EQ(row.Count(), 700u);
  for (size_t i = 0; i < kWidth; ++i) {
    EXPECT_EQ(row.Mean(i), ref[i].Mean()) << i;
    EXPECT_EQ(row.Variance(i), ref[i].Variance()) << i;
    EXPECT_EQ(row.StdDev(i), ref[i].StdDev()) << i;
    EXPECT_EQ(delta_row.Mean(i), delta_ref[i].Mean()) << i;
    EXPECT_EQ(delta_row.Variance(i), delta_ref[i].Variance()) << i;
  }
  const RunningStatsRow empty(3);
  EXPECT_EQ(empty.Mean(1), 0.0);
  EXPECT_EQ(empty.Variance(1), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  TablePrinter t({"name", "size"});
  t.AddRow({"CacheGen", "176"});
  t.AddRow({"H2O", "282"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("CacheGen | 176"), std::string::npos);
  EXPECT_NE(out.find("H2O"), std::string::npos);
  EXPECT_NE(out.find("-+-"), std::string::npos);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(10.0, 0), "10");
}

}  // namespace
}  // namespace cachegen

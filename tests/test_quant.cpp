#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "quant/binned_quant.h"
#include "quant/uniform_quant.h"
#include "quant/vectorwise_quant.h"

namespace cachegen {
namespace {

TEST(UniformQuant, ExactForFewDistinctValues) {
  // 8 bits can represent up to 256 levels exactly on a linear grid.
  UniformQuantizer q(8);
  std::vector<float> xs;
  for (int i = 0; i < 256; ++i) xs.push_back(static_cast<float>(i) * 0.5f - 10.0f);
  const auto quantized = q.Quantize(xs);
  const auto back = q.Dequantize(quantized);
  for (size_t i = 0; i < xs.size(); ++i) EXPECT_NEAR(back[i], xs[i], 1e-4);
}

TEST(UniformQuant, ErrorBoundedByHalfStep) {
  UniformQuantizer q(4);
  Rng rng(1);
  std::vector<float> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(static_cast<float>(rng.Uniform(-5, 5)));
  const auto quantized = q.Quantize(xs);
  const auto back = q.Dequantize(quantized);
  const float step = quantized.scale;
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_LE(std::fabs(back[i] - xs[i]), step / 2.0f + 1e-5f);
  }
}

TEST(UniformQuant, MoreBitsLessError) {
  Rng rng(2);
  Tensor t(50, 20);
  for (auto& x : t.Data()) x = static_cast<float>(rng.Gaussian(0, 2));
  double prev_mse = 1e9;
  for (int bits : {2, 4, 8, 12}) {
    const Tensor rt = UniformQuantizer(bits).RoundTrip(t);
    const double mse = rt.Mse(t);
    EXPECT_LT(mse, prev_mse);
    prev_mse = mse;
  }
}

TEST(UniformQuant, ByteSizeScalesWithBits) {
  UniformQuantizer q8(8), q4(4);
  std::vector<float> xs(1000, 1.0f);
  EXPECT_NEAR(static_cast<double>(q8.Quantize(xs).ByteSize()),
              2.0 * static_cast<double>(q4.Quantize(xs).ByteSize()), 20.0);
}

TEST(UniformQuant, HandlesConstantInput) {
  UniformQuantizer q(8);
  const std::vector<float> xs(100, 3.5f);
  const auto back = q.Dequantize(q.Quantize(xs));
  for (float x : back) EXPECT_FLOAT_EQ(x, 3.5f);
}

// The libm-free rounding in Quantize must equal the std::lround reference
// on every element: symbol == clamp(lround((x - min) / scale), 0, levels).
void ExpectMatchesLround(const UniformQuantizer& q, const std::vector<float>& xs) {
  const UniformQuantized got = q.Quantize(xs);
  const long levels = (1L << q.bits()) - 1;
  ASSERT_EQ(got.symbols.size(), xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const float f = (xs[i] - got.min) / got.scale;
    const long want = std::clamp(std::lround(f), 0L, levels);
    ASSERT_EQ(static_cast<long>(got.symbols[i]), want)
        << "bits " << q.bits() << " x " << xs[i] << " quotient " << f;
  }
}

TEST(UniformQuant, RoundingMatchesLroundProperty) {
  Rng rng(11);
  for (int bits : {1, 3, 4, 8, 12, 16}) {
    const UniformQuantizer q(bits);
    const float levels = static_cast<float>((1 << bits) - 1);
    // Random floats over a few magnitudes.
    for (double span : {1e-3, 1.0, 37.5, 1e4}) {
      std::vector<float> xs;
      for (int i = 0; i < 2000; ++i) {
        xs.push_back(static_cast<float>(rng.Uniform(-span, span)));
      }
      ExpectMatchesLround(q, xs);
    }
    // min 0 and max levels make scale exactly 1, so the quotient is x itself:
    // exact k.5 ties, their ulp neighbours, 0 and the levels boundary.
    std::vector<float> grid = {0.0f, levels};
    for (int k = 0; k < std::min(1 << bits, 600); ++k) {
      const float tie = static_cast<float>(k) + 0.5f;
      if (tie >= levels) break;
      grid.push_back(tie);
      grid.push_back(std::nextafter(tie, 0.0f));
      grid.push_back(std::nextafter(tie, levels));
    }
    grid.push_back(std::nextafter(levels, 0.0f));
    grid.push_back(std::nextafter(0.0f, levels));
    ExpectMatchesLround(q, grid);
    EXPECT_EQ(q.Quantize(grid).scale, 1.0f);
    // mx == mn: every symbol is 0.
    ExpectMatchesLround(q, std::vector<float>(64, -2.25f));
  }
}

TEST(UniformQuant, HandlesEmptyInput) {
  UniformQuantizer q(8);
  EXPECT_TRUE(q.Dequantize(q.Quantize({})).empty());
}

TEST(UniformQuant, RejectsBadBits) {
  EXPECT_THROW(UniformQuantizer(0), std::invalid_argument);
  EXPECT_THROW(UniformQuantizer(17), std::invalid_argument);
}

TEST(BinnedQuant, RoundTripError) {
  const BinnedQuantizer q(0.5);
  for (float x : {-3.2f, -0.26f, 0.0f, 0.24f, 0.26f, 7.9f}) {
    const float back = q.DequantizeOne(q.QuantizeOne(x));
    EXPECT_LE(std::fabs(back - x), 0.25f + 1e-6f);
  }
}

TEST(BinnedQuant, ClampsToMaxSymbol) {
  const BinnedQuantizer q(1.0, 4);
  EXPECT_EQ(q.QuantizeOne(100.0f), 4);
  EXPECT_EQ(q.QuantizeOne(-100.0f), -4);
}

TEST(BinnedQuant, AlphabetShiftInverse) {
  const BinnedQuantizer q(1.0, 8);
  for (int32_t s = -8; s <= 8; ++s) {
    EXPECT_EQ(q.FromAlphabet(q.ToAlphabet(s)), s);
  }
  EXPECT_EQ(q.alphabet_size(), 17u);
}

TEST(BinnedQuant, LargerBinsFewerSymbols) {
  Rng rng(3);
  std::vector<float> xs;
  for (int i = 0; i < 10000; ++i) xs.push_back(static_cast<float>(rng.Gaussian(0, 1)));
  std::vector<int32_t> fine, coarse;
  BinnedQuantizer(0.25).Quantize(xs, fine);
  BinnedQuantizer(1.0).Quantize(xs, coarse);
  auto distinct = [](const std::vector<int32_t>& v) {
    std::set<int32_t> s(v.begin(), v.end());
    return s.size();
  };
  EXPECT_GT(distinct(fine), distinct(coarse));
}

TEST(BinnedQuant, RejectsBadParams) {
  EXPECT_THROW(BinnedQuantizer(0.0), std::invalid_argument);
  EXPECT_THROW(BinnedQuantizer(-1.0), std::invalid_argument);
  EXPECT_THROW(BinnedQuantizer(1.0, 0), std::invalid_argument);
}

TEST(VectorwiseQuant, PerChannelScales) {
  // One tiny-magnitude channel next to a huge one: per-channel scaling keeps
  // the small channel's relative error low, unlike a global 8-bit grid.
  Tensor t(100, 2);
  Rng rng(4);
  for (size_t r = 0; r < 100; ++r) {
    t.At(r, 0) = static_cast<float>(rng.Gaussian(0, 0.01));
    t.At(r, 1) = static_cast<float>(rng.Gaussian(0, 100.0));
  }
  const VectorwiseQuantizer q(8);
  const Tensor rt = q.RoundTrip(t);
  double err_small = 0, sig_small = 0;
  for (size_t r = 0; r < 100; ++r) {
    err_small += std::pow(rt.At(r, 0) - t.At(r, 0), 2);
    sig_small += std::pow(t.At(r, 0), 2);
  }
  EXPECT_LT(err_small / sig_small, 1e-3);  // relative error ~ (1/127)^2
}

TEST(VectorwiseQuant, RoundTripBounded) {
  Rng rng(5);
  Tensor t(64, 16);
  for (auto& x : t.Data()) x = static_cast<float>(rng.Gaussian(1.0, 3.0));
  const VectorwiseQuantizer q(8);
  const auto quantized = q.Quantize(t);
  const Tensor back = q.Dequantize(quantized);
  for (size_t r = 0; r < t.rows(); ++r) {
    for (size_t c = 0; c < t.cols(); ++c) {
      EXPECT_LE(std::fabs(back.At(r, c) - t.At(r, c)),
                quantized.scales[c] / 2.0f + 1e-5f);
    }
  }
}

TEST(VectorwiseQuant, SymbolsWithinBits) {
  Rng rng(6);
  Tensor t(32, 4);
  for (auto& x : t.Data()) x = static_cast<float>(rng.Gaussian(0, 10));
  const VectorwiseQuantizer q(4);
  const auto quantized = q.Quantize(t);
  for (int32_t s : quantized.symbols) {
    EXPECT_LE(std::abs(s), q.max_symbol());
  }
}

TEST(VectorwiseQuant, ByteSizeAccounting) {
  const VectorwiseQuantizer q(8);
  Tensor t(10, 4);
  const auto quantized = q.Quantize(t);
  EXPECT_EQ(quantized.ByteSize(), 10u * 4u + 4u * 4u);
}

TEST(VectorwiseQuant, RejectsBadBits) {
  EXPECT_THROW(VectorwiseQuantizer(1), std::invalid_argument);
  EXPECT_THROW(VectorwiseQuantizer(20), std::invalid_argument);
}

}  // namespace
}  // namespace cachegen

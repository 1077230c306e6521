// Property-based tests: parameterized sweeps over seeds, shapes, levels and
// codec options asserting the invariants that must hold for *every*
// configuration, not just the defaults:
//
//   P1  codec round-trip: decode(encode(x)) has bounded, level-controlled
//       error and exact shape, for all levels x options x shapes;
//   P2  range coder is lossless for arbitrary symbol streams;
//   P3  chunked encode+decode+concat == whole-cache encode+decode whenever
//       chunk boundaries align with token groups;
//   P4  adaptation never returns an infeasible config when a feasible one
//       exists, and always returns the least-lossy feasible one;
//   P5  bandwidth/transfer algebra: TransferSeconds is inverse-monotone in
//       bandwidth and additive in bytes;
//   P6  the libm-free roundings of the profile build and the layered
//       residual walk, and the codec's batch quantize kernels, equal the
//       lround forms they replaced;
//   P7  a per-layer prefill equals that layer of PrefillRange, for plain and
//       composed contexts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <tuple>

#include "ac/range_decoder.h"
#include "ac/range_encoder.h"
#include "codec/kv_decoder.h"
#include "codec/kv_encoder.h"
#include "common/rng.h"
#include "llm/quality_model.h"
#include "llm/synthetic_model.h"
#include "net/bandwidth_trace.h"
#include "quant/symbol_kernels.h"
#include "streamer/adaptation.h"

namespace cachegen {
namespace {

std::shared_ptr<const KVProfile> SharedProfile() {
  static std::shared_ptr<const KVProfile> profile = [] {
    const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
    const SyntheticModel model(cfg);
    const KVCache c1 = model.Prefill({1000, 400});
    const KVCache c2 = model.Prefill({1001, 400});
    const std::vector<const KVCache*> caches = {&c1, &c2};
    return std::make_shared<KVProfile>(KVProfile::Build(cfg, caches));
  }();
  return profile;
}

// ---------------------------------------------------------------- P1 ------
struct CodecCase {
  int level;
  bool delta;
  bool layerwise;
  ProfileGranularity granularity;
  size_t tokens;
};

class CodecProperty : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecProperty, RoundTripBoundedError) {
  const CodecCase& p = GetParam();
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  const KVCache chunk = model.Prefill(
      {static_cast<uint64_t>(7000 + p.level * 100 + p.tokens), p.tokens});

  CodecOptions opt;
  opt.delta_encoding = p.delta;
  opt.layerwise_bins = p.layerwise;
  opt.granularity = p.granularity;
  const auto& level = DefaultEncodingLevels()[static_cast<size_t>(p.level)];
  const KVEncoder enc(SharedProfile(), level, opt);
  const KVDecoder dec(SharedProfile(), level, opt);

  const EncodedChunk e = enc.EncodeChunk(chunk);
  EXPECT_GT(e.PayloadBytes(), 0u);
  const KVCache recon = dec.DecodeChunk(e);
  ASSERT_EQ(recon.num_tokens(), chunk.num_tokens());
  ASSERT_EQ(recon.num_layers(), chunk.num_layers());

  // Error bound: per-element error is bounded by half the coarsest bin times
  // the profiled sigma (plus anchor quantum); weighted nMSE stays finite and
  // well below catastrophic for every configuration.
  QualityModel qm;
  const double nmse = qm.WeightedNmse(chunk, recon);
  EXPECT_LT(nmse, 6.0) << "level=" << p.level << " delta=" << p.delta;
  EXPECT_GE(nmse, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, CodecProperty,
    ::testing::Values(
        CodecCase{0, true, true, ProfileGranularity::kPerChannelLayer, 35},
        CodecCase{1, true, true, ProfileGranularity::kPerChannelLayer, 50},
        CodecCase{2, true, true, ProfileGranularity::kPerChannelLayer, 64},
        CodecCase{3, true, true, ProfileGranularity::kPerChannelLayer, 41},
        CodecCase{1, false, true, ProfileGranularity::kPerChannelLayer, 50},
        CodecCase{1, true, false, ProfileGranularity::kPerChannelLayer, 50},
        CodecCase{1, true, true, ProfileGranularity::kGlobal, 50},
        CodecCase{1, true, true, ProfileGranularity::kPerLayer, 50},
        CodecCase{2, false, false, ProfileGranularity::kGlobal, 30},
        CodecCase{0, true, true, ProfileGranularity::kPerLayer, 10},
        CodecCase{3, true, true, ProfileGranularity::kGlobal, 1},
        CodecCase{1, true, true, ProfileGranularity::kPerChannelLayer, 9}));

// ---------------------------------------------------------------- P2 ------
class RangeCoderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeCoderProperty, LosslessForRandomStreams) {
  Rng rng(GetParam());
  // Random alphabet size, random skew, random length.
  const uint32_t alphabet = 2 + static_cast<uint32_t>(rng.NextBelow(300));
  std::vector<uint64_t> counts(alphabet);
  for (auto& c : counts) c = rng.NextBelow(1000);
  const FreqTable table = FreqTable::FromCounts(counts);
  const size_t n = 1 + rng.NextBelow(5000);
  std::vector<uint32_t> syms;
  syms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    syms.push_back(static_cast<uint32_t>(rng.NextBelow(alphabet)));
  }
  BitWriter w;
  RangeEncoder enc(w);
  for (uint32_t s : syms) enc.Encode(table, s);
  enc.Finish();
  BitReader r(w.bytes());
  RangeDecoder dec(r);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(dec.Decode(table), syms[i]) << "seed=" << GetParam() << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeCoderProperty,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------- P3 ------
class ChunkingProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkingProperty, ChunkedEqualsWhole) {
  const size_t chunk_tokens = GetParam();  // multiples of the group size
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  const ContextSpec ctx{8800 + chunk_tokens, 120};
  const KVCache full = model.Prefill(ctx);
  const KVEncoder enc(SharedProfile(), DefaultLevel());
  const KVDecoder dec(SharedProfile(), DefaultLevel());

  const KVCache whole = dec.DecodeChunk(enc.EncodeChunk(full));
  KVCache stitched;
  for (size_t b = 0; b < 120; b += chunk_tokens) {
    const size_t e = std::min(b + chunk_tokens, static_cast<size_t>(120));
    stitched.AppendTokens(dec.DecodeChunk(enc.EncodeChunk(full.SliceTokens(b, e))));
  }
  ASSERT_EQ(stitched.num_tokens(), whole.num_tokens());
  EXPECT_DOUBLE_EQ(stitched.Mse(whole), 0.0) << "chunk=" << chunk_tokens;
}

INSTANTIATE_TEST_SUITE_P(GroupAlignedChunks, ChunkingProperty,
                         ::testing::Values(10, 20, 30, 40, 60, 120));

// ---------------------------------------------------------------- P4 ------
struct AdaptCase {
  double slo_s;
  double gbps;
  double elapsed_s;
};

class AdapterProperty : public ::testing::TestWithParam<AdaptCase> {};

TEST_P(AdapterProperty, LeastLossyFeasibleChosen) {
  const AdaptCase& p = GetParam();
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  ContextPlan plan;
  plan.total_tokens = 6000;
  plan.quality_per_level = {0.99, 0.98, 0.93, 0.85};
  for (size_t i = 0; i < 4; ++i) {
    ChunkPlan cp;
    cp.range = {i * 1500, (i + 1) * 1500};
    cp.bytes_per_level = {m.RawKVBytes(1500) / 16.0 * 3.2,
                          m.RawKVBytes(1500) / 16.0 * 2.3,
                          m.RawKVBytes(1500) / 16.0 * 1.7,
                          m.RawKVBytes(1500) / 16.0 * 1.2};
    plan.chunks.push_back(cp);
  }
  const Adapter adapter(cost, m, p.slo_s, 4);
  const double bps = p.gbps * 1e9 / 8.0;
  const AdaptDecision d = adapter.Choose(plan, 0, bps, p.elapsed_s);

  // Recompute the expected-delay table independently and check optimality.
  const double remaining = p.slo_s - p.elapsed_s;
  const double text_s = plan.text_bytes_per_token * 6000 / bps +
                        cost.PrefillSeconds(m, 6000, 1.0);
  std::vector<std::pair<StreamConfig, double>> options;
  options.push_back({{true, 0}, text_s});
  for (int lv = 0; lv < 4; ++lv) {
    options.push_back({{false, lv}, plan.BytesAtLevel(0, lv) / bps});
  }
  const StreamConfig expected = [&] {
    for (const auto& [config, delay] : options) {
      if (delay <= remaining) return config;
    }
    auto best = options[0];
    for (const auto& o : options) {
      if (o.second < best.second) best = o;
    }
    return best.first;
  }();
  EXPECT_EQ(d.config, expected)
      << "slo=" << p.slo_s << " gbps=" << p.gbps << " elapsed=" << p.elapsed_s;

  // Feasibility flag consistent with the SLO arithmetic.
  if (d.feasible) {
    EXPECT_LE(d.expected_remaining_s, remaining + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SloBandwidthGrid, AdapterProperty,
    ::testing::Values(AdaptCase{10.0, 3.0, 0.0}, AdaptCase{2.0, 3.0, 0.0},
                      AdaptCase{1.0, 3.0, 0.0}, AdaptCase{0.5, 3.0, 0.0},
                      AdaptCase{1.0, 0.4, 0.0}, AdaptCase{1.0, 20.0, 0.0},
                      AdaptCase{2.0, 3.0, 1.5}, AdaptCase{2.0, 3.0, 1.95},
                      AdaptCase{0.3, 0.1, 0.0}, AdaptCase{5.0, 1.0, 2.0}));

// ---------------------------------------------------------------- P5 ------
class TraceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceProperty, TransferAlgebra) {
  const auto trace =
      BandwidthTrace::Random(GetParam(), 0.1, 10.0, 0.5, 30.0);
  Rng rng(GetParam() * 31 + 7);
  for (int i = 0; i < 20; ++i) {
    const double bytes = rng.Uniform(1e6, 5e8);
    const double start = rng.Uniform(0.0, 20.0);
    const double whole = trace.TransferSeconds(bytes, start);
    // Additivity: sending in two halves back-to-back takes the same time.
    const double h1 = trace.TransferSeconds(bytes / 2, start);
    const double h2 = trace.TransferSeconds(bytes / 2, start + h1);
    EXPECT_NEAR(whole, h1 + h2, 1e-6);
    // Conservation: bytes deliverable in the transfer window equal the load.
    EXPECT_NEAR(trace.BytesIn(start, start + whole), bytes, bytes * 1e-9 + 1.0);
    // Monotonicity in bytes.
    EXPECT_GE(whole, trace.TransferSeconds(bytes * 0.5, start));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty, ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------- P6 ------
// The replaced forms. Where lround's result is unspecified (NaN, a magnitude
// of 2^63 or more) they are compared as glibc on x86-64 computes them:
// lround returns LONG_MIN, which the clamps map to their lower bound.
uint32_t LroundHistBinOf(double normalized) {
  const double pos = (normalized + KVProfile::kHistRange) /
                     (2.0 * KVProfile::kHistRange) * KVProfile::kHistBins;
  const long b = std::lround(std::floor(pos));
  return static_cast<uint32_t>(
      std::clamp(b, 0L, static_cast<long>(KVProfile::kHistBins - 1)));
}

long LroundClamped(double v, long lim) { return std::clamp(std::lround(v), -lim, lim); }

// Every value, its neighbours one ulp away, and its negation.
void AddWithNeighbours(std::vector<double>& xs, double x) {
  for (double v : {x, -x}) {
    xs.push_back(v);
    xs.push_back(std::nextafter(v, -std::numeric_limits<double>::infinity()));
    xs.push_back(std::nextafter(v, std::numeric_limits<double>::infinity()));
  }
}

// Random finite doubles over every exponent, random values at data scale,
// ±0, the subnormal and normal extremes, huge magnitudes and NaN.
std::vector<double> RoundingInputs(uint64_t seed) {
  std::vector<double> xs;
  Rng rng(seed);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t bits = rng.NextU64();
    double x;
    std::memcpy(&x, &bits, sizeof x);
    if (std::isfinite(x)) xs.push_back(x);
    xs.push_back(rng.Gaussian(0.0, 4.0));
    xs.push_back(rng.Uniform(-300.0, 300.0));
  }
  for (double x : {0.0, std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::min(), 1e-300, 1e300,
                   std::numeric_limits<double>::max(), 0x1p52, 0x1p62, 0x1p63,
                   0x1p64}) {
    AddWithNeighbours(xs, x);
  }
  xs.push_back(std::numeric_limits<double>::quiet_NaN());
  xs.push_back(-std::numeric_limits<double>::quiet_NaN());
  return xs;
}

TEST(RoundingProperty, HistBinOfEqualsLroundFloorForm) {
  std::vector<double> xs = RoundingInputs(61);
  // Normalized values that put pos on and beside every bin edge, including
  // pos = 0, 1, 255 and 256 and the edges just outside the range.
  for (int k = -2; k <= KVProfile::kHistBins + 2; ++k) {
    AddWithNeighbours(xs, -KVProfile::kHistRange +
                              k * (2.0 * KVProfile::kHistRange) / KVProfile::kHistBins);
  }
  // Normalized values whose pos lands at and around 2^63.
  for (double pos : {0x1p62, 0x1p63, 0x1p64}) AddWithNeighbours(xs, pos / 16.0 - 8.0);
  for (double x : xs) {
    ASSERT_EQ(KVProfile::HistBinOf(x), LroundHistBinOf(x)) << std::hexfloat << x;
  }
  // Infinities: -inf is below the range; +inf, like every pos >= 2^63
  // (which lround cannot represent), is counted in bin 0 too, as before.
  EXPECT_EQ(KVProfile::HistBinOf(-std::numeric_limits<double>::infinity()), 0u);
  EXPECT_EQ(KVProfile::HistBinOf(std::numeric_limits<double>::infinity()), 0u);
  EXPECT_EQ(KVProfile::HistBinOf(std::numeric_limits<double>::quiet_NaN()), 0u);
}

TEST(RoundingProperty, ClampedLroundEqualsLroundForm) {
  for (long lim : {long{KVProfile::kAnchorMaxSym}, long{KVProfile::kDeltaMaxSym}}) {
    std::vector<double> xs = RoundingInputs(static_cast<uint64_t>(lim));
    // Ties and their neighbours across and beyond the clamp range.
    for (long k = -lim - 3; k <= lim + 3; ++k) {
      AddWithNeighbours(xs, static_cast<double>(k));
      AddWithNeighbours(xs, static_cast<double>(k) + 0.5);
    }
    AddWithNeighbours(xs, 0.49999999999999994);
    for (double x : xs) {
      ASSERT_EQ(ClampedLround(x, lim), LroundClamped(x, lim))
          << std::hexfloat << x << " lim " << lim;
    }
    // Infinities: -inf clamps to -lim; +inf, which lround cannot represent,
    // also gives -lim, as the lround form did.
    EXPECT_EQ(ClampedLround(-std::numeric_limits<double>::infinity(), lim), -lim);
    EXPECT_EQ(ClampedLround(std::numeric_limits<double>::infinity(), lim), -lim);
  }
}

// The kernels' reference: the scalar clamp(std::lround(q)) + max_sym, with
// the kernels' one documented divergence, saturation before conversion, so
// that magnitudes lround cannot represent (and infinities) compare too.
uint32_t LroundSymbol(double q, uint32_t max_sym) {
  const long lim = static_cast<long>(max_sym);
  const double sat = std::clamp(q, -0x1p40, 0x1p40);
  return static_cast<uint32_t>(std::clamp(std::lround(sat), -lim, lim) + lim);
}

// Finite inputs, exact ±k.5 ties and their ulp neighbours across and beyond
// the clamp range, ±0 and ±inf.
std::vector<double> KernelInputs(uint32_t max_sym) {
  std::vector<double> xs;
  for (double x : RoundingInputs(max_sym)) {
    if (std::isfinite(x)) xs.push_back(x);
  }
  const long lim = static_cast<long>(max_sym);
  for (long k = -lim - 3; k <= lim + 3; ++k) {
    AddWithNeighbours(xs, static_cast<double>(k));
    AddWithNeighbours(xs, static_cast<double>(k) + 0.5);
  }
  AddWithNeighbours(xs, 0.49999999999999994);
  for (double x : {0x1p31, 0x1p32, 1e300}) AddWithNeighbours(xs, x);
  xs.push_back(std::numeric_limits<double>::infinity());
  xs.push_back(-std::numeric_limits<double>::infinity());
  return xs;
}

TEST(RoundingProperty, QuantizeRowEqualsLroundForm) {
  for (uint32_t max_sym : {static_cast<uint32_t>(KVProfile::kAnchorMaxSym),
                           static_cast<uint32_t>(KVProfile::kDeltaMaxSym)}) {
    // q = (double(x) - offset) / sigma / bin. x = 0 with sigma = bin = 1 puts
    // every double on the rounding step exactly (q = -offset); the random
    // rows drive the full two-division path.
    const std::vector<double> qs = KernelInputs(max_sym);
    const size_t n = qs.size();
    std::vector<float> x(n, 0.0f);
    std::vector<double> offset(n), sigma(n, 1.0);
    std::vector<uint32_t> syms(n);
    for (size_t i = 0; i < n; ++i) offset[i] = -qs[i];
    QuantizeRow(x.data(), offset.data(), sigma.data(), 1.0, max_sym, n, syms.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(syms[i], LroundSymbol(qs[i], max_sym))
          << std::hexfloat << qs[i] << " max_sym " << max_sym;
    }
    Rng rng(max_sym);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.Gaussian(0.0, 6.0));
      offset[i] = rng.Gaussian(0.0, 2.0);
      sigma[i] = rng.Uniform(0.05, 3.0);
    }
    const double bin = 0.37;
    QuantizeRow(x.data(), offset.data(), sigma.data(), bin, max_sym, n, syms.data());
    for (size_t i = 0; i < n; ++i) {
      const double q = (static_cast<double>(x[i]) - offset[i]) / sigma[i] / bin;
      ASSERT_EQ(syms[i], LroundSymbol(q, max_sym)) << std::hexfloat << q;
    }
  }
}

TEST(RoundingProperty, QuantizeAnchorRowEqualsLroundForm) {
  const uint32_t max_sym = KVProfile::kAnchorMaxSym;
  // q = double(x) / scale. Float x over ties (k.5 is exact in float) and
  // their float neighbours at scale 1, then random bit patterns and data
  // values over random scales.
  std::vector<float> x;
  std::vector<double> scale;
  for (double q : KernelInputs(max_sym)) {
    const float f = static_cast<float>(q);
    for (float v : {f, std::nextafter(f, -INFINITY), std::nextafter(f, INFINITY)}) {
      x.push_back(v);
      scale.push_back(1.0);
    }
  }
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const uint32_t bits = static_cast<uint32_t>(rng.NextU64());
    float f;
    std::memcpy(&f, &bits, sizeof f);
    if (std::isfinite(f)) {
      x.push_back(f);
      scale.push_back(rng.Uniform(1e-3, 4.0));
    }
    x.push_back(static_cast<float>(rng.Gaussian(0.0, 3.0)));
    scale.push_back(rng.Uniform(1e-3, 0.1));
  }
  const size_t n = x.size();
  std::vector<uint32_t> syms(n);
  std::vector<double> ref(n);
  QuantizeAnchorRow(x.data(), scale.data(), max_sym, n, syms.data(), ref.data());
  for (size_t i = 0; i < n; ++i) {
    const double q = static_cast<double>(x[i]) / scale[i];
    ASSERT_EQ(syms[i], LroundSymbol(q, max_sym)) << std::hexfloat << x[i] << " / " << scale[i];
    ASSERT_EQ(ref[i], (static_cast<double>(syms[i]) - max_sym) * scale[i]);
  }
}

// ---------------------------------------------------------------- P7 ------
struct LayerCase {
  size_t prefix_tokens;  // 0 = plain context
  size_t begin, end;
};

class PrefillLayerProperty : public ::testing::TestWithParam<LayerCase> {};

TEST_P(PrefillLayerProperty, EqualsLayerOfPrefillRange) {
  const LayerCase& p = GetParam();
  const SyntheticModel model(ModelConfig::Preset("llama-3b"));
  ContextSpec ctx{0x1A7E5ULL, 300};
  ctx.prefix_seed = 0xFA417ULL;
  ctx.prefix_tokens = p.prefix_tokens;
  const KVCache range = model.PrefillRange(ctx, p.begin, p.end);
  for (size_t l = 0; l < range.num_layers(); ++l) {
    const KVLayer layer = model.PrefillLayer(ctx, l, p.begin, p.end);
    for (int kind = 0; kind < 2; ++kind) {
      const Tensor& a = kind == 0 ? layer.k : layer.v;
      const Tensor& b = kind == 0 ? range.layer(l).k : range.layer(l).v;
      ASSERT_TRUE(a.SameShape(b)) << "layer " << l;
      if (a.empty()) continue;
      ASSERT_EQ(std::memcmp(a.Data().data(), b.Data().data(), a.size() * sizeof(float)), 0)
          << "layer " << l << " kind " << kind;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlainAndComposed, PrefillLayerProperty,
    ::testing::Values(LayerCase{0, 0, 300}, LayerCase{0, 1, 2}, LayerCase{0, 137, 251},
                      LayerCase{0, 300, 300}, LayerCase{120, 0, 300},
                      LayerCase{120, 0, 120}, LayerCase{120, 119, 121},
                      LayerCase{120, 120, 300}, LayerCase{120, 200, 299},
                      LayerCase{300, 10, 300}));

TEST(PrefillLayer, Validation) {
  const SyntheticModel model(ModelConfig::Preset("llama-3b"));
  EXPECT_THROW(model.PrefillLayer({1, 10}, 0, 5, 3), std::out_of_range);
  EXPECT_THROW(model.PrefillLayer({1, 10}, 0, 0, 11), std::out_of_range);
  EXPECT_THROW(model.PrefillLayer({1, 10}, model.config().num_layers, 0, 10),
               std::out_of_range);
}

}  // namespace
}  // namespace cachegen

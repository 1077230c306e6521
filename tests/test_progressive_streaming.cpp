// Progressive (§9) KV delivery: layered base+enhancement streaming through
// the adapter and the two-pass KVStreamer timeline, plus the layered store
// path through Engine and ShardedKVStore.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "codec/encoding_level.h"
#include "codec/layered_encoder.h"
#include "llm/cost_model.h"
#include "llm/quality_model.h"
#include "llm/synthetic_model.h"
#include "net/link.h"
#include "obs/metrics.h"
#include "prefix/prefix_cache.h"
#include "serving/engine.h"
#include "storage/sharded_kv_store.h"
#include "streamer/streamer.h"

namespace cachegen {
namespace {

// A hand-built layered plan: per-level base sizes from bits/element at the
// real Mistral-7B geometry, enhancement layers that refine each base level
// toward (near-)losslessness.
ContextPlan MakeLayeredPlan(size_t chunks, size_t tokens_per_chunk = 1500) {
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const std::vector<double> bits_per_level = {3.2, 2.3, 1.7, 1.2};
  const std::vector<double> enh_bits_per_level = {1.2, 1.6, 2.0, 2.4};
  ContextPlan plan;
  plan.total_tokens = chunks * tokens_per_chunk;
  plan.quality_per_level = {0.995, 0.98, 0.93, 0.85};
  plan.quality_enhanced_per_level = {0.999, 0.997, 0.99, 0.97};
  for (size_t i = 0; i < chunks; ++i) {
    ChunkPlan cp;
    cp.range = {i * tokens_per_chunk, (i + 1) * tokens_per_chunk};
    for (double bits : bits_per_level) {
      cp.bytes_per_level.push_back(m.RawKVBytes(tokens_per_chunk) / 16.0 * bits);
    }
    for (double bits : enh_bits_per_level) {
      cp.enh_bytes_per_level.push_back(m.RawKVBytes(tokens_per_chunk) / 16.0 * bits);
    }
    plan.chunks.push_back(cp);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Adapter: enhancement-pass decisions.
// ---------------------------------------------------------------------------

TEST(AdapterEnhancement, PicksHighestGainPerByteThatFits) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const Adapter adapter(cost, m, /*slo_s=*/2.0, 4);
  const std::vector<Adapter::EnhancementOption> opts = {
      {0, 1e6, 1.0},   // 1.0e-6 gain/byte
      {1, 1e6, 5.0},   // 5.0e-6 gain/byte — best
      {2, 2e6, 8.0},   // 4.0e-6 gain/byte
  };
  // 10 MB/s, 1 s left: every option fits; highest gain per byte wins.
  const auto pick = adapter.ChooseEnhancement(opts, 10e6, 1.0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);
}

TEST(AdapterEnhancement, SkipsOptionsThatMissTheDeadline) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const Adapter adapter(cost, m, /*slo_s=*/2.0, 4);
  const std::vector<Adapter::EnhancementOption> opts = {
      {0, 50e6, 100.0},  // 5 s at 10 MB/s — does not fit
      {1, 5e6, 1.0},     // 0.5 s — fits
  };
  const auto pick = adapter.ChooseEnhancement(opts, 10e6, 1.0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);
}

TEST(AdapterEnhancement, NothingFitsReturnsNullopt) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const Adapter adapter(cost, m, /*slo_s=*/2.0, 4);
  const std::vector<Adapter::EnhancementOption> opts = {{0, 50e6, 100.0}};
  EXPECT_FALSE(adapter.ChooseEnhancement(opts, 10e6, 1.9).has_value());
  EXPECT_FALSE(adapter
                   .ChooseEnhancement(std::vector<Adapter::EnhancementOption>{},
                                      10e6, 0.0)
                   .has_value());
  EXPECT_THROW(adapter.ChooseEnhancement(opts, 0.0, 0.0), std::invalid_argument);
}

TEST(AdapterEnhancement, ChooseBaseMarksLayeredAndReportsSlack) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const Adapter adapter(cost, m, /*slo_s=*/0.8, 4);
  const ContextPlan plan = MakeLayeredPlan(4);
  const AdaptDecision d = adapter.ChooseBase(plan, 0, 20e9 / 8.0, 0.0);
  EXPECT_FALSE(d.config.text);
  EXPECT_TRUE(d.config.layered);
  EXPECT_TRUE(d.feasible);
  EXPECT_GT(d.enhancement_slack_s, 0.0);
  // Without layered data, the same pick is not marked layered.
  ContextPlan bare = plan;
  bare.quality_enhanced_per_level.clear();
  const AdaptDecision b = adapter.ChooseBase(bare, 0, 20e9 / 8.0, 0.0);
  EXPECT_FALSE(b.config.layered);
  EXPECT_EQ(b.config.level_id, d.config.level_id);
}

// ---------------------------------------------------------------------------
// KVStreamer: the two-pass progressive timeline.
// ---------------------------------------------------------------------------

TEST(ProgressiveStreamer, BasePassMatchesAdaptiveAndEnhancesWithSlack) {
  // SLO below text-recompute time so the adapter must pick KV levels; ample
  // bandwidth leaves slack after the base pass for the enhancement pass.
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakeLayeredPlan(4);
  const auto trace = BandwidthTrace::Constant(20.0);
  const KVStreamer streamer(cost, m, /*slo_s=*/0.8, 4);

  Link la(trace);
  const StreamResult adaptive = streamer.Stream(plan, la).Get();
  Link lp(trace);
  const StreamResult progressive =
      streamer.Stream(plan, lp, 1.0, std::nullopt, StreamMode::kProgressive).Get();

  // The base pass makes identical decisions on an identical timeline, so the
  // met-SLO outcome can never differ from non-layered adaptive streaming.
  ASSERT_GE(progressive.steps.size(), plan.chunks.size());
  for (size_t i = 0; i < plan.chunks.size(); ++i) {
    EXPECT_EQ(progressive.steps[i].config.text, adaptive.steps[i].config.text);
    EXPECT_EQ(progressive.steps[i].config.level_id, adaptive.steps[i].config.level_id);
    EXPECT_DOUBLE_EQ(progressive.steps[i].tx_end_s, adaptive.steps[i].tx_end_s);
  }
  EXPECT_EQ(progressive.slo_violated, adaptive.slo_violated);
  EXPECT_DOUBLE_EQ(progressive.load_finish_s, adaptive.load_finish_s);
  EXPECT_DOUBLE_EQ(progressive.base_quality, adaptive.quality);

  // Slack exists, so enhancements land and lift quality strictly above the
  // non-layered stream at the same deadline.
  EXPECT_GT(progressive.enhancements_sent, 0u);
  EXPECT_GT(progressive.quality, adaptive.quality);
  EXPECT_GT(progressive.enhanced_token_fraction, 0.0);
  EXPECT_GE(progressive.stream_finish_s, progressive.load_finish_s);
  // base + enhanced fractions partition exactly the KV-delivered tokens
  // (text chunks are lossless already and have nothing to enhance).
  double kv_tokens = 0.0;
  for (size_t i = 0; i < plan.chunks.size(); ++i) {
    if (!progressive.steps[i].config.text) {
      kv_tokens += static_cast<double>(plan.chunks[i].range.size());
    }
  }
  EXPECT_NEAR(progressive.enhanced_token_fraction +
                  progressive.base_token_fraction,
              kv_tokens / static_cast<double>(plan.total_tokens), 1e-9);
}

TEST(ProgressiveStreamer, EnhancementsStayWithinSloBudget) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakeLayeredPlan(4);
  const KVStreamer streamer(cost, m, /*slo_s=*/0.8, 4);
  Link link(BandwidthTrace::Constant(20.0));
  const StreamResult r =
      streamer.Stream(plan, link, 1.0, std::nullopt, StreamMode::kProgressive).Get();
  ASSERT_GT(r.enhancements_sent, 0u);
  for (const StreamStep& step : r.steps) {
    if (step.enhancement && !step.aborted) {
      EXPECT_LE(step.tx_end_s, 0.8 + 1e-9);
    }
  }
}

TEST(ProgressiveStreamer, BaseOnlyUnderBandwidthCliffBeatsFixedLevel) {
  // A starved link (the floor of a bandwidth cliff), a GPU too contended for
  // the text fallback: the base pass mixes coarse levels to just meet the
  // deadline and the enhancement pass finds zero slack — graceful base-only
  // delivery. Any fixed level either busts the same deadline (finer levels)
  // or delivers strictly lower quality (the coarsest level).
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakeLayeredPlan(4);
  const auto trace = BandwidthTrace::Constant(0.3);
  const double slo = 1.85;
  const double gpu_share = 0.25;  // text recompute ~3.9 s: never feasible

  Link link(trace);
  const KVStreamer streamer(cost, m, slo, 4);
  const StreamResult r = streamer.Stream(plan, link, gpu_share, /*hint=*/0.3,
                                         StreamMode::kProgressive).Get();
  EXPECT_FALSE(r.slo_violated) << "finish=" << r.load_finish_s;
  EXPECT_EQ(r.enhancements_sent, 0u);  // no slack: graceful base-only delivery
  EXPECT_DOUBLE_EQ(r.quality, r.base_quality);

  const double coarsest_q = plan.quality_per_level.back();
  EXPECT_GT(r.quality, coarsest_q);  // the base pass upgraded at least a chunk
  for (int level = 0; level < 4; ++level) {
    double t = 0.0;
    for (const auto& chunk : plan.chunks) {
      t += trace.TransferSeconds(
          chunk.bytes_per_level[static_cast<size_t>(level)], t);
    }
    const double fixed_q = plan.quality_per_level[static_cast<size_t>(level)];
    // No fixed level matches the adaptive base pass without busting the SLO.
    EXPECT_TRUE(t > slo || fixed_q < r.quality)
        << "fixed level " << level << ": time " << t << ", quality " << fixed_q;
  }
}

TEST(ProgressiveStreamer, AbortOnCollapseLeavesEveryChunkUsable) {
  // The link collapses shortly after the enhancement pass begins: the
  // in-flight enhancement is cut off mid-transfer and every chunk stays at
  // its (already delivered) base quality — nothing is lost, nothing stalls.
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakeLayeredPlan(2);
  const auto trace = BandwidthTrace::FromSegments({{0.0, 5.0}, {0.05, 0.005}});
  const KVStreamer streamer(cost, m, /*slo_s=*/1.0, 4);
  Link link(trace);
  const StreamResult r =
      streamer.Stream(plan, link, 1.0, std::nullopt, StreamMode::kProgressive).Get();

  EXPECT_FALSE(r.slo_violated);  // base pass finished well before the cliff
  EXPECT_GE(r.enhancements_aborted, 1u);
  size_t base_steps = 0;
  for (const StreamStep& step : r.steps) {
    if (!step.enhancement) {
      ++base_steps;
      EXPECT_FALSE(step.aborted);  // base layers are never cut off
    } else if (step.aborted) {
      // The abort saved the remainder of the enhancement payload.
      const double full =
          plan.EnhancementBytes(step.chunk_index, step.config.level_id);
      EXPECT_LT(step.bytes, full - 1e-6);
    }
  }
  EXPECT_EQ(base_steps, plan.chunks.size());
  // Aborted enhancements contribute nothing: quality stays between the base
  // pass and the fully-enhanced bound.
  EXPECT_GE(r.quality, r.base_quality - 1e-12);
  EXPECT_LE(r.enhanced_token_fraction, 0.5 + 1e-12);
}

TEST(ProgressiveStreamer, FallsBackToAdaptiveWithoutLayeredPlan) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  ContextPlan plan = MakeLayeredPlan(3);
  plan.quality_enhanced_per_level.clear();
  for (auto& c : plan.chunks) c.enh_bytes_per_level.clear();
  const KVStreamer streamer(cost, m, /*slo_s=*/1.0, 4);
  Link link(BandwidthTrace::Constant(10.0));
  const StreamResult r =
      streamer.Stream(plan, link, 1.0, std::nullopt, StreamMode::kProgressive).Get();
  EXPECT_EQ(r.steps.size(), plan.chunks.size());
  EXPECT_EQ(r.enhancements_sent, 0u);
  EXPECT_DOUBLE_EQ(r.quality, r.base_quality);
  for (const StreamStep& s : r.steps) EXPECT_FALSE(s.config.layered);
}

// ---------------------------------------------------------------------------
// Codec property: the base layer can never beat base + enhancement.
// ---------------------------------------------------------------------------

TEST(ProgressiveCodecProperty, DecodeBaseQualityNeverExceedsDecodeFull) {
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  std::vector<KVCache> calib;
  std::vector<const KVCache*> ptrs;
  for (uint64_t i = 0; i < 8; ++i) calib.push_back(model.Prefill({300 + i, 200}));
  for (const auto& c : calib) ptrs.push_back(&c);
  const auto profile = std::make_shared<KVProfile>(KVProfile::Build(cfg, ptrs));
  const QualityModel qm;

  for (const EncodingLevel& level : DefaultEncodingLevels()) {
    const LayeredEncoder layered(profile, level, 0.25);
    for (uint64_t seed : {901u, 902u, 903u}) {
      const KVCache chunk = model.Prefill({seed, 64});
      const LayeredChunk lc = layered.Encode(chunk);
      const double q_base = qm.QualityFromKV(chunk, layered.DecodeBase(lc));
      const double q_full = qm.QualityFromKV(chunk, layered.DecodeFull(lc));
      EXPECT_LE(q_base, q_full + 1e-12)
          << "level " << level.id << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine + ShardedKVStore: layered streams are storable and retrievable.
// ---------------------------------------------------------------------------

TEST(LayeredStorePath, StoreLayeredKVRoundTripsThroughShardedStore) {
  Engine::Options eopts;
  eopts.calib_context_tokens = 400;
  eopts.calib_num_contexts = 4;
  eopts.chunk_tokens = 300;
  eopts.layered_calib_tokens = 0;  // keep this engine's calibration lean
  auto store = std::make_shared<ShardedKVStore>(ShardedKVStore::Options{});
  Engine engine(eopts, store);

  const ContextSpec ctx{777, 600};  // two chunks
  const int base_level = 2;
  engine.StoreLayeredKV("layered-ctx", ctx, base_level);

  const KVCache cache = engine.CalculateKV(ctx);
  for (uint32_t chunk = 0; chunk < 2; ++chunk) {
    const auto lc = engine.GetLayeredKV("layered-ctx", chunk, base_level);
    ASSERT_TRUE(lc.has_value());
    EXPECT_GT(lc->enhancement.size(), 0u);
    const KVCache full = engine.LayeredFor(base_level).DecodeFull(*lc);
    const KVCache base = engine.LayeredFor(base_level).DecodeBase(*lc);
    const KVCache ref =
        cache.SliceTokens(chunk * 300, std::min<size_t>((chunk + 1) * 300, 600));
    const QualityModel& qm = engine.quality_model();
    EXPECT_GT(qm.QualityFromKV(ref, full), qm.QualityFromKV(ref, base) - 1e-12);
  }
  // Levels are namespaced: the layered container does not shadow the plain
  // per-level containers, and an un-stored level comes back empty.
  EXPECT_FALSE(engine.GetLayeredKV("layered-ctx", 0, base_level + 1).has_value());
  EXPECT_FALSE(engine.GetKV("layered-ctx", 0, base_level).has_value());
}

TEST(LayeredStorePath, PlanFromCalibrationCarriesLayeredData) {
  Engine::Options eopts;
  eopts.calib_context_tokens = 400;
  eopts.calib_num_contexts = 4;
  eopts.layered_calib_tokens = 256;
  Engine engine(eopts);
  const ContextPlan plan = engine.PlanFromCalibration(3000);
  ASSERT_TRUE(plan.HasLayered());
  ASSERT_EQ(plan.quality_enhanced_per_level.size(), plan.quality_per_level.size());
  for (size_t lv = 0; lv < plan.quality_per_level.size(); ++lv) {
    EXPECT_GT(plan.quality_enhanced_per_level[lv],
              plan.quality_per_level[lv] - 1e-12);
    EXPECT_GT(plan.EnhancementBytes(0, static_cast<int>(lv)), 0.0);
  }
  // Coarser bases leave more residual to code: enhancement layers grow down
  // the ladder.
  EXPECT_GT(plan.EnhancementBytes(0, 3), plan.EnhancementBytes(0, 0));

}

// StoreKV's plan is PlanFromCalibration with the real wire sizes of the
// chunks it encoded: enhancement layers are priced from calibration for
// every chunk (fresh or dedup-covered), covered chunks keep calibrated base
// sizes, and the write path never decodes.
TEST(LayeredStorePath, StoreKVPricesEnhancementFromCalibration) {
  Engine::Options eopts;
  eopts.calib_context_tokens = 400;
  eopts.calib_num_contexts = 4;
  eopts.layered_calib_tokens = 256;
  eopts.chunk_tokens = 200;
  PrefixCache::Options popts;
  popts.chunk_tokens = eopts.chunk_tokens;
  auto pc = std::make_shared<PrefixCache>(
      std::make_shared<ShardedKVStore>(
          ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0}),
      popts);
  Engine engine(eopts, pc);
  engine.calibration();  // calibration decodes; keep it out of the deltas
  const obs::Counter& decoded =
      obs::MetricsRegistry::Instance().GetCounter("codec.chunks_decoded");

  std::vector<int32_t> level_ids;
  for (const auto& lv : DefaultEncodingLevels()) level_ids.push_back(lv.id);
  // Two members of one family: 500 tokens over a 400-token shared prefix,
  // so the second finds its two pure-prefix chunks already stored.
  const ContextSpec first{.seed = 41, .num_tokens = 500,
                          .prefix_seed = 0xFA11ULL, .prefix_tokens = 400};
  ContextSpec second = first;
  second.seed = 42;
  size_t covered_chunks = 0;
  for (const auto& [id, spec] : {std::pair{"fam-first", first},
                                 std::pair{"fam-second", second}}) {
    SCOPED_TRACE(id);
    pc->BeginStore(id, spec);
    const ContextPlan calib = engine.PlanFromCalibration(spec.num_tokens);
    const std::vector<bool> covered =
        pc->PreStoreCoverage(id, calib.chunks.size(), level_ids);
    const uint64_t decoded_before = decoded.Value();
    const ContextPlan stored = engine.StoreKV(id, spec);
    EXPECT_EQ(decoded.Value(), decoded_before);

    ASSERT_TRUE(stored.HasLayered());
    ASSERT_EQ(stored.chunks.size(), calib.chunks.size());
    for (size_t i = 0; i < stored.chunks.size(); ++i) {
      const ChunkPlan& cp = stored.chunks[i];
      EXPECT_EQ(cp.enh_bytes_per_level, calib.chunks[i].enh_bytes_per_level);
      if (covered[i]) {
        ++covered_chunks;
        EXPECT_EQ(cp.bytes_per_level, calib.chunks[i].bytes_per_level);
        continue;
      }
      for (size_t lv = 0; lv < level_ids.size(); ++lv) {
        const auto enc =
            engine.GetKV(id, static_cast<uint32_t>(i), level_ids[lv]);
        ASSERT_TRUE(enc.has_value());
        EXPECT_EQ(cp.bytes_per_level[lv],
                  static_cast<double>(enc->WireBytes()) *
                      engine.model().size_scale());
      }
    }
  }
  EXPECT_EQ(covered_chunks, 2u);  // the second member's prefix chunks
}

}  // namespace
}  // namespace cachegen

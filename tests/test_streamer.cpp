#include <gtest/gtest.h>

#include "llm/cost_model.h"
#include "net/link.h"
#include "streamer/adaptation.h"
#include "streamer/batch.h"
#include "streamer/chunking.h"
#include "streamer/streamer.h"

namespace cachegen {
namespace {

// A hand-built plan: `chunks` chunks of `tokens_per_chunk`, with per-level
// sizes derived from bits/element at the real Mistral-7B geometry.
ContextPlan MakePlan(size_t chunks, size_t tokens_per_chunk = 1500) {
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const std::vector<double> bits_per_level = {3.2, 2.3, 1.7, 1.2};
  ContextPlan plan;
  plan.total_tokens = chunks * tokens_per_chunk;
  plan.quality_per_level = {0.995, 0.98, 0.93, 0.85};
  for (size_t i = 0; i < chunks; ++i) {
    ChunkPlan cp;
    cp.range = {i * tokens_per_chunk, (i + 1) * tokens_per_chunk};
    for (double bits : bits_per_level) {
      cp.bytes_per_level.push_back(m.RawKVBytes(tokens_per_chunk) / 16.0 * bits);
    }
    plan.chunks.push_back(cp);
  }
  return plan;
}

TEST(Chunking, SplitCoversAllTokens) {
  const auto chunks = SplitIntoChunks(9600, 1500);
  EXPECT_EQ(chunks.size(), 7u);
  EXPECT_EQ(chunks.front().begin, 0u);
  EXPECT_EQ(chunks.back().end, 9600u);
  size_t total = 0;
  for (const auto& c : chunks) total += c.size();
  EXPECT_EQ(total, 9600u);
}

TEST(Chunking, ExactMultiple) {
  const auto chunks = SplitIntoChunks(3000, 1500);
  EXPECT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[1].size(), 1500u);
}

TEST(Chunking, EmptyAndValidation) {
  EXPECT_TRUE(SplitIntoChunks(0).empty());
  EXPECT_THROW(SplitIntoChunks(100, 0), std::invalid_argument);
}

TEST(Chunking, PlanAccounting) {
  const ContextPlan plan = MakePlan(4);
  EXPECT_EQ(plan.TokensFrom(0), 6000u);
  EXPECT_EQ(plan.TokensFrom(3), 1500u);
  EXPECT_GT(plan.BytesAtLevel(0, 0), plan.BytesAtLevel(0, 1));
  EXPECT_NEAR(plan.BytesAtLevel(2, 1), 2.0 * plan.chunks[0].bytes_per_level[1], 1.0);
}

TEST(Adapter, PrefersTextWhenFeasible) {
  // Algorithm 1: text is lossless, so it wins whenever recompute fits.
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const Adapter adapter(cost, m, /*slo_s=*/60.0, 4);
  const ContextPlan plan = MakePlan(2);
  const AdaptDecision d = adapter.Choose(plan, 0, 3e9 / 8.0, 0.0);
  EXPECT_TRUE(d.config.text);
  EXPECT_TRUE(d.feasible);
}

TEST(Adapter, PicksFinestFeasibleLevel) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakePlan(4);  // 6000 tokens, recompute ~1 s
  // SLO below recompute time but plenty for any level at high bandwidth.
  const Adapter adapter(cost, m, /*slo_s=*/0.8, 4);
  const AdaptDecision d = adapter.Choose(plan, 0, 20e9 / 8.0, 0.0);
  EXPECT_FALSE(d.config.text);
  EXPECT_EQ(d.config.level_id, 0);
}

TEST(Adapter, DegradesLevelUnderPressure) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakePlan(4);
  const Adapter adapter(cost, m, /*slo_s=*/0.8, 4);
  // Total level-0 size ~ 157 MB takes ~0.25 s at 5 Gbps; with 0.65 s elapsed
  // only 0.15 s remain, so a coarser level must be chosen.
  const AdaptDecision d = adapter.Choose(plan, 0, 5e9 / 8.0, 0.65);
  EXPECT_FALSE(d.config.text);
  EXPECT_GT(d.config.level_id, 0);
}

TEST(Adapter, InfeasiblePicksFastest) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakePlan(6);
  const Adapter adapter(cost, m, /*slo_s=*/0.2, 4);
  // Bandwidth so low nothing fits: decision must still be returned, marked
  // infeasible, minimizing expected delay.
  const AdaptDecision d = adapter.Choose(plan, 0, 0.05e9 / 8.0, 0.0);
  EXPECT_FALSE(d.feasible);
  // With 50 Mbps, text (few KB) + recompute (~1.5 s) beats hundreds of MB.
  EXPECT_TRUE(d.config.text);
}

TEST(Adapter, Validation) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  EXPECT_THROW(Adapter(cost, m, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Adapter(cost, m, 1.0, 0), std::invalid_argument);
  const Adapter adapter(cost, m, 1.0, 4);
  const ContextPlan plan = MakePlan(1);
  EXPECT_THROW(adapter.Choose(plan, 0, 0.0, 0.0), std::invalid_argument);
}

TEST(Streamer, AllChunksDelivered) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakePlan(5);
  Link link(BandwidthTrace::Constant(10.0));
  const KVStreamer streamer(cost, m, /*slo_s=*/2.0, 4);
  const StreamResult r = streamer.Stream(plan, link).Get();
  EXPECT_EQ(r.steps.size(), 5u);
  EXPECT_GT(r.load_finish_s, 0.0);
  EXPECT_GT(r.bytes_sent, 0.0);
  EXPECT_GT(r.quality, 0.9);
}

TEST(Streamer, MeetsSloUnderStableBandwidth) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakePlan(6);  // 9000 tokens
  Link link(BandwidthTrace::Constant(3.0));
  const KVStreamer streamer(cost, m, /*slo_s=*/1.2, 4);
  const StreamResult r = streamer.Stream(plan, link).Get();
  EXPECT_FALSE(r.slo_violated) << "finish=" << r.load_finish_s;
}

TEST(Streamer, AdaptsDownOnBandwidthDrop) {
  // Fig. 7: a mid-transfer dip forces coarser configurations (or text) on
  // later chunks while an unadaptive default-level stream busts the SLO.
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakePlan(6);
  const auto trace = BandwidthTrace::FromSegments({{0.0, 1.0}, {0.4, 0.1}});
  {
    Link link(trace);
    const KVStreamer streamer(cost, m, /*slo_s=*/3.0, 4);
    const StreamResult r = streamer.Stream(plan, link).Get();
    bool degraded = false;
    for (const auto& step : r.steps) {
      degraded |= step.config.text || step.config.level_id > 1;
    }
    EXPECT_TRUE(degraded);
    EXPECT_FALSE(r.slo_violated) << "finish=" << r.load_finish_s;
  }
  {
    // No adaptation: stream everything at the default level.
    Link link(trace);
    double t = 0.0;
    for (const auto& chunk : plan.chunks) {
      t += trace.TransferSeconds(chunk.bytes_per_level[1], t);
    }
    EXPECT_GT(t, 3.0);  // unadapted stream violates the same SLO
  }
}

TEST(Streamer, ThroughputHintUsedForFirstChunk) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakePlan(3);
  Link link(BandwidthTrace::Constant(50.0));
  const KVStreamer streamer(cost, m, /*slo_s=*/0.5, 4);
  // With a (correct) 50 Gbps hint, even the first chunk can use level 0.
  const StreamResult r = streamer.Stream(plan, link, 1.0, 50.0).Get();
  EXPECT_EQ(r.steps[0].config.level_id, 0);
  EXPECT_FALSE(r.steps[0].config.text);
}

TEST(Streamer, QualityReflectsChosenLevels) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakePlan(4);
  Link fast(BandwidthTrace::Constant(100.0));
  Link slow(BandwidthTrace::Constant(1.2));
  const KVStreamer streamer(cost, m, /*slo_s=*/1.0, 4);
  const double q_fast = streamer.Stream(plan, fast).Get().quality;
  const double q_slow = streamer.Stream(plan, slow).Get().quality;
  EXPECT_GE(q_fast, q_slow);
}

TEST(BatchStreamer, SingleRequestMatchesStreamerShape) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const std::vector<ContextPlan> plans = {MakePlan(3)};
  Link link(BandwidthTrace::Constant(10.0));
  const BatchStreamer bs(cost, m, /*slo_s=*/2.0, 4);
  const BatchResult r = bs.Stream(plans, link);
  ASSERT_EQ(r.per_request.size(), 1u);
  EXPECT_EQ(r.per_request[0].steps.size(), 3u);
  EXPECT_DOUBLE_EQ(r.makespan_s, r.per_request[0].load_finish_s);
}

TEST(BatchStreamer, MoreRequestsHigherTTFT) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const BatchStreamer bs(cost, m, /*slo_s=*/8.0, 4);
  double prev = 0.0;
  for (size_t n : {1u, 2u, 4u}) {
    std::vector<ContextPlan> plans(n, MakePlan(3));
    Link link(BandwidthTrace::Constant(10.0));
    const BatchResult r = bs.Stream(plans, link);
    EXPECT_GT(r.makespan_s, prev);
    prev = r.makespan_s;
  }
}

TEST(BatchStreamer, UnevenRequestLengths) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const std::vector<ContextPlan> plans = {MakePlan(2), MakePlan(5)};
  Link link(BandwidthTrace::Constant(20.0));
  const BatchStreamer bs(cost, m, /*slo_s=*/4.0, 4);
  const BatchResult r = bs.Stream(plans, link);
  EXPECT_EQ(r.per_request[0].steps.size(), 2u);
  EXPECT_EQ(r.per_request[1].steps.size(), 5u);
  EXPECT_LE(r.per_request[0].load_finish_s, r.per_request[1].load_finish_s);
}

TEST(BatchStreamer, EmptyBatch) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  Link link(BandwidthTrace::Constant(1.0));
  const BatchStreamer bs(cost, m, 1.0, 4);
  const BatchResult r = bs.Stream({}, link);
  EXPECT_TRUE(r.per_request.empty());
  EXPECT_DOUBLE_EQ(r.makespan_s, 0.0);
}

}  // namespace
}  // namespace cachegen

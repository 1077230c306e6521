// Extended streamer coverage: randomized-trace invariants, chunk-length
// sensitivity (design decision §5.3), batching fairness, and SLO boundary
// behaviour.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "llm/cost_model.h"
#include "net/link.h"
#include "streamer/batch.h"
#include "streamer/streamer.h"

namespace cachegen {
namespace {

ContextPlan MakePlan(size_t tokens, size_t chunk_tokens) {
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const std::vector<double> bits_per_level = {2.6, 2.0, 1.4, 1.0};
  ContextPlan plan;
  plan.total_tokens = tokens;
  plan.quality_per_level = {0.995, 0.98, 0.93, 0.85};
  for (const ChunkRange& range : SplitIntoChunks(tokens, chunk_tokens)) {
    ChunkPlan cp;
    cp.range = range;
    for (double bits : bits_per_level) {
      cp.bytes_per_level.push_back(m.RawKVBytes(range.size()) / 16.0 * bits);
    }
    plan.chunks.push_back(cp);
  }
  return plan;
}

class RandomTraceStreamer : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTraceStreamer, InvariantsHoldOnRandomTraces) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakePlan(9000, 1500);
  const auto trace = BandwidthTrace::Random(GetParam(), 0.1, 10.0, 0.3, 120.0);
  Link link(trace);
  const KVStreamer streamer(cost, m, /*slo_s=*/1.0, 4);
  const StreamResult r = streamer.Stream(plan, link).Get();

  // Every chunk delivered exactly once, in order, with consistent timing.
  ASSERT_EQ(r.steps.size(), plan.chunks.size());
  double prev_end = 0.0;
  for (size_t i = 0; i < r.steps.size(); ++i) {
    EXPECT_EQ(r.steps[i].chunk_index, i);
    EXPECT_GE(r.steps[i].tx_start_s, prev_end - 1e-9);
    EXPECT_GE(r.steps[i].tx_end_s, r.steps[i].tx_start_s);
    EXPECT_GE(r.steps[i].gpu_done_s, r.steps[i].tx_end_s);
    prev_end = r.steps[i].tx_end_s;
  }
  // Quality is a convex combination of per-level qualities and 1.0 (text).
  EXPECT_GE(r.quality, 0.85 - 1e-9);
  EXPECT_LE(r.quality, 1.0 + 1e-9);
  // The load can never finish before the last transfer ends.
  EXPECT_GE(r.load_finish_s, r.steps.back().tx_end_s - r.steps.front().tx_start_s - 1e-9);
  // Violation flag consistent with the SLO arithmetic.
  EXPECT_EQ(r.slo_violated, r.load_finish_s > 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTraceStreamer,
                         ::testing::Range<uint64_t>(1, 16));

class ChunkLengthSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkLengthSweep, AllChunkLengthsDeliverWithinLooseSlo) {
  // §5.3's chunk-length discussion: shorter chunks react faster, longer
  // chunks batch better; all reasonable lengths must still work end to end.
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakePlan(9000, GetParam());
  Link link(BandwidthTrace::FromSegments({{0.0, 3.0}, {0.3, 0.5}}));
  const KVStreamer streamer(cost, m, /*slo_s=*/4.0, 4);
  const StreamResult r = streamer.Stream(plan, link).Get();
  EXPECT_FALSE(r.slo_violated) << "chunk=" << GetParam()
                               << " finish=" << r.load_finish_s;
  EXPECT_EQ(r.steps.size(), plan.chunks.size());
}

INSTANTIATE_TEST_SUITE_P(Lengths, ChunkLengthSweep,
                         ::testing::Values(300, 750, 1500, 3000, 4500));

TEST(ChunkLengthTradeoff, ShorterChunksAdaptFasterUnderDip) {
  // With a sharp early dip, fine chunking reacts within one small chunk and
  // loses less quality headroom than coarse chunking, which commits a huge
  // first chunk at the default level before it can react.
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const auto trace = BandwidthTrace::FromSegments({{0.0, 0.15}});
  auto finish_with = [&](size_t chunk_tokens) {
    const ContextPlan plan = MakePlan(9000, chunk_tokens);
    Link link(trace);
    const KVStreamer streamer(cost, m, /*slo_s=*/3.0, 4);
    return streamer.Stream(plan, link).Get();
  };
  const StreamResult fine = finish_with(750);
  const StreamResult coarse = finish_with(4500);
  // Both adapt eventually; the fine-chunked stream commits less at the
  // (too-optimistic) default level up front.
  EXPECT_LE(fine.steps[0].bytes, coarse.steps[0].bytes);
  EXPECT_LE(fine.load_finish_s, coarse.load_finish_s + 1.0);
}

TEST(BatchFairness, EqualRequestsFinishTogether) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const std::vector<ContextPlan> plans(3, MakePlan(4500, 1500));
  Link link(BandwidthTrace::Constant(10.0));
  const BatchStreamer bs(cost, m, /*slo_s=*/5.0, 4);
  const BatchResult r = bs.Stream(plans, link);
  // Identical requests interleaved round-robin: finish times within one
  // chunk's transfer of each other.
  double min_finish = 1e18, max_finish = 0.0;
  for (const auto& rr : r.per_request) {
    min_finish = std::min(min_finish, rr.load_finish_s);
    max_finish = std::max(max_finish, rr.load_finish_s);
  }
  EXPECT_LT(max_finish - min_finish, max_finish / 2.0);
}

TEST(SloBoundary, ExactFitIsNotViolation) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  ContextPlan plan = MakePlan(1500, 1500);
  // One chunk whose default-level transfer takes exactly 1 second at 1 Gbps.
  plan.chunks[0].bytes_per_level = {2e8, 1.25e8, 1e8, 0.5e8};
  Link link(BandwidthTrace::Constant(1.0));
  const KVStreamer streamer(cost, m, /*slo_s=*/1.2, 4);
  const StreamResult r = streamer.Stream(plan, link).Get();
  EXPECT_FALSE(r.slo_violated) << r.load_finish_s;
}

TEST(StreamerEdgeCases, EmptyPlan) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  ContextPlan plan;
  plan.total_tokens = 0;
  Link link(BandwidthTrace::Constant(1.0));
  const KVStreamer streamer(cost, m, 1.0, 4);
  const StreamResult r = streamer.Stream(plan, link).Get();
  EXPECT_TRUE(r.steps.empty());
  EXPECT_DOUBLE_EQ(r.load_finish_s, 0.0);
  EXPECT_FALSE(r.slo_violated);
}

TEST(StreamerEdgeCases, SingleTinyChunk) {
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const ContextPlan plan = MakePlan(50, 1500);
  Link link(BandwidthTrace::Constant(5.0));
  const KVStreamer streamer(cost, m, 1.0, 4);
  const StreamResult r = streamer.Stream(plan, link).Get();
  ASSERT_EQ(r.steps.size(), 1u);
  EXPECT_FALSE(r.slo_violated);
}

}  // namespace
}  // namespace cachegen

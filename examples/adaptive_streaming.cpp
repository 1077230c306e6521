// Adaptive streaming under a collapsing network (§5.3 / Fig. 7): the same
// context is streamed over a stable link, a link that dips mid-transfer, and
// a badly degraded link — showing Algorithm 1 switching encoding levels and
// falling back to text to protect the TTFT SLO, and what that costs in
// delivered quality. Also demonstrates the SVC-style layered-encoding
// extension (§9): ship a coarse base now, refine when bandwidth recovers.
#include <cstdio>

#include "codec/encoding_level.h"
#include "codec/layered_encoder.h"
#include "net/link.h"
#include "serving/engine.h"
#include "streamer/streamer.h"

using namespace cachegen;

namespace {

void RunScenario(Engine& engine, const char* name, const BandwidthTrace& trace,
                 const ContextPlan& plan, double slo_s) {
  Link link(trace);
  const KVStreamer streamer(engine.cost(), engine.model(), slo_s,
                            DefaultEncodingLevels().size());
  const StreamResult r = streamer.Stream(plan, link, /*gpu_share=*/0.5).Get();
  std::printf("%-24s finish %5.2f s (SLO %.1f s: %s)  quality %.3f  decisions: ",
              name, r.load_finish_s, slo_s, r.slo_violated ? "VIOLATED" : "met",
              r.quality);
  for (const auto& step : r.steps) {
    std::printf("%s", step.config.text ? "T" : std::to_string(step.config.level_id).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  Engine engine;  // defaults to the mistral-7b preset
  std::printf("== Adaptive KV streaming under bandwidth variation ==\n");

  const ContextSpec ctx{31337, 9000};
  const ContextPlan plan = engine.StoreKV("adaptive-demo", ctx);
  std::printf("context: %zu tokens in %zu chunks\n\n", ctx.num_tokens,
              plan.chunks.size());

  RunScenario(engine, "stable 3 Gbps",
              BandwidthTrace::Constant(3.0), plan, 1.2);
  RunScenario(engine, "dip to 60 Mbps",
              BandwidthTrace::FromSegments({{0.0, 3.0}, {0.25, 0.06}, {1.2, 1.0}}),
              plan, 2.5);
  RunScenario(engine, "degraded 150 Mbps",
              BandwidthTrace::Constant(0.15), plan, 4.0);

  // Progressive delivery (§9): the same dip trace, but every KV chunk ships
  // as a layered base; after the base pass makes the context usable, the
  // recovered link upgrades chunks until the SLO budget runs out. The
  // StoreKV plan already prices each chunk's enhancement layer from the
  // engine's layered calibration.
  std::printf("\n-- progressive (two-pass layered) delivery --\n");
  const auto dip_trace =
      BandwidthTrace::FromSegments({{0.0, 3.0}, {0.25, 0.06}, {1.2, 1.0}});
  Link plink(dip_trace);
  const KVStreamer pstreamer(engine.cost(), engine.model(), 2.5,
                             DefaultEncodingLevels().size());
  const StreamResult pr = pstreamer.Stream(plan, plink, /*gpu_share=*/0.5,
                                           std::nullopt, StreamMode::kProgressive).Get();
  std::printf(
      "base quality %.3f -> final %.3f (%.0f%% of tokens upgraded, %zu "
      "enhancements, %zu aborted, SLO %s)\n",
      pr.base_quality, pr.quality, 100.0 * pr.enhanced_token_fraction,
      pr.enhancements_sent, pr.enhancements_aborted,
      pr.slo_violated ? "VIOLATED" : "met");

  // Layered-encoding extension: base now, enhancement later.
  std::printf("\n-- incremental (SVC-style) streaming extension --\n");
  const KVCache chunk = engine.CalculateKV({31338, 1000});
  const LayeredEncoder layered(engine.profile(), DefaultEncodingLevels()[2], 0.2);
  const LayeredChunk lc = layered.Encode(chunk);
  const QualityModel& qm = engine.quality_model();
  std::printf("base layer:        %6.1f MB -> quality %.3f\n",
              static_cast<double>(lc.BaseBytes()) * engine.model().size_scale() / 1e6,
              qm.QualityFromKV(chunk, layered.DecodeBase(lc)));
  std::printf("base + refinement: %6.1f MB -> quality %.3f\n",
              static_cast<double>(lc.TotalBytes()) * engine.model().size_scale() / 1e6,
              qm.QualityFromKV(chunk, layered.DecodeFull(lc)));
  std::printf("the refinement upgrades an already-usable cache without resending it.\n");
  return 0;
}

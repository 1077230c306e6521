#include "streamer/streamer.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen {

namespace {
// Default medium level for the first chunk when no throughput prior exists.
constexpr int kDefaultFirstLevel = 1;
// An enhancement transfer is split into segments so the streamer can re-check
// the deadline against the measured throughput mid-stream and abort the
// remainder when the link collapses (the chunk stays usable at base quality).
constexpr int kEnhancementSegments = 4;
}

KVStreamer::KVStreamer(const CostModel& cost, const ModelConfig& model,
                       double slo_s, size_t num_levels)
    : cost_(cost),
      model_(model),
      adapter_(cost_, model_, slo_s, num_levels),
      num_levels_(num_levels) {}

Task<StreamResult> KVStreamer::Stream(const ContextPlan& plan, Link& link,
                                      double gpu_share,
                                      std::optional<double> throughput_hint_gbps,
                                      StreamMode mode, size_t kv_chunk_limit,
                                      const StreamHooks* hooks) const {
  StreamResult result;
  const double t0 = link.now();
  double gpu_free_s = t0;
  double measured_bytes_per_s =
      throughput_hint_gbps ? *throughput_hint_gbps * 1e9 / 8.0 : 0.0;
  const bool progressive = mode == StreamMode::kProgressive && plan.HasLayered();

  // Per-event GPU accounting: post every GPU stage to the arbiter's lane and
  // resolve the whole queue once at end of stream, so chunk transfers keep
  // overlapping the GPU tail exactly as in the analytic model — only the
  // share each item drains at becomes time-varying.
  const bool lane = hooks && hooks->post_gpu && hooks->drain_gpu;
  struct LaneItemRef {
    size_t step_idx;
    double arrival_s;
    bool text;
    bool enhancement;
  };
  std::vector<LaneItemRef> lane_items;
  const double decode_overhead_s = cost_.params().decode_call_overhead_s;

  double quality_tokens = 0.0;
  double kv_tokens = 0.0;  // tokens delivered as KV bitstreams (not text)

  // ---- base pass: every chunk becomes usable -----------------------------
  // In progressive mode the decisions and timeline are identical to
  // kAdaptive; the picked KV configs are additionally marked layered so the
  // enhancement pass knows what it can upgrade.
  for (size_t i = 0; i < plan.chunks.size(); ++i) {
    const ChunkPlan& chunk = plan.chunks[i];
    StreamConfig config{false, kDefaultFirstLevel, progressive};
    if (mode == StreamMode::kForceText || i >= kv_chunk_limit) {
      // Either a full miss, or the uncovered tail past a cached prefix:
      // these tokens exist nowhere as bitstreams, so text + GPU prefill is
      // the only configuration.
      config = StreamConfig{true, kDefaultFirstLevel};
    } else if (measured_bytes_per_s > 0.0) {
      const AdaptDecision d =
          progressive
              ? adapter_.ChooseBase(plan, i, measured_bytes_per_s,
                                    link.now() - t0, gpu_share)
              : adapter_.Choose(plan, i, measured_bytes_per_s, link.now() - t0,
                                gpu_share);
      config = d.config;
    }

    StreamStep step;
    step.chunk_index = i;
    step.config = config;

    const size_t tokens = chunk.range.size();
    // Lane mode prices GPU work at share 1 here; the arbiter applies the
    // per-event share while the item drains. The analytic path divides by
    // the frozen admission share as before.
    const double pricing_share = lane ? 1.0 : gpu_share;
    double gpu_seconds = 0.0;
    double tx_bytes = 0.0;
    if (config.text) {
      tx_bytes = plan.text_bytes_per_token * static_cast<double>(tokens);
      gpu_seconds = cost_.PrefillSeconds(model_, tokens, pricing_share);
    } else {
      tx_bytes = chunk.bytes_per_level.at(static_cast<size_t>(config.level_id));
      // Decode cost scales with the decoded fp16 bytes of this chunk.
      const double decoded_bytes =
          model_.RawKVBytes(tokens);
      gpu_seconds = cost_.DecodeSeconds(decoded_bytes, pricing_share);
    }

    const TransferRecord rec = co_await link.Send(tx_bytes);
    step.tx_start_s = rec.start_s;
    step.tx_end_s = rec.end_s;
    step.bytes = tx_bytes;
    step.observed_gbps = rec.ThroughputGbps();

    [[maybe_unused]] const uint64_t track = obs::ScopedRequestId::Current();
    if (lane) {
      // Post the GPU stage to the flow's lane: the overhead part drains at
      // rate 1, the compute part at the share in effect while it drains.
      // gpu_done_s is back-filled from the drained instants at end of
      // stream; the lifecycle span is emitted then too.
      const double const_s = config.text ? 0.0 : decode_overhead_s;
      const double shared_s = gpu_seconds - const_s;  // gpu_seconds at share 1
      hooks->post_gpu(rec.end_s, const_s, shared_s);
      lane_items.push_back({result.steps.size(), rec.end_s, config.text, false});
      step.gpu_done_s = rec.end_s;  // provisional until the drain resolves it
    } else {
      // GPU stage: starts when the chunk has arrived and the GPU is free.
      step.gpu_done_s = std::max(rec.end_s, gpu_free_s) + gpu_seconds;
      gpu_free_s = step.gpu_done_s;
      CG_TRACE_VSPAN("streamer",
                     config.text ? "chunk_gpu_prefill" : "chunk_gpu_decode",
                     track, std::max(rec.end_s, step.gpu_done_s - gpu_seconds),
                     step.gpu_done_s);
    }

    // Per-chunk lifecycle on the request's track: the
    // transfer, then the GPU stage (prefill for text chunks, bitstream
    // decode for KV chunks) that may lag it while the GPU drains peers.
    CG_TRACE_VSPAN("streamer", config.text ? "chunk_tx_text" : "chunk_tx",
                   track, rec.start_s, rec.end_s, "bytes", tx_bytes);
    if (config.text) {
      CG_METRIC_COUNT("streamer.chunks_text", 1);
    } else {
      CG_METRIC_COUNT("streamer.chunks_kv", 1);
    }
    CG_METRIC_HIST("streamer.chunk_bytes", static_cast<uint64_t>(tx_bytes));

    measured_bytes_per_s = rec.Seconds() > 0.0 ? tx_bytes / rec.Seconds()
                                               : measured_bytes_per_s;
    result.bytes_sent += tx_bytes;

    const double chunk_quality =
        config.text ? 1.0
                    : plan.quality_per_level.at(static_cast<size_t>(config.level_id));
    quality_tokens += chunk_quality * static_cast<double>(tokens);
    if (!config.text) kv_tokens += static_cast<double>(tokens);

    result.steps.push_back(step);
    if (hooks && hooks->on_transfer) hooks->on_transfer(result.steps.back());
  }

  result.load_finish_s = result.steps.empty() ? 0.0 : gpu_free_s - t0;
  result.ttft_s = result.load_finish_s + cost_.PromptPassSeconds();
  result.slo_violated = result.load_finish_s > adapter_.slo_s();
  const double total_tokens = static_cast<double>(plan.total_tokens);
  result.base_quality =
      plan.total_tokens ? quality_tokens / total_tokens : 1.0;
  result.stream_finish_s = result.load_finish_s;

  // ---- enhancement pass: upgrade in quality-gain-per-byte order ----------
  double enhanced_tokens = 0.0;
  if (progressive && !result.steps.empty() && measured_bytes_per_s > 0.0) {
    std::vector<Adapter::EnhancementOption> cands;
    cands.reserve(plan.chunks.size());
    for (size_t i = 0; i < plan.chunks.size(); ++i) {
      const StreamConfig& cfg = result.steps[i].config;
      if (cfg.text || !cfg.layered) continue;
      const size_t lv = static_cast<size_t>(cfg.level_id);
      const double bytes = plan.EnhancementBytes(i, cfg.level_id);
      const double gain = (plan.quality_enhanced_per_level.at(lv) -
                           plan.quality_per_level.at(lv)) *
                          static_cast<double>(plan.chunks[i].range.size());
      if (bytes <= 0.0 || gain <= 0.0) continue;
      cands.push_back({i, bytes, gain});
    }

    while (!cands.empty()) {
      const auto pick = adapter_.ChooseEnhancement(cands, measured_bytes_per_s,
                                                   link.now() - t0);
      if (!pick) break;
      const Adapter::EnhancementOption opt = cands[*pick];
      cands.erase(cands.begin() + static_cast<ptrdiff_t>(*pick));

      StreamStep step;
      step.chunk_index = opt.chunk_index;
      step.config = result.steps[opt.chunk_index].config;
      step.enhancement = true;
      step.tx_start_s = link.now();
      step.tx_end_s = step.tx_start_s;
      const double seg_bytes = opt.bytes / kEnhancementSegments;
      double sent = 0.0;
      for (int s = 0; s < kEnhancementSegments; ++s) {
        // Re-check the deadline against the measured throughput before every
        // segment: when the link collapses, the remainder is abandoned and
        // the chunk simply stays at base quality.
        const double left_with_seg = opt.bytes - sent;
        if (left_with_seg / measured_bytes_per_s >
            adapter_.slo_s() - (link.now() - t0)) {
          step.aborted = true;
          break;
        }
        const TransferRecord rec = co_await link.Send(seg_bytes);
        step.tx_end_s = rec.end_s;
        sent += seg_bytes;
        measured_bytes_per_s = rec.Seconds() > 0.0 ? seg_bytes / rec.Seconds()
                                                   : measured_bytes_per_s;
      }
      // A collapse inside the very last segment can still blow the deadline
      // after every projection said it fit; a refinement that lands outside
      // the SLO window is discarded rather than credited.
      if (!step.aborted && step.tx_end_s - t0 > adapter_.slo_s()) {
        step.aborted = true;
      }
      step.bytes = sent;
      const double span_s = step.tx_end_s - step.tx_start_s;
      step.observed_gbps = span_s > 0.0 ? sent * 8.0 / 1e9 / span_s : 0.0;
      result.bytes_sent += sent;

      [[maybe_unused]] const uint64_t track = obs::ScopedRequestId::Current();
      CG_TRACE_VSPAN("streamer", "enh_tx", track, step.tx_start_s,
                     step.tx_end_s, "bytes", sent);
      if (step.aborted) {
        step.gpu_done_s = step.tx_end_s;  // nothing applied
        // The link was still held through the wasted segments.
        result.stream_finish_s =
            std::max(result.stream_finish_s, step.tx_end_s - t0);
        ++result.enhancements_aborted;
        CG_TRACE_VINSTANT("streamer", "enh_abort", track, step.tx_end_s);
        CG_METRIC_COUNT("streamer.enhancements_aborted", 1);
      } else {
        const size_t tokens = plan.chunks[opt.chunk_index].range.size();
        const double gpu_seconds = cost_.DecodeSeconds(
            model_.RawKVBytes(tokens), lane ? 1.0 : gpu_share);
        if (lane) {
          hooks->post_gpu(step.tx_end_s, decode_overhead_s,
                          gpu_seconds - decode_overhead_s);
          lane_items.push_back({result.steps.size(), step.tx_end_s, false, true});
          step.gpu_done_s = step.tx_end_s;  // provisional
        } else {
          step.gpu_done_s = std::max(step.tx_end_s, gpu_free_s) + gpu_seconds;
          gpu_free_s = step.gpu_done_s;
          result.stream_finish_s =
              std::max(result.stream_finish_s, gpu_free_s - t0);
          CG_TRACE_VSPAN("streamer", "enh_gpu_decode", track,
                         step.gpu_done_s - gpu_seconds, step.gpu_done_s);
        }
        quality_tokens += opt.gain_tokens;
        enhanced_tokens += static_cast<double>(tokens);
        ++result.enhancements_sent;
        CG_METRIC_COUNT("streamer.enhancements_sent", 1);
      }
      result.steps.push_back(step);
      if (hooks && hooks->on_transfer) hooks->on_transfer(result.steps.back());
    }
  }

  // ---- lane resolution: back-fill per-event-priced GPU completions -------
  if (lane && !lane_items.empty()) {
    const std::vector<double> done = co_await hooks->drain_gpu();
    const size_t n = std::min(done.size(), lane_items.size());
    [[maybe_unused]] const uint64_t track = obs::ScopedRequestId::Current();
    double prev_done = t0;
    for (size_t i = 0; i < n; ++i) {
      const LaneItemRef& it = lane_items[i];
      StreamStep& step = result.steps[it.step_idx];
      step.gpu_done_s = done[i];
      // The true GPU occupancy span: from when the item reached the lane
      // head (chunk arrived and the previous stage finished) to its drained
      // completion — possibly longer than the share-1 duration when peers
      // held the GPU part-way.
      CG_TRACE_VSPAN("streamer",
                     it.enhancement
                         ? "enh_gpu_decode"
                         : (it.text ? "chunk_gpu_prefill" : "chunk_gpu_decode"),
                     track, std::max(it.arrival_s, prev_done), done[i]);
      prev_done = done[i];
      // The base pass makes every chunk usable; the last base item is the
      // load-finish instant. Enhancements only extend the stream tail.
      if (!it.enhancement) result.load_finish_s = done[i] - t0;
      result.stream_finish_s = std::max(result.stream_finish_s, done[i] - t0);
    }
    result.ttft_s = result.load_finish_s + cost_.PromptPassSeconds();
    result.slo_violated = result.load_finish_s > adapter_.slo_s();
  }

  result.quality = plan.total_tokens ? quality_tokens / total_tokens : 1.0;
  if (plan.total_tokens && progressive) {
    result.enhanced_token_fraction = enhanced_tokens / total_tokens;
    result.base_token_fraction = (kv_tokens - enhanced_tokens) / total_tokens;
  }
  co_return result;
}

}  // namespace cachegen

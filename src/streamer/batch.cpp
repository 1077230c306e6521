#include "streamer/batch.h"

#include <algorithm>

namespace cachegen {

namespace {
constexpr int kDefaultFirstLevel = 1;
}

BatchStreamer::BatchStreamer(const CostModel& cost, const ModelConfig& model,
                             double slo_s, size_t num_levels)
    : cost_(cost), model_(model), slo_s_(slo_s), num_levels_(num_levels) {}

BatchResult BatchStreamer::Stream(const std::vector<ContextPlan>& plans, Link& link,
                                  std::optional<double> throughput_hint_gbps) const {
  BatchResult result;
  result.per_request.resize(plans.size());
  if (plans.empty()) return result;

  const Adapter adapter(cost_, model_, slo_s_, num_levels_);
  const double t0 = link.now();
  std::vector<double> gpu_free(plans.size(), t0);
  std::vector<double> quality_tokens(plans.size(), 0.0);

  size_t max_rounds = 0;
  for (const auto& p : plans) max_rounds = std::max(max_rounds, p.chunks.size());

  double measured_bytes_per_s =
      throughput_hint_gbps ? *throughput_hint_gbps * 1e9 / 8.0 : 0.0;

  for (size_t c = 0; c < max_rounds; ++c) {
    // Requests that still carry a chunk with this index.
    size_t n_c = 0;
    for (const auto& p : plans) n_c += p.chunks.size() > c ? 1 : 0;
    if (n_c == 0) break;
    const double gpu_share = 1.0 / static_cast<double>(n_c);

    for (size_t r = 0; r < plans.size(); ++r) {
      const ContextPlan& plan = plans[r];
      if (plan.chunks.size() <= c) continue;
      const ChunkPlan& chunk = plan.chunks[c];

      StreamConfig config{false, kDefaultFirstLevel};
      if (measured_bytes_per_s > 0.0) {
        // §5.3: expected delay for each configuration is multiplied by N_c —
        // equivalent to dividing the available throughput among the batch.
        config = adapter
                     .Choose(plan, c, measured_bytes_per_s / static_cast<double>(n_c),
                             link.now() - t0, gpu_share)
                     .config;
      }

      const size_t tokens = chunk.range.size();
      double tx_bytes = 0.0;
      double gpu_seconds = 0.0;
      if (config.text) {
        tx_bytes = plan.text_bytes_per_token * static_cast<double>(tokens);
        gpu_seconds = cost_.PrefillSeconds(model_, tokens, gpu_share);
      } else {
        tx_bytes = chunk.bytes_per_level.at(static_cast<size_t>(config.level_id));
        gpu_seconds = cost_.DecodeSeconds(model_.RawKVBytes(tokens), gpu_share);
      }

      const TransferRecord rec = link.Send(tx_bytes).Get();
      measured_bytes_per_s =
          rec.Seconds() > 0.0 ? tx_bytes / rec.Seconds() : measured_bytes_per_s;

      StreamStep step;
      step.chunk_index = c;
      step.config = config;
      step.tx_start_s = rec.start_s;
      step.tx_end_s = rec.end_s;
      step.bytes = tx_bytes;
      step.observed_gbps = rec.ThroughputGbps();
      step.gpu_done_s = std::max(rec.end_s, gpu_free[r]) + gpu_seconds;
      gpu_free[r] = step.gpu_done_s;

      StreamResult& rr = result.per_request[r];
      rr.steps.push_back(step);
      rr.bytes_sent += tx_bytes;
      quality_tokens[r] +=
          (config.text ? 1.0
                       : plan.quality_per_level.at(static_cast<size_t>(config.level_id))) *
          static_cast<double>(tokens);
    }
  }

  for (size_t r = 0; r < plans.size(); ++r) {
    StreamResult& rr = result.per_request[r];
    rr.load_finish_s = rr.steps.empty() ? 0.0 : gpu_free[r] - t0;
    rr.stream_finish_s = rr.load_finish_s;  // batch mode streams no enhancements
    rr.ttft_s = rr.load_finish_s + cost_.PromptPassSeconds();
    rr.slo_violated = rr.load_finish_s > slo_s_;
    rr.quality = plans[r].total_tokens
                     ? quality_tokens[r] / static_cast<double>(plans[r].total_tokens)
                     : 1.0;
    rr.base_quality = rr.quality;
    result.makespan_s = std::max(result.makespan_s, rr.load_finish_s);
  }
  return result;
}

}  // namespace cachegen

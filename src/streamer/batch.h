// Multi-request batched streaming (§5.3, last paragraph): requests arriving
// within a batching window share the link and GPU. All requests use the same
// chunk length; for chunk index c, the adapter scales its delay estimate by
// N_c — the number of requests that still have a chunk c — and the chosen
// configuration applies to every request's chunk c in the round.
#pragma once

#include <vector>

#include "streamer/streamer.h"

namespace cachegen {

struct BatchResult {
  std::vector<StreamResult> per_request;
  double makespan_s = 0.0;  // all requests finished loading
};

class BatchStreamer {
 public:
  BatchStreamer(const CostModel& cost, const ModelConfig& model, double slo_s,
                size_t num_levels);

  // Streams chunk round 0 of every request, then round 1, etc. GPU share is
  // 1/batch-size while more than one request is active. Synchronous: `link`
  // must complete sends inline (a private Link or a ThrottledLink over one).
  BatchResult Stream(const std::vector<ContextPlan>& plans, Link& link,
                     std::optional<double> throughput_hint_gbps = std::nullopt) const;

 private:
  const CostModel& cost_;
  ModelConfig model_;
  double slo_s_;
  size_t num_levels_;
};

}  // namespace cachegen

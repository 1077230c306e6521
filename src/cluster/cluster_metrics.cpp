#include "cluster/cluster_metrics.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/stats.h"
#include "prefix/prefix_cache.h"

namespace cachegen {

ClusterSummary Summarize(std::span<const RequestOutcome> outcomes,
                         const CacheTier* tier, const QoEModel& qoe) {
  ClusterSummary s = Summarize(outcomes, qoe);
  if (tier != nullptr && tier->prefix() != nullptr) {
    s.deduped_bytes = tier->prefix()->stats().deduped_bytes;
  }
  return s;
}

ClusterSummary Summarize(std::span<const RequestOutcome> outcomes,
                         const QoEModel& qoe) {
  ClusterSummary s;
  if (outcomes.empty()) return s;

  std::vector<double> ttfts;
  ttfts.reserve(outcomes.size());
  double first_arrival = outcomes.front().request.arrival_s;
  double last_finish = 0.0;
  double queue_sum = 0.0, qoe_sum = 0.0, quality_sum = 0.0;
  double effective_quality_sum = 0.0;
  double base_frac_sum = 0.0, enh_frac_sum = 0.0;
  double good_tokens = 0.0;
  size_t violations = 0, hits = 0, cold_hits = 0;
  size_t prefix_hits = 0, full_misses = 0;
  size_t local_full_hits = 0, remote_full_hits = 0;
  double covered_frac_sum = 0.0, prefix_ttft_sum = 0.0, miss_ttft_sum = 0.0;
  double local_ttft_sum = 0.0, remote_ttft_sum = 0.0;

  for (const RequestOutcome& o : outcomes) {
    ttfts.push_back(o.ttft_s);
    first_arrival = std::min(first_arrival, o.request.arrival_s);
    last_finish = std::max(last_finish, o.finish_s);
    queue_sum += o.queue_delay_s;
    // Progressive requests are scored on the latency-discounted blend of
    // base and enhanced quality; for everything else the two coincide
    // (min() guards outcomes built without progressive accounting, whose
    // base_quality is left at the default 1.0).
    qoe_sum += qoe.MosWithRefinement(o.ttft_s, std::min(o.base_quality, o.quality),
                                     o.quality, o.refine_delay_s);
    quality_sum += o.quality;
    base_frac_sum += o.base_token_fraction;
    enh_frac_sum += o.enhanced_token_fraction;
    if (o.slo_violated) {
      ++violations;
    } else {
      good_tokens += static_cast<double>(o.request.spec.num_tokens);
      effective_quality_sum += o.quality;
    }
    if (o.cache_hit) {
      ++hits;
      if (o.remote_hit) {
        ++remote_full_hits;
        remote_ttft_sum += o.ttft_s;
      } else {
        ++local_full_hits;
        local_ttft_sum += o.ttft_s;
      }
    }
    if (o.cold_hit) ++cold_hits;
    if (o.prefix_hit) {
      ++prefix_hits;
      prefix_ttft_sum += o.ttft_s;
      if (o.request.spec.num_tokens > 0) {
        covered_frac_sum += static_cast<double>(o.covered_tokens) /
                            static_cast<double>(o.request.spec.num_tokens);
      }
    } else if (!o.cache_hit) {
      ++full_misses;
      miss_ttft_sum += o.ttft_s;
    }
    s.total_gbytes_sent += o.bytes_sent / 1e9;
  }

  const double n = static_cast<double>(outcomes.size());
  s.completed = outcomes.size();
  s.makespan_s = std::max(last_finish - first_arrival, 1e-9);
  s.mean_ttft_s = Mean(ttfts);
  s.p50_ttft_s = Percentile(ttfts, 0.50);
  s.p95_ttft_s = Percentile(ttfts, 0.95);
  s.p99_ttft_s = Percentile(ttfts, 0.99);
  s.mean_queue_delay_s = queue_sum / n;
  s.slo_violation_rate = static_cast<double>(violations) / n;
  s.goodput_tokens_per_s = good_tokens / s.makespan_s;
  s.mean_qoe_mos = qoe_sum / n;
  s.cache_hit_rate = static_cast<double>(hits) / n;
  s.cold_hit_rate = static_cast<double>(cold_hits) / n;
  s.hot_hit_rate = static_cast<double>(hits - cold_hits) / n;
  s.prefix_hit_rate = static_cast<double>(prefix_hits) / n;
  s.miss_rate = 1.0 - s.cache_hit_rate - s.prefix_hit_rate;
  if (prefix_hits > 0) {
    s.mean_covered_fraction = covered_frac_sum / static_cast<double>(prefix_hits);
    s.mean_prefix_ttft_s = prefix_ttft_sum / static_cast<double>(prefix_hits);
  }
  if (full_misses > 0) {
    s.mean_miss_ttft_s = miss_ttft_sum / static_cast<double>(full_misses);
  }
  s.remote_hit_rate = static_cast<double>(remote_full_hits) / n;
  s.local_hit_rate = static_cast<double>(local_full_hits) / n;
  if (remote_full_hits > 0) {
    s.mean_remote_ttft_s = remote_ttft_sum / static_cast<double>(remote_full_hits);
  }
  if (local_full_hits > 0) {
    s.mean_local_ttft_s = local_ttft_sum / static_cast<double>(local_full_hits);
  }
  s.mean_quality = quality_sum / n;
  s.mean_effective_quality = effective_quality_sum / n;
  s.mean_base_fraction = base_frac_sum / n;
  s.mean_enhanced_fraction = enh_frac_sum / n;
  return s;
}

std::string FormatSummary(const ClusterSummary& s) {
  char buf[448];
  std::snprintf(buf, sizeof(buf),
                "n=%zu ttft p50/p95/p99 = %.2f/%.2f/%.2f s, queue %.2f s, "
                "SLO-viol %.0f%%, goodput %.0f tok/s, QoE %.2f, "
                "hot/cold/prefix/miss %.0f/%.0f/%.0f/%.0f%%, loc/rem "
                "%.0f/%.0f%%, enh %.0f%%",
                s.completed, s.p50_ttft_s, s.p95_ttft_s, s.p99_ttft_s,
                s.mean_queue_delay_s, 100.0 * s.slo_violation_rate,
                s.goodput_tokens_per_s, s.mean_qoe_mos,
                100.0 * s.hot_hit_rate, 100.0 * s.cold_hit_rate,
                100.0 * s.prefix_hit_rate, 100.0 * s.miss_rate,
                100.0 * s.local_hit_rate, 100.0 * s.remote_hit_rate,
                100.0 * s.mean_enhanced_fraction);
  return buf;
}

void SummaryToJson(const ClusterSummary& s, obs::JsonWriter& w) {
  w.BeginObject("summary");
  w.Field("completed", static_cast<uint64_t>(s.completed));
  w.Field("makespan_s", s.makespan_s);
  w.Field("mean_ttft_s", s.mean_ttft_s);
  w.Field("p50_ttft_s", s.p50_ttft_s);
  w.Field("p95_ttft_s", s.p95_ttft_s);
  w.Field("p99_ttft_s", s.p99_ttft_s);
  w.Field("mean_queue_delay_s", s.mean_queue_delay_s);
  w.Field("slo_violation_rate", s.slo_violation_rate);
  w.Field("goodput_tokens_per_s", s.goodput_tokens_per_s);
  w.Field("mean_qoe_mos", s.mean_qoe_mos);
  w.Field("cache_hit_rate", s.cache_hit_rate);
  w.Field("hot_hit_rate", s.hot_hit_rate);
  w.Field("cold_hit_rate", s.cold_hit_rate);
  w.Field("prefix_hit_rate", s.prefix_hit_rate);
  w.Field("miss_rate", s.miss_rate);
  w.Field("remote_hit_rate", s.remote_hit_rate);
  w.Field("local_hit_rate", s.local_hit_rate);
  w.Field("mean_remote_ttft_s", s.mean_remote_ttft_s);
  w.Field("mean_local_ttft_s", s.mean_local_ttft_s);
  w.Field("mean_covered_fraction", s.mean_covered_fraction);
  w.Field("mean_prefix_ttft_s", s.mean_prefix_ttft_s);
  w.Field("mean_miss_ttft_s", s.mean_miss_ttft_s);
  w.Field("deduped_bytes", s.deduped_bytes);
  w.Field("mean_quality", s.mean_quality);
  w.Field("mean_effective_quality", s.mean_effective_quality);
  w.Field("total_gbytes_sent", s.total_gbytes_sent);
  w.Field("mean_base_fraction", s.mean_base_fraction);
  w.Field("mean_enhanced_fraction", s.mean_enhanced_fraction);
  w.EndObject();
}

uint64_t OutcomeDigest(std::span<const RequestOutcome> outcomes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const RequestOutcome& o : outcomes) {
    mix(&o.request.id, sizeof(o.request.id));
    for (double v : {o.ttft_s, o.finish_s, o.quality, o.bytes_sent}) mix(&v, sizeof(v));
    const unsigned char flags[] = {o.cache_hit,       o.cold_hit,    o.remote_hit,
                                   o.prefix_hit,      o.forced_text, o.slo_violated,
                                   o.write_back_done, o.write_back_failed};
    mix(flags, sizeof(flags));
    mix(&o.covered_tokens, sizeof(o.covered_tokens));
  }
  return h;
}

}  // namespace cachegen

// Aggregate serving metrics over one cluster run: the tail-latency, SLO,
// goodput, and QoE numbers the paper's concurrency studies report (Fig. 12,
// 13, 16) plus cache-tier health from the ShardedKVStore.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "cluster/request_queue.h"
#include "obs/json_writer.h"
#include "workload/qoe.h"

namespace cachegen {

// One served request, all instants in cluster virtual time.
struct RequestOutcome {
  ClusterRequest request;
  size_t worker = 0;
  double admit_s = 0.0;        // when a worker started streaming it
  double queue_delay_s = 0.0;  // admit - arrival
  double load_finish_s = 0.0;  // KV usable, relative to ADMISSION
  double ttft_s = 0.0;         // user-perceived: queue + load + prompt pass
  double finish_s = 0.0;       // absolute completion instant
  bool slo_violated = false;   // queue + load delay vs the request SLO
  bool cache_hit = false;      // FULL hit, hot or cold (never with forced_text)
  bool cold_hit = false;       // served by promoting the cold tier
  // The stream was priced through the fabric's remote-read model: some
  // covered byte lived on a peer node (multi-node CacheFabric only).
  // Orthogonal to cold_hit; can also ride on a partial-prefix hit.
  bool remote_hit = false;
  // Partial-prefix hit (prefix-aware tiers): the leading covered_tokens
  // tokens streamed as shared cached KV chunks; only the suffix shipped as
  // text and paid GPU prefill. Mutually exclusive with cache_hit AND with
  // forced_text — the third scenario between them.
  bool prefix_hit = false;
  size_t covered_tokens = 0;   // chunk-aligned cached prefix (request tokens on full hits)
  bool forced_text = false;    // miss path: full text + re-prefill
  double quality = 1.0;        // composed streaming quality factor
  double bytes_sent = 0.0;
  bool answer_correct = false;
  // Write-back disposition of the miss path (both false on hit paths) —
  // recorded by the coordinator so metric order matches completion order.
  bool write_back_done = false;
  bool write_back_failed = false;
  // Home node of the context on a multi-node fabric (-1 otherwise): the
  // telemetry layer's per-node series attribution.
  int fabric_node = -1;
  // Progressive delivery (§9): quality after the base pass alone, how long
  // after first-token the stream went quiet, and the token fractions left at
  // base-only vs upgraded quality (both fractions 0 on non-progressive runs).
  double base_quality = 1.0;
  double refine_delay_s = 0.0;
  double base_token_fraction = 0.0;
  double enhanced_token_fraction = 0.0;
};

struct ClusterSummary {
  size_t completed = 0;
  double makespan_s = 0.0;       // last finish - first arrival
  double mean_ttft_s = 0.0;
  double p50_ttft_s = 0.0;
  double p95_ttft_s = 0.0;
  double p99_ttft_s = 0.0;
  double mean_queue_delay_s = 0.0;
  double slo_violation_rate = 0.0;
  double goodput_tokens_per_s = 0.0;  // context tokens of SLO-met requests / makespan
  double mean_qoe_mos = 0.0;          // QoE model over (ttft, quality)
  double cache_hit_rate = 0.0;        // full hits (hot + cold), over served requests
  // Scenario taxonomy: hot / cold / prefix / miss sum to 1 (hot_hit_rate ==
  // cache_hit_rate on non-tiered runs; prefix_hit_rate is 0 without the
  // prefix layer).
  double hot_hit_rate = 0.0;
  double cold_hit_rate = 0.0;
  double prefix_hit_rate = 0.0;
  double miss_rate = 0.0;
  // Fabric split of full hits: remote (bytes crossed the interconnect) vs
  // local, with the TTFT of each — on a multi-node run mean_remote_ttft_s
  // sits strictly between mean_local_ttft_s and mean_miss_ttft_s (the
  // bench_cache_fabric CI gate). All 0 on single-node arrangements.
  double remote_hit_rate = 0.0;       // over served requests
  double local_hit_rate = 0.0;        // cache_hit_rate - remote_hit_rate
  double mean_remote_ttft_s = 0.0;    // over remote full hits
  double mean_local_ttft_s = 0.0;     // over local full hits
  // Prefix-sharing effect: mean fraction of a partial-hit request's tokens
  // served from the shared cached prefix, and the suffix-only TTFT next to
  // what a full miss pays (both 0 when the scenario never occurred).
  double mean_covered_fraction = 0.0;  // over prefix hits
  double mean_prefix_ttft_s = 0.0;     // mean TTFT over partial-prefix hits
  double mean_miss_ttft_s = 0.0;       // mean TTFT over full misses
  // Bytes the content-addressed chunk store avoided writing because the
  // address already existed (filled from the tier by the Summarize overload
  // that takes one; 0 otherwise).
  uint64_t deduped_bytes = 0;
  double mean_quality = 0.0;
  // Mean quality with SLO-violating requests scored 0 — the QoE-style
  // "useful quality" a tiered cold hit buys over an evict-to-miss recompute
  // (a lossless text recompute that blows the deadline helps nobody).
  double mean_effective_quality = 0.0;
  double total_gbytes_sent = 0.0;
  // Progressive delivery: mean token fractions at base-only vs enhanced
  // quality (0 on non-progressive runs, where no chunk is layered).
  double mean_base_fraction = 0.0;
  double mean_enhanced_fraction = 0.0;
};

class CacheTier;

ClusterSummary Summarize(std::span<const RequestOutcome> outcomes,
                         const QoEModel& qoe = QoEModel{});

// Same, plus tier-level counters the outcomes alone cannot carry (dedup'd
// bytes from a prefix-sharing tier). `tier` may be null.
ClusterSummary Summarize(std::span<const RequestOutcome> outcomes,
                         const CacheTier* tier, const QoEModel& qoe = QoEModel{});

// One-line rendering for benches/examples.
std::string FormatSummary(const ClusterSummary& s);

// Append every summary field as a "summary" object on an OPEN JSON object —
// the machine-readable sibling of FormatSummary (examples' --metrics-json).
void SummaryToJson(const ClusterSummary& s, obs::JsonWriter& w);

// FNV-1a over every request's modelled outcome, bit-exact on doubles: id,
// ttft, finish, quality, bytes sent, the eight scenario/SLO/write-back flags
// and the covered token count — the fields and order cachegen-bench hashes
// for its digest line, so the two can be compared directly.
uint64_t OutcomeDigest(std::span<const RequestOutcome> outcomes);

}  // namespace cachegen

// ClusterServer: the concurrent serving layer above the single-request
// substrate (codec -> streamer -> engine). One Engine, one CacheTier, one
// shared network path, and num_workers request slots, all driven by one
// coordinator loop on the calling thread:
//
//   scheduler --admit--> request coroutine --co_await--> SharedLink
//       ^                (KVStreamer, lookup,            (fluid link + GPU
//       |                 write-back, codec tail)         lanes, virtual time)
//       |                        |                             |
//       +--- completions, popped in virtual-time order --------+
//
// Each admitted request runs as a coroutine (ServeRequest) that advances a
// RequestFsm by events (admission, chunk-transfer done, decode done,
// write-back committed). Its link sends and GPU drains suspend it; the
// coordinator resumes finished ones in FlowId order, advances SharedLink's
// virtual time, and hands freed slots to the scheduler. No thread is spawned
// per request or per slot: the only other threads Serve() uses are the codec
// pool's (ParallelFor inside encode/decode).
//
// Admission: when a slot frees at virtual instant t, the scheduler policy
// (FIFO / shortest-load-first / SLO-deadline-first) picks among requests
// arrived by t. The admitted request's KV streams over the SharedLink with
// the unmodified KVStreamer — its adapter sees the *observed shared*
// throughput and the SLO budget left after queueing, so concurrency
// organically pushes streams to coarser encoding levels, exactly the
// contention behavior of the paper's Fig. 12/13. GPU time is accounted per
// event: every chunk's decode/prefill is posted to the request's GPU lane
// and priced at share(t) = 1/min(W, in_flight(t)) as it drains, so a peer
// finishing (or being admitted) re-prices every in-flight request from that
// completion instant onward instead of freezing one snapshot per admission.
//
// Cache behavior — five scenarios, priced by one CacheTier lookup:
//   hot full hit    — stream encoded KV from RAM (kAdaptive/kProgressive);
//   cold full hit   — same stream through a ThrottledLink modelling the cold
//                     device's read bandwidth (Options::cold_read_gbps) and
//                     first-byte seek (Options::cold_seek_s);
//   remote hit      — the tier is a multi-node CacheFabric and the covered
//                     bytes live on a peer node: the stream additionally
//                     pays the interconnect model (Options::remote_read_gbps
//                     bandwidth cap, Options::remote_rtt_s to first byte);
//                     orthogonal to hot/cold — a remote cold hit stacks both;
//   partial prefix  — a prefix-aware tier (PrefixCache) matched a cached
//                     chunk-aligned prefix of the request's token sequence:
//                     covered chunks stream as KV, only the uncovered suffix
//                     ships as text and pays GPU prefill for the tail;
//   miss            — full text + re-prefill (StreamMode::kForceText), then
//                     optionally written back (content-addressed and dedup'd
//                     when the tier is prefix-aware).
//
// The tier arrangement is entirely the constructor's business: a bare
// ShardedKVStore, a hot/cold TieredKVStore, or a PrefixCache over either —
// the server itself holds a single CacheTier and never dispatches on the
// concrete arrangement.
//
// Determinism: outcomes, cache state and every coordinator-recorded metric
// are a pure function of (trace, options, tier contents). Virtual time moves
// only inside SharedLink::Advance; a request's tier mutations (lookup and
// pin at admission, write-back and unpin when its stream ends, assembly
// when it completes) run on the coordinator thread in that virtual-time
// order, ties broken by FlowId; and completions are handed back in order of
// free instant (ties by worker), so successors admitted at a completion see
// a settled tier.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <set>
#include <string>
#include <unordered_map>

#include "cluster/cluster_metrics.h"
#include "cluster/request_queue.h"
#include "cluster/scheduler.h"
#include "cluster/shared_link.h"
#include "common/task.h"
#include "net/bandwidth_trace.h"
#include "obs/flight_recorder.h"
#include "obs/slo_monitor.h"
#include "obs/timeseries.h"
#include "serving/engine.h"
#include "storage/cache_tier.h"
#include "storage/sharded_kv_store.h"
#include "storage/tiered_kv_store.h"

namespace cachegen {

class ClusterServer {
 public:
  // Continuous telemetry over one Serve() run: virtual-time metric windows
  // (TimeSeriesCollector), multi-window burn-rate alerting (SloMonitor), and
  // incident capture (FlightRecorder), all driven from the coordinator's
  // completion loop so every artifact is a pure function of (trace, options).
  struct TelemetryOptions {
    // Virtual-time sampling window; <= 0 disables the continuous layer.
    double sample_period_s = 0.0;
    size_t max_windows = 4096;
    // Metric-name prefixes sampled into the time-series. Restricted by
    // default to series the coordinator itself records in completion order —
    // worker-recorded metrics (codec wall timings, channel depth gauges) are
    // wall-order racy and would break replay byte-identity.
    std::vector<std::string> include = {
        "cluster.admission_batches", "cluster.bytes_sent",
        "cluster.hits.",             "cluster.in_flight",
        "cluster.misses",            "cluster.queue_delay_us",
        "cluster.remote_streams",    "cluster.requests",
        "cluster.slo_violations",    "cluster.ttft_us",
        "cluster.write_back",        "obs.slo.",
    };
    obs::SloMonitor::Options slo;
    obs::FlightRecorder::Options recorder;
    // Test/CI hook: capture an incident at the first completion whose finish
    // instant reaches this virtual time (< 0 disables).
    double inject_incident_at_s = -1.0;
  };

  struct Options {
    // Modelled serving capacity: the number of requests in flight at once
    // (request slots), which is also the GPU's sharer cap. Not a thread
    // count — Serve() runs every request on the calling thread.
    size_t num_workers = 4;
    SchedulerPolicyKind policy = SchedulerPolicyKind::kFifo;
    double default_slo_s = 2.0;  // for requests with slo_s <= 0
    // Decode the delivered bitstreams into a real KVCache after streaming
    // (exercises the actual codec; costs real CPU, not virtual time).
    bool assemble_kv = false;
    // On a cache miss (or partial-prefix hit), prefill + encode + store the
    // context so later requests hit (may evict under capacity pressure).
    bool write_back_on_miss = true;
    // Progressive (§9) delivery on cache hits: the streamer runs the
    // two-pass layered timeline, so under link contention a request degrades
    // to base-only quality instead of missing its SLO, and upgrades chunks
    // when the shared path has slack.
    bool progressive = false;
    // First-chunk throughput prior handed to the streamer; defaults to the
    // aggregate capacity divided by the number of in-flight streams.
    std::optional<double> throughput_hint_gbps;
    // Cold-tier read model, charged whenever any streamed chunk was promoted
    // from the cold tier: the cold device's per-stream read bandwidth caps
    // the stream's effective throughput (and the first-chunk hint), and the
    // seek penalty delays the first byte. Defaults model a shared
    // HDD/object-store read path that is slower than the 3 Gbps network but
    // far cheaper than a re-prefill.
    double cold_read_gbps = 1.25;
    double cold_seek_s = 0.015;
    // Remote-read model, charged whenever any streamed byte lives on a peer
    // node of a multi-node CacheFabric (TierLookup::any_remote): the
    // interconnect's per-stream bandwidth caps the effective throughput and
    // one RTT delays the first byte. Faster than the cold device but slower
    // than local RAM, so a remote hit's TTFT lands strictly between a local
    // hit and a miss (the bench_cache_fabric CI gate).
    double remote_read_gbps = 2.0;
    double remote_rtt_s = 0.01;
    // Continuous telemetry over each Serve() run.
    TelemetryOptions telemetry;
  };

  // The general form: serve through any CacheTier arrangement. `engine`
  // must be constructed with the tier's kv() as its store — the cluster
  // pins/evicts through the tier while the engine reads and writes chunks
  // through the same object, so translation/dedup/tiering apply to both.
  ClusterServer(Engine& engine, std::shared_ptr<CacheTier> tier,
                BandwidthTrace capacity, Options opts);

  // Convenience forms for the two plain arrangements.
  ClusterServer(Engine& engine, std::shared_ptr<ShardedKVStore> store,
                BandwidthTrace capacity, Options opts);
  ClusterServer(Engine& engine, std::shared_ptr<TieredKVStore> store,
                BandwidthTrace capacity, Options opts);

  // Serve a whole trace to completion; returns one outcome per request,
  // ordered by request id. Safe to call repeatedly (fresh link each run;
  // the cache tier keeps its contents across runs).
  std::vector<RequestOutcome> Serve(std::vector<ClusterRequest> trace);

  // Prefill + encode + store a context pool up front (warm cache).
  void Prestore(const RequestTraceOptions& trace_opts);
  // Same for an arbitrary context set (e.g. shared-prefix family members).
  void Prestore(std::span<const std::pair<std::string, ContextSpec>> contexts);

  const Options& options() const { return opts_; }
  // The serving tier arrangement.
  const CacheTier& tier() const { return *tier_; }
  // The sharded hot tier of the arrangement (the whole store on plain
  // sharded runs). Every supported arrangement has one.
  const ShardedKVStore& store() const { return *tier_->hot_tier(); }
  // Null unless a TieredKVStore is in the arrangement.
  const TieredKVStore* tiered_store() const { return tier_->tiered(); }
  // Null unless the prefix-sharing layer is in the arrangement.
  const PrefixCache* prefix_cache() const { return tier_->prefix(); }
  // Link of the last Serve() run (null before the first run).
  const SharedLink* link() const { return link_.get(); }

  // Continuous-telemetry state of the last Serve() run (null before the
  // first run, or when telemetry.sample_period_s <= 0).
  const obs::TimeSeriesCollector* timeseries() const { return series_.get(); }
  const obs::SloMonitor* slo_monitor() const { return monitor_.get(); }
  const obs::FlightRecorder* flight_recorder() const { return recorder_.get(); }

 private:
  // A finished request waiting to hand its slot back.
  struct Completion {
    double free_s = 0.0;  // virtual instant the worker frees
    size_t worker = 0;
    size_t outcome = 0;   // index into the outcome vector
  };

  // The coordinator: admit, resume, advance, pop completions.
  void RunCoordinator(RequestQueue& queue, std::vector<RequestOutcome>* outcomes);
  // One request end to end as a coroutine: lookup and pin, stream (GPU priced
  // per event), write back, complete the flow, then the codec tail
  // (assembly, the answer-correctness draw).
  Task<> ServeRequest(ClusterRequest rq, size_t worker, size_t outcome,
                      double admit_s, double gpu_share,
                      std::vector<RequestOutcome>* outcomes,
                      std::vector<Completion>* completions);

  // The calibration-priced plan for a context of `tokens`, memoized: the
  // engine's calibration never changes once built, so neither does the plan.
  // References stay valid for the server's lifetime.
  const ContextPlan& PlanFor(size_t tokens);

  // The per-request cluster.* metric block, recorded by the coordinator per
  // popped completion (after TimeSeriesCollector::AdvanceTo), so metric
  // order matches completion order and windows are deterministic.
  static void RecordOutcomeMetrics(const RequestOutcome& out);

  // Continuous-telemetry plumbing (coordinator thread only).
  void StartTelemetry();
  void OnCompletionTelemetry(const RequestOutcome& out);
  void FinishTelemetry(double t_s);
  void CaptureIncident(uint64_t offending_track, double t_s,
                       const char* reason);

  Engine& engine_;
  std::shared_ptr<CacheTier> tier_;
  BandwidthTrace capacity_;
  Options opts_;
  std::unique_ptr<SharedLink> link_;
  std::unordered_map<size_t, ContextPlan> plans_;  // PlanFor's memo

  // Telemetry state of the current/last run (see TelemetryOptions).
  std::unique_ptr<obs::TimeSeriesCollector> series_;
  std::unique_ptr<obs::SloMonitor> monitor_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::set<uint64_t> completed_tracks_;  // FlightRecorder capture predicate
  uint64_t last_completed_track_ = 0;
  uint64_t last_violated_track_ = 0;
  double last_completion_s_ = 0.0;
  bool incident_injected_ = false;
};

}  // namespace cachegen

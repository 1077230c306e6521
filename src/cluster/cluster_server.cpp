#include "cluster/cluster_server.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "cluster/request_fsm.h"
#include "codec/encoding_level.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prefix/prefix_cache.h"
#include "storage/pin_guard.h"
#include "streamer/streamer.h"

namespace cachegen {

namespace {

// Request ids are dense from 0, but the tracer reserves 0 for "no request";
// trace tracks are therefore id + 1 ("request 1" is trace id 0).
uint64_t TraceTrack(const ClusterRequest& rq) { return rq.id + 1; }

// A request's stream wired into the event loop: GPU stages go to its flow's
// lane, and every finished transfer advances its FSM.
class FlowHooks final : public StreamHooks {
 public:
  FlowHooks(SharedLink& link, SharedLink::FlowId flow, RequestFsm& fsm)
      : link_(link), flow_(flow), fsm_(fsm) {}

  void PostGpu(double arrival_s, double const_s, double shared_s) override {
    link_.PostGpuWork(flow_, arrival_s, const_s, shared_s);
  }
  Task<std::span<const double>> DrainGpu() override {
    co_return co_await link_.DrainGpu(flow_);
  }
  void OnTransfer(const StreamStep& step) override {
    if (step.enhancement && fsm_.state() == RequestState::kKvStreaming) {
      fsm_.Feed(RequestEvent::kEnhance, step.tx_start_s);
    }
    fsm_.Feed(RequestEvent::kChunkTransferDone, step.tx_end_s);
  }

 private:
  SharedLink& link_;
  SharedLink::FlowId flow_;
  RequestFsm& fsm_;
};

}  // namespace

ClusterServer::ClusterServer(Engine& engine, std::shared_ptr<CacheTier> tier,
                             BandwidthTrace capacity, Options opts)
    : engine_(engine),
      tier_(std::move(tier)),
      capacity_(std::move(capacity)),
      opts_(opts) {
  if (opts_.num_workers == 0) {
    throw std::invalid_argument("ClusterServer: need at least one worker");
  }
  if (!tier_ || &engine_.store() != &tier_->kv()) {
    throw std::invalid_argument(
        "ClusterServer: engine must be constructed with the cluster tier's "
        "kv() store");
  }
  if (!(opts_.cold_read_gbps > 0.0)) {
    throw std::invalid_argument("ClusterServer: cold_read_gbps must be > 0");
  }
  if (!(opts_.remote_read_gbps > 0.0) || opts_.remote_rtt_s < 0.0) {
    throw std::invalid_argument(
        "ClusterServer: remote_read_gbps must be > 0 and remote_rtt_s >= 0");
  }
  if (tier_->prefix() != nullptr &&
      tier_->prefix()->options().chunk_tokens != engine_.options().chunk_tokens) {
    throw std::invalid_argument(
        "ClusterServer: PrefixCache chunk_tokens must match the engine's "
        "(content addresses are computed over the encoder's chunk grid)");
  }
}

ClusterServer::ClusterServer(Engine& engine, std::shared_ptr<ShardedKVStore> store,
                             BandwidthTrace capacity, Options opts)
    : ClusterServer(engine, std::shared_ptr<CacheTier>(store), std::move(capacity),
                    opts) {}

ClusterServer::ClusterServer(Engine& engine, std::shared_ptr<TieredKVStore> store,
                             BandwidthTrace capacity, Options opts)
    : ClusterServer(engine, std::shared_ptr<CacheTier>(store), std::move(capacity),
                    opts) {}

void ClusterServer::Prestore(const RequestTraceOptions& trace_opts) {
  std::vector<std::pair<std::string, ContextSpec>> contexts;
  contexts.reserve(trace_opts.num_contexts);
  for (size_t i = 0; i < trace_opts.num_contexts; ++i) {
    contexts.emplace_back(PoolContextId(i), PoolContextSpec(trace_opts, i));
  }
  Prestore(contexts);
}

void ClusterServer::Prestore(
    std::span<const std::pair<std::string, ContextSpec>> contexts) {
  for (const auto& [id, spec] : contexts) {
    tier_->BeginStore(id, spec);
    try {
      engine_.StoreKV(id, spec);
    } catch (...) {
      // Retire the unconsumed announcement before surfacing the failure —
      // a leaked announcement would misroute future Pin()s for this id.
      tier_->AbortStore(id);
      throw;
    }
  }
  // Settle any disk work the tier deferred before serving starts.
  tier_->Flush();
}

std::vector<RequestOutcome> ClusterServer::Serve(std::vector<ClusterRequest> trace) {
  const size_t n = trace.size();
  std::vector<RequestOutcome> outcomes(n);
  if (n == 0) return outcomes;

  // Build the calibration once, before any request plans from it.
  engine_.calibration();

  // Resolve the SLO default up front so scheduler policies (EDF sorts by
  // arrival + slo) and the violation accounting agree on every request.
  for (ClusterRequest& rq : trace) {
    if (rq.slo_s <= 0.0) rq.slo_s = opts_.default_slo_s;
  }

  link_ = std::make_unique<SharedLink>(capacity_);
  // GPU lanes price work at share(t) = 1/min(num_workers, in_flight(t)).
  link_->SetGpuSlots(opts_.num_workers);
  RequestQueue queue(std::move(trace));

  StartTelemetry();
  RunCoordinator(queue, &outcomes);
  FinishTelemetry(last_completion_s_);

  // Settle any disk work the tier deferred, so on-disk state is final
  // before the caller inspects it.
  tier_->Flush();
  std::sort(outcomes.begin(), outcomes.end(),
            [](const RequestOutcome& a, const RequestOutcome& b) {
              return a.request.id < b.request.id;
            });
  return outcomes;
}

void ClusterServer::RunCoordinator(RequestQueue& queue,
                                   std::vector<RequestOutcome>* outcomes) {
  const size_t workers = opts_.num_workers;
  const auto policy = MakeSchedulerPolicy(opts_.policy);
  std::vector<double> free_at(workers, 0.0);
  std::vector<bool> busy(workers, false);
  // The request coroutine occupying each busy worker.
  std::vector<Task<>> running(workers);
  std::vector<Completion> completions;  // finished, slot not yet handed back
  size_t in_flight = 0;
  size_t admitted = 0;

  struct Admission {
    ClusterRequest rq;
    size_t worker = 0;
    size_t outcome = 0;
    double admit_s = 0.0;
  };
  std::vector<Admission> batch;
  // Admit onto every idle worker while requests remain. After this, either
  // the queue is drained or every worker is busy. The requests start only
  // once the whole batch is admitted, so simultaneously admitted requests
  // all see the same post-batch contention prior (the actual GPU pricing is
  // per-event in the arbiter's lanes, so the prior only seeds the adapter).
  const auto admit_all = [&] {
    batch.clear();
    while (!queue.Empty()) {
      size_t w = workers;
      for (size_t i = 0; i < workers; ++i) {
        if (!busy[i] && (w == workers || free_at[i] < free_at[w])) {
          w = i;
        }
      }
      if (w == workers) break;  // all busy
      const double admit_s = std::max(free_at[w], queue.NextArrival());
      ClusterRequest rq = queue.PopReady(*policy, admit_s);
      // Every lane segment from admit_s on is priced with this request
      // contending for the GPU.
      link_->AddGpuSharer(admit_s);
      busy[w] = true;
      ++in_flight;
      CG_TRACE_VINSTANT("cluster", "admit", TraceTrack(rq), admit_s, "worker",
                        static_cast<double>(w));
      batch.push_back({std::move(rq), w, admitted++, admit_s});
    }
    if (!batch.empty()) CG_METRIC_COUNT("cluster.admission_batches", 1);
    CG_METRIC_GAUGE_SET("cluster.in_flight", in_flight);
    const double gpu_share =
        1.0 / static_cast<double>(std::min(workers, std::max<size_t>(1, in_flight)));
    for (Admission& a : batch) {
      // The coroutine runs on this thread up to its first link operation;
      // its flow re-establishes the request id on every later resume.
      obs::ScopedRequestId rid(TraceTrack(a.rq));
      running[a.worker] = ServeRequest(std::move(a.rq), a.worker, a.outcome,
                                       a.admit_s, gpu_share, outcomes,
                                       &completions);
    }
  };

  admit_all();
  while (in_flight > 0) {
    link_->ResumeReady();

    // The earliest finished request may hand its worker back once nothing
    // still in flight can free earlier: its free instant has been reached,
    // or every in-flight request has finished.
    const auto best = std::min_element(
        completions.begin(), completions.end(),
        [](const Completion& a, const Completion& b) {
          return a.free_s < b.free_s ||
                 (a.free_s == b.free_s && a.worker < b.worker);
        });
    if (best != completions.end() &&
        (completions.size() >= in_flight || best->free_s <= link_->now() + 1e-9)) {
      const Completion c = *best;
      completions.erase(best);
      std::move(running[c.worker]).Get();  // rethrows a failed request
      running[c.worker] = Task<>();
      busy[c.worker] = false;
      free_at[c.worker] = c.free_s;
      --in_flight;
      // AdvanceTo first: this completion's records belong to the window
      // containing c.free_s.
      if (series_) series_->AdvanceTo(c.free_s);
      RecordOutcomeMetrics((*outcomes)[c.outcome]);
      OnCompletionTelemetry((*outcomes)[c.outcome]);
      admit_all();
      continue;
    }

    // Virtual time may not pass the earliest pending completion: its worker
    // takes the next admission at exactly that instant.
    const double limit = best != completions.end()
                             ? best->free_s
                             : std::numeric_limits<double>::infinity();
    if (!link_->Advance(limit)) {
      // Nothing can run, finish or move. Either a request coroutine died
      // before completing its flow (surface its exception), or what is
      // pending can never finish (a path with no capacity from here on).
      for (size_t w = 0; w < workers; ++w) {
        if (busy[w] && running[w].done()) std::move(running[w]).Get();
      }
      throw std::logic_error("ClusterServer: virtual time stalled");
    }
  }
}

Task<> ClusterServer::ServeRequest(ClusterRequest rq, size_t worker,
                                   size_t outcome, double admit_s,
                                   double gpu_share,
                                   std::vector<RequestOutcome>* outcomes,
                                   std::vector<Completion>* completions) {
  // Everything recorded below lands on this request's virtual track,
  // including streamer and net events: the coordinator starts the coroutine
  // under the request id and SharedLink restores it on every resume.
  const uint64_t track = TraceTrack(rq);
  CG_TRACE_VSPAN("cluster", "queue_wait", track, rq.arrival_s, admit_s);

  RequestFsm fsm(track);
  fsm.Feed(RequestEvent::kAdmit, admit_s);

  const SharedLink::FlowId flow = link_->Register(admit_s, rq.weight);

  const TierLookup look = tier_->LookupAndPin(rq.context_id, rq.spec, admit_s);
  const bool hit = look.hit();
  const bool prefix = look.prefix_hit();
  // Cold pricing applies whenever any streamed chunk came off the cold
  // device — a cold full hit, or a partial prefix whose covered chunks were
  // promoted. Remote pricing likewise applies whenever any covered byte
  // lives on a peer node of a multi-node fabric.
  const bool cold = look.any_cold;
  const bool remote = look.any_remote;
  // Whatever the lookup pinned (context and/or covered prefix chunks) is
  // owned by a guard: no exit path — including an exception — can leak it
  // and permanently shrink the evictable capacity.
  PinGuard pin =
      look.pinned ? PinGuard::Adopt(*tier_, rq.context_id) : PinGuard();

  const ContextPlan& plan = PlanFor(rq.spec.num_tokens);
  const double slo = rq.slo_s;  // resolved against the default in Serve()
  const double queue_delay = admit_s - rq.arrival_s;
  // The adapter works against whatever SLO budget queueing has left.
  const double slo_budget = std::max(0.05, slo - queue_delay);
  KVStreamer streamer(engine_.cost(), engine_.model(), slo_budget,
                      DefaultEncodingLevels().size());

  // First-chunk prior: assume the path splits as many ways as the GPU does
  // at admission. The share only seeds the adapter and the throughput hint —
  // actual GPU time is priced per event by the arbiter's lane as it drains.
  // A cold or remote stream's hint is capped at that path's read rate so the
  // very first chunk is already picked for the slower path.
  double hint = opts_.throughput_hint_gbps.value_or(
      link_->CapacityGbpsAt(admit_s) * gpu_share);
  if (remote) hint = std::min(hint, opts_.remote_read_gbps);
  if (cold) hint = std::min(hint, opts_.cold_read_gbps);

  // Scenario -> streaming mode. A partial-prefix hit streams adaptively up
  // to the covered chunk count; everything past it is forced text (those
  // tokens exist nowhere as bitstreams), which is exactly where the GPU
  // prefill bill for the uncovered tail comes from.
  const StreamMode mode =
      hit ? (opts_.progressive ? StreamMode::kProgressive : StreamMode::kAdaptive)
          : (prefix ? StreamMode::kAdaptive : StreamMode::kForceText);
  const size_t kv_limit = prefix ? look.covered_chunks : SIZE_MAX;
  ClientLink client(*link_, flow);
  // A remote hit streams through the fabric interconnect first (bandwidth
  // cap + one RTT to first byte); a cold promotion on a remote node stacks
  // the device-read model on top of it.
  std::optional<ThrottledLink> remote_client;
  if (remote) {
    remote_client.emplace(client, opts_.remote_read_gbps, opts_.remote_rtt_s);
  }
  Link& net = remote ? static_cast<Link&>(*remote_client) : client;
  std::optional<ThrottledLink> cold_client;
  if (cold) cold_client.emplace(net, opts_.cold_read_gbps, opts_.cold_seek_s);
  Link& path = cold ? static_cast<Link&>(*cold_client) : net;

  FlowHooks hooks(*link_, flow, fsm);
  const StreamResult sr = co_await streamer.Stream(plan, path, gpu_share, hint,
                                                   mode, kv_limit, &hooks);

  // Transfers are done (last chunk_transfer_done instant) and the GPU lane
  // has drained inside Stream(); stamp the two tail events.
  fsm.Feed(RequestEvent::kDecode, fsm.last_event_s());
  fsm.Feed(RequestEvent::kDecodeDone, admit_s + sr.stream_finish_s);

  // The worker (and its link flow) stays occupied through the enhancement
  // pass, which overlaps the prompt pass that runs right after load_finish;
  // in non-progressive modes stream_finish == load_finish and this is the
  // plain TTFT instant.
  const double free_s = admit_s + std::max(sr.ttft_s, sr.stream_finish_s);

  RequestOutcome& out = (*outcomes)[outcome];
  out.request = rq;
  out.worker = worker;
  out.admit_s = admit_s;
  out.queue_delay_s = queue_delay;
  out.load_finish_s = sr.load_finish_s;
  out.ttft_s = queue_delay + sr.ttft_s;
  out.finish_s = free_s;
  out.slo_violated = queue_delay + sr.load_finish_s > slo + 1e-12;
  out.cache_hit = hit;
  out.cold_hit = hit && look.tier == KVTier::kCold;
  out.remote_hit = remote;
  out.prefix_hit = prefix;
  out.covered_tokens = look.covered_tokens;
  out.forced_text = !hit && !prefix;  // prefix/cold streams are never forced_text
  out.quality = sr.quality;
  out.bytes_sent = sr.bytes_sent;
  out.base_quality = sr.base_quality;
  out.refine_delay_s = std::max(0.0, sr.stream_finish_s - sr.load_finish_s);
  out.base_token_fraction = sr.base_token_fraction;
  out.enhanced_token_fraction = sr.enhanced_token_fraction;
  out.fabric_node = look.home_node;

  if (remote) {
    // The interconnect leg of the stream: between queue_wait and the end of
    // kv_stream on this track (ci/check_trace.py validates the ordering on
    // every remote-hit track).
    CG_TRACE_VSPAN("fabric", "remote_fetch", track, admit_s,
                   admit_s + opts_.remote_rtt_s, "rtt_s", opts_.remote_rtt_s);
  }
  CG_TRACE_VSPAN("cluster", "kv_stream", track, admit_s,
                 admit_s + sr.load_finish_s, "bytes",
                 static_cast<double>(sr.bytes_sent));

  // Cache-tier mutations happen BEFORE the worker is handed back: a
  // successor admitted because of this completion sees a settled tier. A
  // partial-prefix hit writes back too (it is a context-level miss): under a
  // prefix-aware tier the covered chunks dedup into the store and only the
  // suffix costs bytes.
  if (!hit && opts_.write_back_on_miss) {
    // The encode's real CPU cost gets a wall span (pid 1). The lifecycle
    // marker on the request's virtual track is zero-duration at the
    // completion instant — virtual time is never stretched by machine
    // speed, keeping replayed incident artifacts byte-identical.
    CG_TRACE_SPAN("cluster", "write_back_persist");
    // Announce BEFORE pinning: a prefix-aware tier routes Pin() by what it
    // knows about the id, so the announcement is what turns this pin into a
    // pending context pin that carries over to the registration.
    tier_->BeginStore(rq.context_id, rq.spec);
    PinGuard write_pin = PinGuard::Acquire(*tier_, rq.context_id);
    try {
      engine_.StoreKV(rq.context_id, rq.spec);
      // Put() cannot know virtual time; stamp recency here or the fresh
      // write-back would be the LRU victim.
      tier_->Touch(rq.context_id, free_s);
      out.write_back_done = true;
    } catch (const std::exception&) {
      // StoreKV persists through PutBatch, which rolls a failed insert of a
      // previously-absent context back entirely. The context simply stays
      // uncached (the guard drops the pin); the tier retires the
      // unconsumed announcement.
      tier_->AbortStore(rq.context_id);
      out.write_back_failed = true;
    }
    CG_TRACE_VSPAN("cluster", "write_back", track, free_s, free_s);
  }
  // Commit (or trivial skip) settled: the request's terminal event.
  fsm.Feed(RequestEvent::kWriteBackCommitted, free_s);

  const bool keep_pin_for_assembly = hit && opts_.assemble_kv;
  if (look.pinned && !keep_pin_for_assembly) pin.Release();
  completions->push_back({link_->CompleteFlow(flow, free_s), worker, outcome});

  // The codec tail: real CPU, no virtual-time cost. AssembleKV fans its
  // decode out over the codec pool.
  if (keep_pin_for_assembly) {
    std::vector<int> levels;
    levels.reserve(sr.steps.size());
    for (const StreamStep& step : sr.steps) {
      // Enhancement steps revisit a chunk the base pass already delivered;
      // assembly wants exactly one decision per chunk.
      if (step.enhancement) continue;
      levels.push_back(step.config.text ? -1 : step.config.level_id);
    }
    CG_TRACE_SPAN("cluster", "assemble_kv");
    try {
      const KVCache kv = engine_.AssembleKV(rq.context_id, rq.spec, levels);
      (void)kv;
    } catch (const std::exception&) {
      // A chunk was evicted between lookup and assembly under extreme
      // capacity pressure; the text path would recompute it (already
      // priced into the streaming timeline as the coarsest outcome).
    }
    pin.Release();
  }
  out.answer_correct = Engine::AnswerCorrect(rq.spec, sr.quality);
}

const ContextPlan& ClusterServer::PlanFor(size_t tokens) {
  auto it = plans_.find(tokens);
  if (it == plans_.end()) {
    it = plans_.emplace(tokens, engine_.PlanFromCalibration(tokens)).first;
  }
  return it->second;
}

// --- per-request metrics + continuous telemetry ------------------------------

void ClusterServer::RecordOutcomeMetrics(const RequestOutcome& out) {
  CG_METRIC_COUNT("cluster.requests", 1);
  if (out.cache_hit && out.cold_hit) {
    CG_METRIC_COUNT("cluster.hits.cold", 1);
  } else if (out.cache_hit) {
    CG_METRIC_COUNT("cluster.hits.hot", 1);
  } else if (out.prefix_hit) {
    CG_METRIC_COUNT("cluster.hits.prefix", 1);
  } else {
    CG_METRIC_COUNT("cluster.misses", 1);
  }
  if (out.remote_hit) CG_METRIC_COUNT("cluster.remote_streams", 1);
  if (out.slo_violated) CG_METRIC_COUNT("cluster.slo_violations", 1);
  CG_METRIC_COUNT("cluster.bytes_sent",
                  static_cast<uint64_t>(out.bytes_sent));
  if (out.write_back_done) CG_METRIC_COUNT("cluster.write_backs", 1);
  if (out.write_back_failed) CG_METRIC_COUNT("cluster.write_back_failures", 1);
  CG_METRIC_HIST("cluster.ttft_us", static_cast<uint64_t>(out.ttft_s * 1e6));
  CG_METRIC_HIST("cluster.queue_delay_us",
                 static_cast<uint64_t>(out.queue_delay_s * 1e6));
}

void ClusterServer::StartTelemetry() {
  series_.reset();
  monitor_.reset();
  recorder_.reset();
  completed_tracks_.clear();
  last_completed_track_ = 0;
  last_violated_track_ = 0;
  last_completion_s_ = 0.0;
  incident_injected_ = false;
  const TelemetryOptions& t = opts_.telemetry;
  if (t.sample_period_s <= 0.0) return;
  obs::TimeSeriesCollector::Options copts;
  copts.period_s = t.sample_period_s;
  copts.max_windows = t.max_windows;
  copts.include = t.include;
  series_ = std::make_unique<obs::TimeSeriesCollector>(std::move(copts));
  monitor_ = std::make_unique<obs::SloMonitor>(t.slo);
  recorder_ = std::make_unique<obs::FlightRecorder>(t.recorder);
  series_->set_on_window([this](const obs::WindowRecord& win) {
    const auto rec = monitor_->OnWindow(win);
    if (rec && rec->to == obs::AlertLevel::kPage) {
      // The incident pivots on the most recent SLO-violated completion (the
      // request that tipped the burn), falling back to the most recent
      // completion — both fixed in completion order, hence deterministic.
      const uint64_t offender = last_violated_track_ != 0
                                    ? last_violated_track_
                                    : last_completed_track_;
      CaptureIncident(offender, win.end_s, "page");
    }
  });
  series_->Start(0.0);
}

void ClusterServer::OnCompletionTelemetry(const RequestOutcome& out) {
  if (!series_) return;
  const uint64_t track = TraceTrack(out.request);
  completed_tracks_.insert(track);
  last_completed_track_ = track;
  if (out.slo_violated) last_violated_track_ = track;
  last_completion_s_ = std::max(last_completion_s_, out.finish_s);
  if (out.fabric_node >= 0) {
    // Per-node fabric series, attributed by the coordinator: the fabric's
    // own per-node counters are worker-recorded and racy to sample.
    const std::string node = "fabric.node" + std::to_string(out.fabric_node);
    series_->BumpExternal(node + ".requests", 1);
    if (out.remote_hit) series_->BumpExternal(node + ".remote_streams", 1);
  }
  if (opts_.telemetry.inject_incident_at_s >= 0.0 && !incident_injected_ &&
      out.finish_s >= opts_.telemetry.inject_incident_at_s) {
    incident_injected_ = true;
    CaptureIncident(track, out.finish_s, "injected");
  }
}

void ClusterServer::FinishTelemetry(double t_s) {
  if (series_ && series_->started()) series_->Finish(t_s);
}

void ClusterServer::CaptureIncident(uint64_t offending_track, double t_s,
                                    const char* reason) {
  if (!recorder_) return;
  recorder_->Capture(offending_track, t_s, reason, [this](uint64_t trk) {
    return completed_tracks_.count(trk) != 0;
  });
}

}  // namespace cachegen

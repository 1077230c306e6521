#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "cluster/cluster_metrics.h"
#include "cluster/cluster_server.h"
#include "cluster/request_queue.h"
#include "cluster/scheduler.h"
#include "cluster/shared_link.h"
#include "codec/encoding_level.h"
#include "common/task.h"
#include "net/bandwidth_trace.h"
#include "net/link.h"
#include "obs/metrics.h"
#include "serving/engine.h"
#include "storage/sharded_kv_store.h"
#include "storage/tiered_kv_store.h"
#include "streamer/streamer.h"

namespace cachegen {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// SharedLink: the fluid fair-share arbiter in isolation.
// ---------------------------------------------------------------------------

// Drives the link the way ClusterServer's coordinator does: resume whatever
// is ready, otherwise advance virtual time (never past `limit_s`), until
// nothing can move.
void RunLink(SharedLink& link,
             double limit_s = std::numeric_limits<double>::infinity()) {
  while (link.ResumeReady() || link.Advance(limit_s)) {
  }
}

// One flow's life: a single transfer, then leave the link so the flows
// still streaming are not frozen behind it.
Task<> SendThenLeave(SharedLink& link, SharedLink::FlowId flow, double bytes,
                     TransferRecord* rec) {
  *rec = co_await link.Transfer(flow, bytes);
  link.Deregister(flow);
}

TEST(SharedLink, SingleFlowMatchesPrivateLinkTiming) {
  SharedLink link(BandwidthTrace::Constant(1.0));  // 1 Gbps
  const auto flow = link.Register(0.0);
  const double bytes = 1e9 / 8.0;  // exactly one second at 1 Gbps
  TransferRecord rec;
  const Task<> t = SendThenLeave(link, flow, bytes, &rec);
  RunLink(link);
  ASSERT_TRUE(t.done());
  EXPECT_DOUBLE_EQ(rec.start_s, 0.0);
  EXPECT_NEAR(rec.end_s, 1.0, 1e-9);
  EXPECT_NEAR(rec.ThroughputGbps(), 1.0, 1e-9);
  EXPECT_EQ(link.ActiveFlows(), 0u);
}

TEST(SharedLink, TwoEqualFlowsHalveEachOther) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  const auto f1 = link.Register(0.0);
  const auto f2 = link.Register(0.0);
  const double bytes = 1e9 / 8.0;  // 1 s alone, 2 s when shared

  TransferRecord r1, r2;
  const Task<> t1 = SendThenLeave(link, f1, bytes, &r1);
  const Task<> t2 = SendThenLeave(link, f2, bytes, &r2);
  RunLink(link);
  ASSERT_TRUE(t1.done() && t2.done());
  EXPECT_NEAR(r1.end_s, 2.0, 1e-6);
  EXPECT_NEAR(r2.end_s, 2.0, 1e-6);
}

TEST(SharedLink, WeightedSharingSplitsProportionally) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  const auto heavy = link.Register(0.0, 2.0);
  const auto light = link.Register(0.0, 1.0);
  const double bytes = 1e9 / 8.0;

  TransferRecord rh, rl;
  const Task<> t1 = SendThenLeave(link, heavy, bytes, &rh);
  const Task<> t2 = SendThenLeave(link, light, bytes, &rl);
  RunLink(link);
  ASSERT_TRUE(t1.done() && t2.done());
  // Heavy gets 2/3 of capacity -> finishes at 1.5 s; light then has the
  // remaining 1/3 spent for 1.5 s (0.5 of its second) and finishes the rest
  // at full capacity: 1.5 + 0.5 = 2.0 s.
  EXPECT_NEAR(rh.end_s, 1.5, 1e-6);
  EXPECT_NEAR(rl.end_s, 2.0, 1e-6);
}

TEST(SharedLink, LateFlowOnlySharesWhileActive) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  const auto early = link.Register(0.0);
  const auto late = link.Register(1.0);  // admitted at t = 1 s
  const double bytes = 2e9 / 8.0;        // 2 s alone

  TransferRecord re, rl;
  const Task<> t1 = SendThenLeave(link, early, bytes, &re);
  const Task<> t2 = SendThenLeave(link, late, bytes, &rl);
  RunLink(link);
  ASSERT_TRUE(t1.done() && t2.done());
  // Early runs alone for 1 s (half done), then shares: remaining 1 s of work
  // at half rate = 2 s more -> ends at 3 s. Late: from t=1 at half rate
  // until 3 s (1 s of work done), then alone for its last second -> 4 s.
  EXPECT_NEAR(re.end_s, 3.0, 1e-6);
  EXPECT_NEAR(rl.end_s, 4.0, 1e-6);
}

TEST(SharedLink, AdvanceLimitCapsVirtualTime) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  const auto flow = link.Register(0.0);
  TransferRecord rec;
  const Task<> t = SendThenLeave(link, flow, 1e9 / 8.0, &rec);
  // The transfer needs until 1.0 s; the limit stops time at 0.5 s with the
  // transfer still in flight.
  RunLink(link, 0.5);
  EXPECT_NEAR(link.now(), 0.5, 1e-9);
  EXPECT_FALSE(t.done());
  RunLink(link);
  ASSERT_TRUE(t.done());
  EXPECT_NEAR(rec.end_s, 1.0, 1e-9);
}

// Time is frozen while any registered flow has yet to await an operation:
// the coroutine that owns it may still post a transfer at the current
// instant.
TEST(SharedLink, FlowWithoutPendingOperationFreezesTime) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  const auto busy = link.Register(0.0);
  const auto idle = link.Register(0.0);
  TransferRecord rec;
  const Task<> t = SendThenLeave(link, busy, 1e9 / 8.0, &rec);
  EXPECT_FALSE(link.Advance());
  EXPECT_DOUBLE_EQ(link.now(), 0.0);
  link.Deregister(idle);
  RunLink(link);
  ASSERT_TRUE(t.done());
  EXPECT_NEAR(rec.end_s, 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Scheduler policies.
// ---------------------------------------------------------------------------

ClusterRequest MakeReq(uint64_t id, double arrival, size_t tokens, double slo) {
  ClusterRequest rq;
  rq.id = id;
  rq.arrival_s = arrival;
  rq.context_id = "ctx-" + std::to_string(id);
  rq.spec = {id, tokens};
  rq.slo_s = slo;
  return rq;
}

TEST(SchedulerPolicy, PolicyPicksMatchTheirObjectives) {
  const ClusterRequest a = MakeReq(0, 0.0, 9000, 10.0);  // early, long, lax
  const ClusterRequest b = MakeReq(1, 0.5, 1000, 9.0);   // later, short
  const ClusterRequest c = MakeReq(2, 0.8, 5000, 0.5);   // latest, tight SLO
  const std::vector<const ClusterRequest*> cands = {&a, &b, &c};

  EXPECT_EQ(MakeSchedulerPolicy(SchedulerPolicyKind::kFifo)->Pick(cands, 1.0), 0u);
  EXPECT_EQ(
      MakeSchedulerPolicy(SchedulerPolicyKind::kShortestLoadFirst)->Pick(cands, 1.0),
      1u);
  EXPECT_EQ(
      MakeSchedulerPolicy(SchedulerPolicyKind::kSloDeadlineFirst)->Pick(cands, 1.0),
      2u);  // deadline 0.8 + 0.5 = 1.3, earliest
}

TEST(RequestQueue, PopReadyOnlyConsidersArrived) {
  RequestQueue queue({MakeReq(0, 0.0, 100, 1), MakeReq(1, 5.0, 50, 1)});
  const auto policy = MakeSchedulerPolicy(SchedulerPolicyKind::kShortestLoadFirst);
  // At t=1 only request 0 is eligible even though 1 is shorter.
  const ClusterRequest first = queue.PopReady(*policy, 1.0);
  EXPECT_EQ(first.id, 0u);
  EXPECT_EQ(queue.NextArrival(), 5.0);
  const ClusterRequest second = queue.PopReady(*policy, 6.0);
  EXPECT_EQ(second.id, 1u);
  EXPECT_TRUE(queue.Empty());
}

TEST(RequestTrace, PoissonTraceIsDeterministicAndSorted) {
  RequestTraceOptions opts;
  opts.num_requests = 50;
  opts.seed = 42;
  const auto a = PoissonTrace(opts);
  const auto b = PoissonTrace(opts);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].context_id, b[i].context_id);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    }
  }
}

// ---------------------------------------------------------------------------
// ClusterServer end-to-end (shared Engine across tests: construction is the
// expensive part).
// ---------------------------------------------------------------------------

struct ClusterFixture {
  RequestTraceOptions trace_opts;
  std::shared_ptr<ShardedKVStore> store;
  std::unique_ptr<Engine> engine;

  explicit ClusterFixture(uint64_t capacity_bytes = 0, size_t num_shards = 4) {
    trace_opts.num_contexts = 4;
    trace_opts.min_tokens = 900;
    trace_opts.max_tokens = 1800;
    trace_opts.slo_s = 4.0;
    trace_opts.seed = 0xC1u;

    Engine::Options eopts;
    eopts.model_name = "mistral-7b";
    eopts.calib_context_tokens = 600;
    eopts.calib_num_contexts = 4;
    store = std::make_shared<ShardedKVStore>(ShardedKVStore::Options{
        .num_shards = num_shards, .capacity_bytes = capacity_bytes});
    engine = std::make_unique<Engine>(eopts, store);
  }
};

ClusterFixture& WarmFixture() {
  static ClusterFixture* fx = [] {
    auto* f = new ClusterFixture();
    ClusterServer::Options copts;
    ClusterServer server(*f->engine, f->store, BandwidthTrace::Constant(2.0), copts);
    server.Prestore(f->trace_opts);  // warm cache: every request hits
    return f;
  }();
  return *fx;
}

std::vector<RequestOutcome> RunLoad(ClusterFixture& fx, double rate_hz,
                                    size_t num_requests, size_t workers,
                                    SchedulerPolicyKind policy) {
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = num_requests;
  topts.arrival_rate_hz = rate_hz;
  ClusterServer::Options copts;
  copts.num_workers = workers;
  copts.policy = policy;
  copts.write_back_on_miss = false;  // keep virtual-only (everything hits)
  copts.assemble_kv = false;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0), copts);
  return server.Serve(PoissonTrace(topts));
}

TEST(ClusterServer, ServesWholeTraceDeterministically) {
  ClusterFixture& fx = WarmFixture();
  const auto a = RunLoad(fx, 2.0, 16, 4, SchedulerPolicyKind::kFifo);
  const auto b = RunLoad(fx, 2.0, 16, 4, SchedulerPolicyKind::kFifo);
  ASSERT_EQ(a.size(), 16u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request.id, i);
    EXPECT_TRUE(a[i].cache_hit);
    EXPECT_GT(a[i].ttft_s, 0.0);
    EXPECT_GE(a[i].admit_s, a[i].request.arrival_s - 1e-9);
    // Bit-identical across runs: virtual time is independent of thread
    // scheduling.
    EXPECT_DOUBLE_EQ(a[i].ttft_s, b[i].ttft_s);
    EXPECT_DOUBLE_EQ(a[i].finish_s, b[i].finish_s);
    EXPECT_EQ(a[i].worker, b[i].worker);
  }
}

// N=1 oracle: a lone, uncontended request served by the cluster follows the
// timeline of KVStreamer::Stream over a private Link of the same capacity —
// same plan, SLO budget, throughput hint and GPU share 1 — even though the
// cluster prices its transfers through the fluid SharedLink and its GPU
// stages through a lane.
TEST(ClusterServer, UncontendedRequestMatchesStandaloneStream) {
  ClusterFixture& fx = WarmFixture();
  constexpr double kGbps = 2.0;
  std::vector<ClusterRequest> trace;
  for (size_t i = 0; i < fx.trace_opts.num_contexts; ++i) {
    ClusterRequest rq;
    rq.id = i;
    rq.arrival_s = 100.0 * static_cast<double>(i);  // far apart: each runs alone
    rq.context_id = PoolContextId(i);
    rq.spec = PoolContextSpec(fx.trace_opts, i);
    rq.slo_s = fx.trace_opts.slo_s;
    trace.push_back(std::move(rq));
  }
  ClusterServer::Options copts;
  copts.num_workers = 2;
  copts.write_back_on_miss = false;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(kGbps), copts);
  const auto outcomes = server.Serve(trace);
  ASSERT_EQ(outcomes.size(), trace.size());

  for (const RequestOutcome& o : outcomes) {
    ASSERT_TRUE(o.cache_hit);
    EXPECT_DOUBLE_EQ(o.queue_delay_s, 0.0);
    const ContextPlan plan = fx.engine->PlanFromCalibration(o.request.spec.num_tokens);
    const KVStreamer streamer(fx.engine->cost(), fx.engine->model(),
                              o.request.slo_s, DefaultEncodingLevels().size());
    Link link(BandwidthTrace::Constant(kGbps));
    const StreamResult sr =
        streamer.Stream(plan, link, /*gpu_share=*/1.0, /*hint=*/kGbps).Get();
    EXPECT_NEAR(o.ttft_s, sr.ttft_s, 1e-9) << "request " << o.request.id;
    EXPECT_NEAR(o.load_finish_s, sr.load_finish_s, 1e-9) << "request " << o.request.id;
    EXPECT_EQ(o.bytes_sent, sr.bytes_sent) << "request " << o.request.id;
    EXPECT_EQ(o.quality, sr.quality) << "request " << o.request.id;
  }
}

TEST(ClusterServer, P95TtftIsMonotoneInOfferedLoad) {
  ClusterFixture& fx = WarmFixture();
  std::vector<double> p95s;
  for (const double rate : {0.25, 2.0, 16.0}) {
    const auto outcomes = RunLoad(fx, rate, 24, 4, SchedulerPolicyKind::kFifo);
    p95s.push_back(Summarize(outcomes).p95_ttft_s);
  }
  EXPECT_LE(p95s[0], p95s[1] + 1e-9);
  EXPECT_LE(p95s[1], p95s[2] + 1e-9);
  // And strictly worse from light to heavy load overall.
  EXPECT_LT(p95s[0], p95s[2]);
}

TEST(ClusterServer, ConcurrencyDegradesTtftVsSolo) {
  ClusterFixture& fx = WarmFixture();
  // Same 8 requests served by 1 worker (sequential, sole use of the link)
  // vs 8 workers (all share the link).
  const auto solo = RunLoad(fx, 1000.0, 8, 1, SchedulerPolicyKind::kFifo);
  const auto packed = RunLoad(fx, 1000.0, 8, 8, SchedulerPolicyKind::kFifo);
  // With all 8 in flight at once the slowest stream must be slower than any
  // solo stream of the same contexts (bandwidth is split 8 ways).
  double max_solo_stream = 0.0, max_packed_stream = 0.0;
  for (const auto& o : solo) max_solo_stream = std::max(max_solo_stream, o.load_finish_s);
  for (const auto& o : packed) {
    max_packed_stream = std::max(max_packed_stream, o.load_finish_s);
  }
  EXPECT_GT(max_packed_stream, max_solo_stream);
}

TEST(ClusterServer, CapacityPressureProducesMissesAndEvictions) {
  // Fresh fixture with a cache far smaller than the working set. One shard
  // so the contexts genuinely contend for the same LRU budget (a shard
  // always retains its last context, so a tiny multi-shard store would
  // simply keep one context per shard).
  ClusterFixture fx(/*capacity_bytes=*/1, /*num_shards=*/1);
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = 8;
  topts.num_contexts = 3;
  topts.zipf_exponent = 0.0;  // uniform: several distinct contexts contend
  topts.min_tokens = 600;
  topts.max_tokens = 900;
  topts.arrival_rate_hz = 1.0;
  ClusterServer::Options copts;
  copts.num_workers = 2;
  copts.write_back_on_miss = true;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0), copts);
  const auto outcomes = server.Serve(PoissonTrace(topts));
  ASSERT_EQ(outcomes.size(), 8u);
  const auto stats = fx.store->stats();
  EXPECT_GT(stats.context_misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  for (const auto& o : outcomes) {
    if (!o.cache_hit) {
      EXPECT_TRUE(o.forced_text);
      EXPECT_DOUBLE_EQ(o.quality, 1.0);  // text path is lossless
    }
  }
}

TEST(ClusterServer, SummaryAggregatesAreCoherent) {
  ClusterFixture& fx = WarmFixture();
  const auto outcomes = RunLoad(fx, 8.0, 20, 4, SchedulerPolicyKind::kSloDeadlineFirst);
  const ClusterSummary s = Summarize(outcomes);
  EXPECT_EQ(s.completed, 20u);
  EXPECT_GT(s.makespan_s, 0.0);
  EXPECT_GE(s.p95_ttft_s, s.p50_ttft_s);
  EXPECT_GE(s.p99_ttft_s, s.p95_ttft_s);
  EXPECT_GE(s.slo_violation_rate, 0.0);
  EXPECT_LE(s.slo_violation_rate, 1.0);
  EXPECT_GT(s.goodput_tokens_per_s, 0.0);
  EXPECT_GT(s.mean_qoe_mos, 1.0);
  EXPECT_LE(s.mean_qoe_mos, 5.0);
  EXPECT_DOUBLE_EQ(s.cache_hit_rate, 1.0);
}

TEST(ClusterServer, ProgressiveUpgradesWithSlackAndDegradesUnderContention) {
  // Long contexts and an SLO below the text-recompute time force KV levels;
  // the virtual store is primed with marker chunks so every request hits
  // (the streaming timeline never reads chunk bytes with assemble_kv off).
  ClusterFixture fx;
  fx.trace_opts.min_tokens = 4500;
  fx.trace_opts.max_tokens = 6000;
  fx.trace_opts.slo_s = 0.8;
  for (size_t i = 0; i < fx.trace_opts.num_contexts; ++i) {
    const uint8_t marker[] = {1};
    fx.store->Put({PoolContextId(i), 0, 0}, marker);
  }

  auto run = [&](double rate_hz, size_t workers, bool progressive) {
    RequestTraceOptions topts = fx.trace_opts;
    topts.num_requests = 10;
    topts.arrival_rate_hz = rate_hz;
    ClusterServer::Options copts;
    copts.num_workers = workers;
    copts.write_back_on_miss = false;
    copts.progressive = progressive;
    ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0), copts);
    return server.Serve(PoissonTrace(topts));
  };

  const auto prog_light = run(0.2, 2, true);
  const auto flat_light = run(0.2, 2, false);
  ASSERT_EQ(prog_light.size(), flat_light.size());
  for (size_t i = 0; i < prog_light.size(); ++i) {
    // Each stream's base pass reproduces the non-layered timeline, so
    // progressive delivery costs no SLO that adaptive streaming met (the
    // enhancement tail can nudge a queued successor's quality either way,
    // which is why quality is compared on the aggregate below).
    EXPECT_EQ(prog_light[i].slo_violated, flat_light[i].slo_violated);
    EXPECT_TRUE(prog_light[i].cache_hit);
    EXPECT_GE(prog_light[i].quality, prog_light[i].base_quality - 1e-12);
  }
  const ClusterSummary light = Summarize(prog_light);
  const ClusterSummary flat = Summarize(flat_light);
  EXPECT_GT(light.mean_enhanced_fraction, 0.0);    // slack got spent on upgrades
  EXPECT_GT(light.mean_quality, flat.mean_quality);  // and it bought real quality
  EXPECT_DOUBLE_EQ(light.slo_violation_rate, flat.slo_violation_rate);

  // Under heavy contention the shared link leaves no slack: requests degrade
  // to base-only delivery instead of missing SLOs they would otherwise meet.
  const auto prog_heavy = run(1000.0, 8, true);
  const ClusterSummary heavy = Summarize(prog_heavy);
  EXPECT_LT(heavy.mean_enhanced_fraction, light.mean_enhanced_fraction);
}

// A KVStore backend whose Nth Put fails — a storage server hitting a
// transient disk error mid write-back.
class FlakyBackend final : public KVStore {
 public:
  explicit FlakyBackend(int failing_put_index)
      : failing_put_index_(failing_put_index) {}

  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override {
    if (puts_.fetch_add(1) == failing_put_index_) {
      throw std::runtime_error("FlakyBackend: disk full");
    }
    inner_.Put(key, bytes);
  }
  std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override {
    return inner_.Get(key);
  }
  bool ContainsContext(const std::string& id) const override {
    return inner_.ContainsContext(id);
  }
  void EraseContext(const std::string& id) override { inner_.EraseContext(id); }
  uint64_t TotalBytes() const override { return inner_.TotalBytes(); }
  uint64_t ContextBytes(const std::string& id) const override {
    return inner_.ContextBytes(id);
  }

 private:
  MemoryKVStore inner_;
  std::atomic<int> puts_{0};
  int failing_put_index_;
};

TEST(ClusterServer, ThrowingWriteBackDoesNotLeakPinOrPartialContext) {
  // StoreKV's batch insert hits a backend failure on its second chunk. The
  // miss write-back must catch the failure, roll the partial insert back
  // (PutBatch all-or-nothing), and — via PinGuard — drop its pin, or the
  // context becomes a permanently unevictable half-written hit.
  Engine::Options eopts;
  eopts.model_name = "mistral-7b";
  eopts.calib_context_tokens = 600;
  eopts.calib_num_contexts = 4;
  auto store = std::make_shared<ShardedKVStore>(
      ShardedKVStore::Options{.num_shards = 1, .capacity_bytes = 0},
      [](size_t) -> std::unique_ptr<KVStore> {
        return std::make_unique<FlakyBackend>(1);
      });
  Engine engine(eopts, store);

  ClusterServer::Options copts;
  copts.num_workers = 1;
  copts.write_back_on_miss = true;
  ClusterServer server(engine, store, BandwidthTrace::Constant(2.0), copts);
  const auto outcomes = server.Serve({MakeReq(0, 0.0, 600, 5.0)});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].cache_hit);
  EXPECT_TRUE(outcomes[0].forced_text);

  // The failed write-back left nothing partial behind...
  EXPECT_FALSE(store->ContainsContext("ctx-0"));
  EXPECT_EQ(store->TotalBytes(), 0u);
  // ...and no pin either: the backend works again now, so a fresh store +
  // erase round-trips (EraseContext is refused while pins are held, so its
  // success proves PinGuard released the write pin).
  store->Put({"ctx-0", 0, 0}, std::vector<uint8_t>{1});
  ASSERT_TRUE(store->ContainsContext("ctx-0"));
  store->EraseContext("ctx-0");
  EXPECT_FALSE(store->ContainsContext("ctx-0"));
}

TEST(ClusterServer, AssembleKvDecodesRealBitstreams) {
  ClusterFixture& fx = WarmFixture();
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = 3;
  topts.arrival_rate_hz = 2.0;
  ClusterServer::Options copts;
  copts.num_workers = 2;
  copts.assemble_kv = true;  // drive Engine::AssembleKV through real chunks
  copts.write_back_on_miss = false;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0), copts);
  const auto outcomes = server.Serve(PoissonTrace(topts));
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.cache_hit);
    EXPECT_GT(o.quality, 0.5);
  }
}

// ---------------------------------------------------------------------------
// Outcome counters: each scenario counts under its own metric name, however
// the scenarios interleave within one run.
// ---------------------------------------------------------------------------

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Instance().GetCounter(name).Value();
}

TEST(ClusterServer, HotAndColdHitCountersMatchOutcomes) {
  const fs::path root = fs::temp_directory_path() /
                        ("cachegen_cluster_hits_" + std::to_string(::getpid()));
  fs::remove_all(root);
  RequestTraceOptions topts;
  topts.num_requests = 12;
  topts.num_contexts = 3;
  topts.zipf_exponent = 0.0;  // uniform: all three contexts get traffic
  topts.min_tokens = 900;
  topts.max_tokens = 1200;
  topts.arrival_rate_hz = 1.0;
  topts.seed = 0xC01Du;

  // A hot tier smaller than any context, primed with marker chunks (the
  // timeline never reads chunk bytes with assemble_kv off): only the most
  // recently touched context stays hot, so requests alternate between hot
  // hits and cold promotions.
  TieredKVStore::Options sopts;
  sopts.hot = {.num_shards = 1, .capacity_bytes = 1};
  sopts.cold_root = root;
  auto store = std::make_shared<TieredKVStore>(sopts);
  Engine::Options eopts;
  eopts.model_name = "mistral-7b";
  eopts.calib_context_tokens = 600;
  eopts.calib_num_contexts = 4;
  Engine engine(eopts, store);
  for (size_t i = 0; i < topts.num_contexts; ++i) {
    const uint8_t marker[] = {1, 2, 3};
    store->Put({PoolContextId(i), 0, 0}, marker);
  }

  ClusterServer::Options copts;
  copts.num_workers = 2;
  copts.write_back_on_miss = false;
  copts.assemble_kv = false;
  ClusterServer server(engine, store, BandwidthTrace::Constant(2.0), copts);
  const uint64_t hot_before = CounterValue("cluster.hits.hot");
  const uint64_t cold_before = CounterValue("cluster.hits.cold");
  const auto outcomes = server.Serve(PoissonTrace(topts));
  ASSERT_EQ(outcomes.size(), topts.num_requests);
  uint64_t hot = 0, cold = 0;
  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.cache_hit);  // nothing was erased, so nothing can miss
    ++(o.cold_hit ? cold : hot);
  }
  ASSERT_GT(hot, 0u);
  ASSERT_GT(cold, 0u);
  EXPECT_EQ(CounterValue("cluster.hits.hot") - hot_before, hot);
  EXPECT_EQ(CounterValue("cluster.hits.cold") - cold_before, cold);
  fs::remove_all(root);
}

TEST(KVStreamer, KvAndTextChunkCountersMatchSteps) {
  ClusterFixture& fx = WarmFixture();
  const ContextPlan plan = fx.engine->PlanFromCalibration(9000);
  // A fast start streams KV; the collapse to 50 Mbps makes text (a few KB
  // plus recompute) the only option that keeps up.
  Link link(BandwidthTrace::FromSegments({{0.0, 10.0}, {0.3, 0.05}}));
  const KVStreamer streamer(fx.engine->cost(), fx.engine->model(),
                            /*slo_s=*/3.0, DefaultEncodingLevels().size());
  const uint64_t kv_before = CounterValue("streamer.chunks_kv");
  const uint64_t text_before = CounterValue("streamer.chunks_text");
  const StreamResult r = streamer.Stream(plan, link).Get();
  uint64_t kv = 0, text = 0;
  for (const auto& step : r.steps) ++(step.config.text ? text : kv);
  ASSERT_GT(kv, 0u);
  ASSERT_GT(text, 0u);
  EXPECT_EQ(CounterValue("streamer.chunks_kv") - kv_before, kv);
  EXPECT_EQ(CounterValue("streamer.chunks_text") - text_before, text);
}

}  // namespace
}  // namespace cachegen

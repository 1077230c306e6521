// Steady-state allocation budget of the serving loop.
//
// This executable replaces the global operator new/delete with counting
// forwarders to malloc/free (common/counting_new.h). A warm-up Serve() of
// hot hits on an unbounded ShardedKVStore fills every recycled buffer (flow
// slots, coroutine frame lists, the plan memo, scheduler scratch); the
// measured Serve() of the same trace must then make at most
// kMaxAllocsPerRequest heap allocations per request, and reproduce the
// warm-up's outcomes exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/cluster_metrics.h"
#include "cluster/cluster_server.h"
#include "common/counting_new.h"
#include "serving/engine.h"
#include "storage/sharded_kv_store.h"

namespace cachegen {
namespace {

constexpr double kMaxAllocsPerRequest = 5.0;

TEST(AllocBudget, SteadyStateHotHitServeStaysWithinBudget) {
  // The cachegen-bench hot-hits shape at 2,000 requests: four two-chunk
  // contexts under Zipf-0.9, two request slots, every request a hot hit.
  RequestTraceOptions t;
  t.num_requests = 2000;
  t.arrival_rate_hz = 3.5;
  t.num_contexts = 4;
  t.zipf_exponent = 0.9;
  t.min_tokens = 1800;
  t.max_tokens = 1800;
  t.slo_s = 3.0;
  t.seed = 7;

  Engine::Options e;
  e.calib_context_tokens = 600;
  e.calib_num_contexts = 4;
  auto store = std::make_shared<ShardedKVStore>(
      ShardedKVStore::Options{.num_shards = 8, .capacity_bytes = 0});
  Engine engine(e, std::shared_ptr<KVStore>(store, &store->kv()));
  ClusterServer::Options c;
  c.num_workers = 2;
  c.default_slo_s = t.slo_s;
  c.write_back_on_miss = false;
  ClusterServer server(engine, store, BandwidthTrace::Constant(3.0), c);
  server.Prestore(t);

  const std::vector<ClusterRequest> trace = PoissonTrace(t);
  const std::vector<RequestOutcome> warm = server.Serve(trace);
  for (const RequestOutcome& o : warm) ASSERT_TRUE(o.cache_hit);

  std::vector<ClusterRequest> again = trace;  // copied outside the count
  alloc_count::Start();
  const std::vector<RequestOutcome> measured = server.Serve(std::move(again));
  const uint64_t allocs = alloc_count::Stop();

  const double per_request =
      static_cast<double>(allocs) / static_cast<double>(t.num_requests);
  std::printf("steady-state Serve(): %.3f allocations per request\n", per_request);
  EXPECT_LE(per_request, kMaxAllocsPerRequest);

  // Recycled state must not leak into the model: the measured round is the
  // warm-up round, bit for bit.
  ASSERT_EQ(measured.size(), warm.size());
  EXPECT_EQ(OutcomeDigest(measured), OutcomeDigest(warm));
  for (size_t i = 0; i < warm.size(); ++i) {
    const RequestOutcome& a = warm[i];
    const RequestOutcome& b = measured[i];
    EXPECT_EQ(a.worker, b.worker) << i;
    EXPECT_EQ(a.admit_s, b.admit_s) << i;
    EXPECT_EQ(a.load_finish_s, b.load_finish_s) << i;
    EXPECT_EQ(a.ttft_s, b.ttft_s) << i;
    EXPECT_EQ(a.finish_s, b.finish_s) << i;
    EXPECT_EQ(a.quality, b.quality) << i;
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << i;
    EXPECT_EQ(a.answer_correct, b.answer_correct) << i;
  }
}

}  // namespace
}  // namespace cachegen

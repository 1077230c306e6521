// The three cachegen-bench workloads. Each is an open-loop Poisson trace in
// cluster virtual time (arrivals do not wait for completions), generated from
// the run's --seed; every size below is chosen so one round stays a few
// seconds of wall time on a 4-core machine while the modelled TTFT quantiles
// rest on >= 100 requests (p90 has >= 10 samples beyond it).
//
//   hot-hits    pure simulation load, codec idle: event loop, SharedLink
//               barrier, streamer/adapter and tier lookup. Moves with
//               event-core work (ROADMAP item 2); codec work must not move it.
//   write-back  the engine write path (StoreKV: prefill, encode at every
//               level, EstimateEnhancementBytes) plus storage writes,
//               demotions and cold promotions beside hot and cold reads.
//               Moves with write-back work (ROADMAP item 1).
//   prefix-read the read path with no writes during Serve(): radix prefix
//               match, fabric routing and peer fetch, Get copies through
//               stacked tiers, AssembleKV decode and text PrefillRange.
//               Moves with read-path work (ROADMAP item 3) and decode cost.
#include <stdexcept>

#include "bench.h"
#include "common/rng.h"
#include "fabric/cache_fabric.h"
#include "storage/sharded_kv_store.h"
#include "storage/tiered_kv_store.h"
#include "workload/prefix_trace.h"

namespace cgbench {

using namespace cachegen;

namespace {

// Two cluster workers: with the coordinator and a codec pool of two (the
// caller plus one background thread) the process stays within 4 OS threads.
// Four workers on 4 cores made hot-hits wall time swing 1.8-11.9 s between
// identical runs, while CPU per request hardly moved.
constexpr size_t kWorkers = 2;

uint64_t Derive(uint64_t seed, uint64_t salt) {
  return SplitMix64(seed ^ (salt * 0x9E3779B97F4A7C15ULL)).Next();
}

ClusterServer::Options BaseCluster(double slo_s) {
  ClusterServer::Options c;
  c.num_workers = kWorkers;
  c.default_slo_s = slo_s;
  c.assemble_kv = false;
  c.write_back_on_miss = false;
  return c;
}

// Warm, unbounded sharded store; 4 contexts of 1800 tokens (two chunks each)
// under Zipf-0.9 with a 3 s SLO: every request is a hot hit and nothing is
// encoded or decoded during Serve(), so a round measures simulation cost
// alone. The length is fixed so that a seed changes arrivals and context
// content but not the amount of work (with 900-1800-token contexts, the
// length drawn for the hottest context, which takes about half the
// requests, would set TTFT and the chunk count per request). Two workers serve about 4.3
// such requests per second of virtual time; 3.5 Hz keeps them loaded (queue
// delay p90 near 1 s) without the overload plateau that 16 Hz reaches, where
// the queue sits at the SLO and over half the requests miss it. 60k
// requests make Serve() take about two seconds of wall time, served three
// times per set-up so a run gets many Serve() samples.
Workload HotHits(uint64_t seed) {
  Workload w;
  w.name = "hot-hits";
  RequestTraceOptions t;
  t.num_requests = 60000;
  t.arrival_rate_hz = 3.5;
  t.num_contexts = 4;
  t.zipf_exponent = 0.9;
  t.min_tokens = 1800;
  t.max_tokens = 1800;
  t.slo_s = 3.0;
  t.seed = Derive(seed, 1);
  w.trace = PoissonTrace(t);
  for (size_t i = 0; i < t.num_contexts; ++i) {
    w.prestore.emplace_back(PoolContextId(i), PoolContextSpec(t, i));
  }
  w.cluster = BaseCluster(t.slo_s);
  w.serves = 3;
  w.make_tier = [](const std::filesystem::path&) -> std::shared_ptr<CacheTier> {
    return std::make_shared<ShardedKVStore>(
        ShardedKVStore::Options{.num_shards = 8, .capacity_bytes = 0});
  };
  return w;
}

// Cold start over a 24-context Zipf-0.8 pool of 950-1050-token (one-chunk)
// contexts at 2 Hz: the first request of each context misses and is written
// back. 200 requests touch all 24 contexts under every seed, so the written
// amount is nearly the same from seed to seed (a 48-context pool of
// 1000-2000-token contexts under 100 requests varied it by 10% between
// seeds, quartile to quartile). The 12 MiB hot tier holds about eight
// contexts, so write-backs demote to the unbounded cold directory and
// repeats promote back: the round exercises every storage write path next
// to hot and cold reads.
Workload WriteBack(uint64_t seed) {
  Workload w;
  w.name = "write-back";
  RequestTraceOptions t;
  t.num_requests = 200;
  t.arrival_rate_hz = 2.0;
  t.num_contexts = 24;
  t.zipf_exponent = 0.8;
  t.min_tokens = 950;
  t.max_tokens = 1050;
  t.slo_s = 2.0;
  t.seed = Derive(seed, 2);
  w.trace = PoissonTrace(t);
  w.cluster = BaseCluster(t.slo_s);
  w.cluster.write_back_on_miss = true;
  w.writes_back = true;
  w.make_tier = [](const std::filesystem::path& dir) -> std::shared_ptr<CacheTier> {
    TieredKVStore::Options o;
    o.hot = ShardedKVStore::Options{.num_shards = 4,
                                    .capacity_bytes = 12ull << 20};
    o.cold_root = dir / "cold";
    return std::make_shared<TieredKVStore>(o);
  };
  return w;
}

// 4-node fabric, 2 replicas, a prefix layer per node. 3 families share a
// 1500-token (one-chunk) prefix; each has 4 suffixes of 400-600 tokens, 3 of
// them prestored. Repeats are full hits (priced as remote), the fourth
// suffix is a partial-prefix hit where its home node holds the family's
// prefix and a miss elsewhere, and the 20% solo requests miss. At 0.2 Hz
// requests rarely overlap, so a scenario's TTFT follows its context length
// and the quantiles sit inside a scenario rather than on the border between
// two: p50 among the full hits, p90 among the misses (a quarter of the
// trace). Full hits cost most CPU (each decodes its prefix chunk), and
// their count is the trace's main seed-to-seed difference: 400 requests
// keep it within about 7% between seeds, quartile to quartile (200 left
// 9-14%). The 0.3 s SLO is deliberate: Algorithm 1 ships a chunk as text
// whenever text meets the deadline, so a loose SLO would decode nothing.
Workload PrefixRead(uint64_t seed) {
  Workload w;
  w.name = "prefix-read";
  PrefixTraceOptions p;
  p.num_requests = 400;
  p.arrival_rate_hz = 0.2;
  p.num_families = 3;
  p.family_zipf = 0.9;
  p.prefix_tokens = 1500;
  p.suffix_min_tokens = 400;
  p.suffix_max_tokens = 600;
  p.suffixes_per_family = 4;
  p.shared_fraction = 0.8;
  p.slo_s = 0.3;
  p.seed = Derive(seed, 3);
  w.trace = SharedPrefixTrace(p);
  for (size_t f = 0; f < p.num_families; ++f) {
    for (size_t s = 0; s + 1 < p.suffixes_per_family; ++s) {
      w.prestore.emplace_back(PrefixFamilyContextId(f, s),
                              PrefixFamilySpec(p, f, s));
    }
  }
  w.cluster = BaseCluster(p.slo_s);
  w.cluster.assemble_kv = true;
  w.decodes_in_serve = true;
  const size_t chunk_tokens = w.engine.chunk_tokens;
  w.make_tier = [chunk_tokens](const std::filesystem::path&)
      -> std::shared_ptr<CacheTier> {
    CacheFabric::Options f;
    f.num_nodes = 4;
    f.chunk_replicas = 2;
    f.prefix = true;
    f.node_store = ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0};
    f.prefix_opts.chunk_tokens = chunk_tokens;
    return std::make_shared<CacheFabric>(f);
  };
  return w;
}

}  // namespace

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "hot-hits") return HotHits(seed);
  if (name == "write-back") return WriteBack(seed);
  if (name == "prefix-read") return PrefixRead(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace cgbench

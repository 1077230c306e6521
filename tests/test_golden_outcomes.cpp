// Golden outcomes of the serving simulator. Fixed seeded traces are served
// over four tier arrangements and every outcome is hashed; the expected
// digests below were recorded from the multi-threaded serving core this
// single-threaded one replaced, so any change to a modelled timeline, a
// hit/miss decision, a write-back disposition or a worker assignment shows
// up as a digest mismatch rather than as an argument about equivalence.
//
// Two digests per arrangement:
//   * OutcomeDigest — the fields cachegen-bench hashes (same FNV-1a, same
//     order), so a mismatch here can be compared with a benchmark digest;
//   * DetailDigest — every remaining modelled field (worker, admission and
//     queueing instants, load finish, progressive fractions, answer,
//     fabric home node).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_metrics.h"
#include "cluster/cluster_server.h"
#include "fabric/cache_fabric.h"
#include "net/bandwidth_trace.h"
#include "serving/engine.h"
#include "storage/sharded_kv_store.h"
#include "storage/tiered_kv_store.h"
#include "workload/prefix_trace.h"

namespace cachegen {
namespace {

namespace fs = std::filesystem;

class Fnv {
 public:
  template <typename T>
  void Mix(const T& v) {
    const auto* b = reinterpret_cast<const unsigned char*>(&v);
    for (size_t i = 0; i < sizeof(T); ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t DetailDigest(const std::vector<RequestOutcome>& outcomes) {
  Fnv h;
  for (const RequestOutcome& o : outcomes) {
    h.Mix(o.request.id);
    h.Mix(static_cast<uint64_t>(o.worker));
    for (double v : {o.admit_s, o.queue_delay_s, o.load_finish_s, o.base_quality,
                     o.refine_delay_s, o.base_token_fraction,
                     o.enhanced_token_fraction}) {
      h.Mix(v);
    }
    h.Mix(static_cast<unsigned char>(o.answer_correct));
    h.Mix(static_cast<int64_t>(o.fabric_node));
  }
  return h.value();
}

Engine::Options SmallEngine() {
  Engine::Options e;
  e.calib_context_tokens = 600;
  e.calib_num_contexts = 4;
  return e;
}

// A directory removed on scope exit (cold tiers).
struct ScratchDir {
  ScratchDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("cachegen_golden_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  fs::path path;
};

void ExpectGolden(const char* name, const std::vector<RequestOutcome>& outcomes,
                  size_t expected_n, uint64_t outcome_digest,
                  uint64_t detail_digest) {
  ASSERT_EQ(outcomes.size(), expected_n) << name;
  const uint64_t got = OutcomeDigest(outcomes);
  const uint64_t detail = DetailDigest(outcomes);
  std::printf("golden %s: outcome %016llx detail %016llx\n", name,
              static_cast<unsigned long long>(got),
              static_cast<unsigned long long>(detail));
  EXPECT_EQ(got, outcome_digest) << name;
  EXPECT_EQ(detail, detail_digest) << name;
}

// Warm, unbounded sharded hot tier under queueing: 4 workers, 16 Hz of
// 900-1800-token requests, so streams share the link and the GPU ledger
// changes at every admission and completion.
TEST(GoldenOutcomes, ShardedHotTier) {
  auto store = std::make_shared<ShardedKVStore>(
      ShardedKVStore::Options{.num_shards = 4, .capacity_bytes = 0});
  Engine engine(SmallEngine(), store);
  RequestTraceOptions t;
  t.num_requests = 240;
  t.arrival_rate_hz = 16.0;
  t.num_contexts = 6;
  t.min_tokens = 900;
  t.max_tokens = 1800;
  t.zipf_exponent = 0.9;
  t.slo_s = 3.0;
  t.seed = 0x601d01;
  ClusterServer::Options c;
  c.num_workers = 4;
  c.write_back_on_miss = false;
  ClusterServer server(engine, std::static_pointer_cast<CacheTier>(store),
                       BandwidthTrace::Constant(3.0), c);
  server.Prestore(t);
  ExpectGolden("sharded", server.Serve(PoissonTrace(t)), t.num_requests,
               0xd6e8b9ae94b6eba0ull, 0x9004528b41be56f3ull);
}

// Cold start over a small hot tier backed by a cold directory, with
// write-back on miss: misses write back, evictions demote, repeats promote
// from the cold tier and pay the cold read model.
TEST(GoldenOutcomes, TieredWriteBackAndColdPromotion) {
  ScratchDir dir;
  TieredKVStore::Options o;
  o.hot = ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 6ull << 20};
  o.cold_root = dir.path / "cold";
  auto store = std::make_shared<TieredKVStore>(o);
  Engine engine(SmallEngine(), store);
  RequestTraceOptions t;
  t.num_requests = 48;
  t.arrival_rate_hz = 2.0;
  t.num_contexts = 12;
  t.min_tokens = 700;
  t.max_tokens = 1000;
  t.zipf_exponent = 0.6;
  t.slo_s = 2.0;
  t.seed = 0x601d02;
  ClusterServer::Options c;
  c.num_workers = 2;
  c.write_back_on_miss = true;
  ClusterServer server(engine, std::static_pointer_cast<CacheTier>(store),
                       BandwidthTrace::Constant(3.0), c);
  const auto outcomes = server.Serve(PoissonTrace(t));
  ExpectGolden("tiered", outcomes, t.num_requests, 0x51e2ff15d75253f4ull,
               0xf9edb256e0bc07e9ull);
  size_t cold = 0, written = 0;
  for (const RequestOutcome& out : outcomes) {
    cold += out.cold_hit;
    written += out.write_back_done;
  }
  EXPECT_GT(cold, 0u);
  EXPECT_GT(written, 0u);
}

// 4-node fabric with a prefix layer per node, real AssembleKV decode on
// every full hit, and write-back of misses and partial-prefix hits.
TEST(GoldenOutcomes, FabricPrefixAssemble) {
  CacheFabric::Options f;
  f.num_nodes = 4;
  f.chunk_replicas = 2;
  f.prefix = true;
  f.node_store = ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0};
  Engine::Options e = SmallEngine();
  e.chunk_tokens = 256;
  f.prefix_opts.chunk_tokens = e.chunk_tokens;
  auto fab = std::make_shared<CacheFabric>(f);
  Engine engine(e, fab);
  PrefixTraceOptions p;
  p.num_requests = 36;
  p.arrival_rate_hz = 2.0;
  p.num_families = 3;
  p.family_zipf = 0.9;
  p.prefix_tokens = 512;
  p.suffix_min_tokens = 128;
  p.suffix_max_tokens = 300;
  p.suffixes_per_family = 4;
  p.shared_fraction = 0.8;
  p.slo_s = 0.4;
  p.seed = 0x601d03;
  std::vector<std::pair<std::string, ContextSpec>> prestore;
  for (size_t fam = 0; fam < p.num_families; ++fam) {
    for (size_t s = 0; s + 1 < p.suffixes_per_family; ++s) {
      prestore.emplace_back(PrefixFamilyContextId(fam, s),
                            PrefixFamilySpec(p, fam, s));
    }
  }
  ClusterServer::Options c;
  c.num_workers = 3;
  c.default_slo_s = p.slo_s;
  c.assemble_kv = true;
  c.write_back_on_miss = true;
  ClusterServer server(engine, std::static_pointer_cast<CacheTier>(fab),
                       BandwidthTrace::Constant(3.0), c);
  server.Prestore(prestore);
  const auto outcomes = server.Serve(SharedPrefixTrace(p));
  ExpectGolden("fabric", outcomes, p.num_requests, 0x306cf041f5385580ull,
               0x779c1ef07006cdb3ull);
  size_t remote = 0, prefix = 0;
  for (const RequestOutcome& out : outcomes) {
    remote += out.remote_hit;
    prefix += out.prefix_hit;
  }
  EXPECT_GT(remote, 0u);
  EXPECT_GT(prefix, 0u);
}

// Progressive (§9) delivery under contention: base passes, enhancement
// passes that land inside the SLO window and ones that abort.
TEST(GoldenOutcomes, Progressive) {
  auto store = std::make_shared<ShardedKVStore>(
      ShardedKVStore::Options{.num_shards = 4, .capacity_bytes = 0});
  Engine engine(SmallEngine(), store);
  RequestTraceOptions t;
  t.num_requests = 120;
  t.arrival_rate_hz = 6.0;
  t.num_contexts = 4;
  t.min_tokens = 1200;
  t.max_tokens = 3000;
  t.zipf_exponent = 0.9;
  t.slo_s = 1.5;
  t.seed = 0x601d04;
  ClusterServer::Options c;
  c.num_workers = 4;
  c.progressive = true;
  c.write_back_on_miss = false;
  ClusterServer server(engine, std::static_pointer_cast<CacheTier>(store),
                       BandwidthTrace::Constant(2.0), c);
  server.Prestore(t);
  const auto outcomes = server.Serve(PoissonTrace(t));
  ExpectGolden("progressive", outcomes, t.num_requests, 0xc3b8131e79767d06ull,
               0x4a64ee5489ee8907ull);
  double enhanced = 0.0;
  for (const RequestOutcome& out : outcomes) enhanced += out.enhanced_token_fraction;
  EXPECT_GT(enhanced, 0.0);
}

}  // namespace
}  // namespace cachegen

// The event-driven serving core: RequestFsm legality, per-event GPU-share
// accounting in SharedLink, and the single-threaded coordinator's guarantees
// (no threads spawned to serve, deterministic outcomes independent of run
// count and of the codec thread-pool size).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/cluster_metrics.h"
#include "cluster/cluster_server.h"
#include "cluster/request_fsm.h"
#include "cluster/shared_link.h"
#include "common/task.h"
#include "common/thread_pool.h"
#include "net/bandwidth_trace.h"
#include "serving/engine.h"
#include "storage/sharded_kv_store.h"
#include "storage/tiered_kv_store.h"

namespace cachegen {
namespace {

// ---------------------------------------------------------------------------
// RequestFsm: the transition table, exhaustively.
// ---------------------------------------------------------------------------

TEST(RequestFsm, ExhaustiveTransitionSweepMatchesTheDesign) {
  using S = RequestState;
  using E = RequestEvent;
  // The full set of legal (state, event) -> next transitions. Everything not
  // listed must be rejected.
  const std::set<std::tuple<S, E, S>> legal = {
      {S::kAdmitted, E::kAdmit, S::kKvStreaming},
      {S::kKvStreaming, E::kChunkTransferDone, S::kKvStreaming},
      {S::kKvStreaming, E::kEnhance, S::kEnhancing},
      {S::kKvStreaming, E::kDecode, S::kDecoding},
      {S::kEnhancing, E::kChunkTransferDone, S::kEnhancing},
      {S::kEnhancing, E::kDecode, S::kDecoding},
      {S::kDecoding, E::kDecodeDone, S::kWriteBack},
      {S::kWriteBack, E::kWriteBackCommitted, S::kDone},
  };
  size_t legal_seen = 0;
  for (size_t si = 0; si < kNumRequestStates; ++si) {
    for (size_t ei = 0; ei < kNumRequestEvents; ++ei) {
      const S s = static_cast<S>(si);
      const E e = static_cast<E>(ei);
      S next;
      const bool ok = LegalTransition(s, e, &next);
      bool expected = false;
      for (const auto& [ls, le, ln] : legal) {
        if (ls == s && le == e) {
          expected = true;
          EXPECT_TRUE(ok) << RequestStateName(s) << " + " << RequestEventName(e);
          if (ok) {
            EXPECT_EQ(next, ln)
                << RequestStateName(s) << " + " << RequestEventName(e);
          }
        }
      }
      if (!expected) {
        EXPECT_FALSE(ok) << RequestStateName(s) << " + " << RequestEventName(e)
                         << " should be illegal";
      }
      if (ok) ++legal_seen;
    }
  }
  EXPECT_EQ(legal_seen, legal.size());
}

TEST(RequestFsm, FeedWalksBothPathsThrowsOnIllegalAndClampsMonotone) {
  // Plain (non-progressive) path.
  RequestFsm plain(/*track=*/1);
  plain.Feed(RequestEvent::kAdmit, 0.5);
  plain.Feed(RequestEvent::kChunkTransferDone, 1.0);
  plain.Feed(RequestEvent::kChunkTransferDone, 0.25);  // rounding backwards
  EXPECT_GE(plain.last_event_s(), 1.0);                // clamped monotone
  plain.Feed(RequestEvent::kDecode, 1.0);
  plain.Feed(RequestEvent::kDecodeDone, 2.0);
  plain.Feed(RequestEvent::kWriteBackCommitted, 2.0);
  EXPECT_EQ(plain.state(), RequestState::kDone);

  // Progressive path through Enhancing.
  RequestFsm prog(/*track=*/2);
  prog.Feed(RequestEvent::kAdmit, 0.0);
  prog.Feed(RequestEvent::kChunkTransferDone, 0.5);
  prog.Feed(RequestEvent::kEnhance, 0.6);
  prog.Feed(RequestEvent::kChunkTransferDone, 0.9);
  prog.Feed(RequestEvent::kDecode, 0.9);
  prog.Feed(RequestEvent::kDecodeDone, 1.4);
  prog.Feed(RequestEvent::kWriteBackCommitted, 1.4);
  EXPECT_EQ(prog.state(), RequestState::kDone);

  // Mis-sequenced workers fail loudly.
  RequestFsm bad(/*track=*/3);
  EXPECT_THROW(bad.Feed(RequestEvent::kDecodeDone, 0.0), std::logic_error);
  bad.Feed(RequestEvent::kAdmit, 0.0);
  EXPECT_THROW(bad.Feed(RequestEvent::kWriteBackCommitted, 1.0),
               std::logic_error);
  RequestFsm done(/*track=*/4);
  done.Feed(RequestEvent::kAdmit, 0.0);
  done.Feed(RequestEvent::kDecode, 0.0);
  done.Feed(RequestEvent::kDecodeDone, 0.0);
  done.Feed(RequestEvent::kWriteBackCommitted, 0.0);
  EXPECT_THROW(done.Feed(RequestEvent::kAdmit, 1.0), std::logic_error);
}

// ---------------------------------------------------------------------------
// SharedLink GPU lanes: per-event share accounting.
// ---------------------------------------------------------------------------

// Drives the link the way ClusterServer's coordinator does: resume whatever
// is ready, otherwise advance virtual time (never past `limit_s`), until
// nothing can move.
void RunLink(SharedLink& link,
             double limit_s = std::numeric_limits<double>::infinity()) {
  while (link.ResumeReady() || link.Advance(limit_s)) {
  }
}

Task<> Drain(SharedLink& link, SharedLink::FlowId flow, std::vector<double>* done) {
  const std::span<const double> drained = co_await link.DrainGpu(flow);
  done->assign(drained.begin(), drained.end());
}

// The ROADMAP scenario: a peer finishing early must raise every survivor's
// GPU share AT THAT INSTANT, not at the survivor's next admission. Two
// requests contend for 2 GPU slots; the peer frees at t=1 while the survivor
// still has 2.0 shared-seconds of work. Piecewise pricing: [0,1) at share
// 1/2 drains 0.5 s of it, the remaining 1.5 s drains at share 1 -> done at
// 2.5. A frozen admission share would have given 4.0 (stale 1/2 throughout);
// ignoring contention entirely would give 2.0.
TEST(SharedLinkGpu, PeerCompletionRaisesShareAtThatInstant) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  link.SetGpuSlots(2);
  link.AddGpuSharer(0.0);
  link.AddGpuSharer(0.0);
  const auto f1 = link.Register(0.0);
  const auto f2 = link.Register(0.0);
  // Peer finishes at t=1: its -1 lands in the ledger at 1.0, before any
  // lane segment past 1.0 is priced.
  EXPECT_DOUBLE_EQ(link.CompleteFlow(f2, 1.0), 1.0);

  // Ledger introspection before any folding: share is 1/2 while both are in
  // flight and 1 after the peer frees.
  EXPECT_DOUBLE_EQ(link.GpuShareAt(0.5), 0.5);
  EXPECT_DOUBLE_EQ(link.GpuShareAt(1.5), 1.0);

  link.PostGpuWork(f1, /*arrival_s=*/0.0, /*const_s=*/0.0, /*shared_s=*/2.0);
  std::vector<double> done;
  const Task<> t = Drain(link, f1, &done);
  // The coordinator holds time at the peer's free instant until it has
  // handed the peer's worker back; the drain is still in progress there.
  RunLink(link, 1.0);
  EXPECT_NEAR(link.now(), 1.0, 1e-12);
  EXPECT_FALSE(t.done());
  RunLink(link);
  ASSERT_TRUE(t.done());

  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 2.5, 1e-9);
  link.CompleteFlow(f1, done[0]);
  EXPECT_EQ(link.ActiveFlows(), 0u);
}

// The mirror image: an admission mid-item LOWERS the share from its instant.
// One flow drains 3.0 shared-seconds from t=0; a peer is admitted at t=1.
// [0,1) alone at share 1 -> 1.0 s done; [1,..) shared 2 ways -> remaining
// 2.0 s at share 1/2 -> done at 5.0.
TEST(SharedLinkGpu, AdmissionMidItemLowersShareFromItsInstant) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  link.SetGpuSlots(4);
  link.AddGpuSharer(0.0);
  const auto f1 = link.Register(0.0);
  link.AddGpuSharer(1.0);  // the future peer's +1

  EXPECT_DOUBLE_EQ(link.GpuShareAt(0.5), 1.0);
  EXPECT_DOUBLE_EQ(link.GpuShareAt(1.5), 0.5);

  link.PostGpuWork(f1, 0.0, 0.0, 3.0);
  std::vector<double> done;
  const Task<> t = Drain(link, f1, &done);
  RunLink(link);
  ASSERT_TRUE(t.done());

  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 5.0, 1e-9);
  link.CompleteFlow(f1, done[0]);
}

// Lane mechanics: the constant part (decode-call overhead) drains at rate 1
// regardless of contention, items start no earlier than their arrival, and
// the lane is FIFO — item i+1 starts at max(arrival, item i's completion).
TEST(SharedLinkGpu, LaneIsFifoWithUnscaledConstPart) {
  SharedLink link(BandwidthTrace::Constant(1.0));
  link.SetGpuSlots(2);
  link.AddGpuSharer(0.0);
  link.AddGpuSharer(0.0);
  const auto f1 = link.Register(0.0);
  const auto f2 = link.Register(0.0);
  // Keep the peer in flight (share 1/2) through the whole window.
  link.CompleteFlow(f2, 10.0);

  // Item A: arrives at 0.5, const 0.25 (rate 1) + shared 1.0 (rate 1/2)
  // -> runs [0.5, 0.5 + 0.25 + 2.0] = done at 2.75.
  // Item B: arrives at 1.0 but the lane is busy until 2.75; shared 0.5 at
  // share 1/2 -> done at 2.75 + 1.0 = 3.75.
  link.PostGpuWork(f1, 0.5, 0.25, 1.0);
  link.PostGpuWork(f1, 1.0, 0.0, 0.5);
  std::vector<double> done;
  const Task<> t = Drain(link, f1, &done);
  RunLink(link, 10.0);
  ASSERT_TRUE(t.done());

  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.75, 1e-9);
  EXPECT_NEAR(done[1], 3.75, 1e-9);
  link.CompleteFlow(f1, done[1]);
}

// ---------------------------------------------------------------------------
// ClusterServer event loop (shared warm fixture: Engine construction is the
// expensive part).
// ---------------------------------------------------------------------------

struct EventLoopFixture {
  RequestTraceOptions trace_opts;
  std::shared_ptr<ShardedKVStore> store;
  std::unique_ptr<Engine> engine;

  EventLoopFixture() {
    trace_opts.num_contexts = 4;
    trace_opts.min_tokens = 900;
    trace_opts.max_tokens = 1800;
    trace_opts.slo_s = 4.0;
    trace_opts.seed = 0xE7u;

    Engine::Options eopts;
    eopts.model_name = "mistral-7b";
    eopts.calib_context_tokens = 600;
    eopts.calib_num_contexts = 4;
    store = std::make_shared<ShardedKVStore>(
        ShardedKVStore::Options{.num_shards = 4, .capacity_bytes = 0});
    engine = std::make_unique<Engine>(eopts, store);
  }
};

EventLoopFixture& WarmFixture() {
  static EventLoopFixture* fx = [] {
    auto* f = new EventLoopFixture();
    ClusterServer::Options copts;
    ClusterServer server(*f->engine, f->store, BandwidthTrace::Constant(2.0),
                         copts);
    server.Prestore(f->trace_opts);  // warm cache: every request hits
    return f;
  }();
  return *fx;
}

std::vector<RequestOutcome> RunEventLoad(EventLoopFixture& fx, double rate_hz,
                                         size_t num_requests, size_t workers) {
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = num_requests;
  topts.arrival_rate_hz = rate_hz;
  ClusterServer::Options copts;
  copts.num_workers = workers;
  copts.write_back_on_miss = false;  // keep virtual-only (everything hits)
  copts.assemble_kv = false;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0),
                       copts);
  return server.Serve(PoissonTrace(topts));
}

int CurrentThreadCount() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

// The serving core's structural guarantee: serving N requests on W workers
// spawns no thread at all.
TEST(EventLoop, NoPerRequestThreads) {
  EventLoopFixture& fx = WarmFixture();
  constexpr size_t kRequests = 200;
  constexpr size_t kWorkers = 4;

  // One throwaway serve so every lazy singleton (calibration, codec thread
  // pool, metrics) exists before the baseline count is taken: the baseline
  // is then the coordinator (this thread), the codec pool and whatever the
  // runtime itself runs.
  RunEventLoad(fx, 8.0, 8, kWorkers);
  ThreadPool::Instance();

  const int baseline = CurrentThreadCount();
  ASSERT_GT(baseline, 0);

  std::atomic<bool> stop{false};
  std::atomic<int> peak{0};
  std::thread sampler([&] {
    while (!stop.load()) {
      const int n = CurrentThreadCount();
      int cur = peak.load();
      while (n > cur && !peak.compare_exchange_weak(cur, n)) {
      }
      std::this_thread::yield();
    }
  });
  const auto outcomes = RunEventLoad(fx, 64.0, kRequests, kWorkers);
  stop.store(true);
  sampler.join();

  ASSERT_EQ(outcomes.size(), kRequests);
  // Serve() runs every request on the calling thread; the only other
  // threads it may use are the codec pool's, already counted in the
  // baseline. The sampler adds one. A thread per worker, let alone per
  // request, would exceed the bound.
  EXPECT_LE(peak.load(), baseline + 1);
}

TEST(EventLoop, DeterministicAcrossRuns) {
  EventLoopFixture& fx = WarmFixture();
  const auto a =
      RunEventLoad(fx, 4.0, 24, 4);
  const auto b =
      RunEventLoad(fx, 4.0, 24, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request.id, b[i].request.id);
    // Bit-identical, not just close: virtual time is independent of OS
    // thread scheduling.
    EXPECT_DOUBLE_EQ(a[i].ttft_s, b[i].ttft_s);
    EXPECT_DOUBLE_EQ(a[i].finish_s, b[i].finish_s);
    EXPECT_DOUBLE_EQ(a[i].quality, b[i].quality);
    EXPECT_EQ(a[i].worker, b[i].worker);
  }
}

// Every file under `dir` as "relative-path:size", sorted by path.
std::string ListDir(const std::filesystem::path& dir) {
  std::vector<std::string> rows;
  for (const auto& f : std::filesystem::recursive_directory_iterator(dir)) {
    if (!f.is_regular_file()) continue;
    rows.push_back(std::filesystem::relative(f.path(), dir).string() + ":" +
                   std::to_string(f.file_size()));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) out += r + " ";
  return out;
}

std::string HexFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream hex;
  char c;
  while (in.get(c)) {
    char b[3];
    std::snprintf(b, sizeof b, "%02x", static_cast<unsigned char>(c));
    hex << b;
  }
  return hex.str();
}

// Probe for the CACHEGEN_THREADS determinism check below: serve a fixed
// trace WITH write-backs (the codec pool is what CACHEGEN_THREADS sizes) and
// print summary lines the parent compares across pool sizes — once over a
// sharded store, once over a tiered store whose hot tier is small enough
// that Serve() demotes and promotes, with the cold directory it leaves.
TEST(EventLoopProbe, PrintSummary) {
  EventLoopFixture fx;  // fresh fixture: cold cache, write-backs happen
  RequestTraceOptions topts = fx.trace_opts;
  topts.num_requests = 12;
  topts.arrival_rate_hz = 4.0;
  ClusterServer::Options copts;
  copts.num_workers = 3;
  copts.write_back_on_miss = true;
  ClusterServer server(*fx.engine, fx.store, BandwidthTrace::Constant(2.0),
                       copts);
  const auto outcomes = server.Serve(PoissonTrace(topts));
  const ClusterSummary s = Summarize(outcomes);
  double sum_ttft = 0.0, sum_finish = 0.0;
  uint64_t worker_mix = 0;
  for (const RequestOutcome& o : outcomes) {
    sum_ttft += o.ttft_s;
    sum_finish += o.finish_s;
    worker_mix = worker_mix * 31 + o.worker + (o.cache_hit ? 7 : 0);
  }
  std::printf("CG_SUMMARY %.17g %.17g %.17g %llu %zu\n", sum_ttft, sum_finish,
              s.p95_ttft_s, static_cast<unsigned long long>(worker_mix),
              outcomes.size());

  const std::filesystem::path cold =
      std::filesystem::temp_directory_path() /
      ("cachegen_event_loop_cold_" + std::to_string(::getpid()));
  std::filesystem::remove_all(cold);
  {
    TieredKVStore::Options o;
    o.hot = ShardedKVStore::Options{.num_shards = 2,
                                    .capacity_bytes = 3ull << 20};
    o.cold_root = cold;
    auto tiered = std::make_shared<TieredKVStore>(o);
    Engine engine(fx.engine->options(), tiered);
    topts.num_requests = 24;
    ClusterServer tiered_server(engine, tiered, BandwidthTrace::Constant(2.0),
                                copts);
    const auto tiered_outcomes = tiered_server.Serve(PoissonTrace(topts));
    const TieredKVStore::Stats ts = tiered->stats();
    EXPECT_GT(ts.demotions, 0u);
    EXPECT_GT(ts.promotions, 0u);
    std::printf("CG_TIERED %llu %llu %llu %.17g\n",
                static_cast<unsigned long long>(ts.demotions),
                static_cast<unsigned long long>(ts.promotions),
                static_cast<unsigned long long>(ts.cold_bytes),
                Summarize(tiered_outcomes).mean_ttft_s);
    std::printf("CG_COLD_FILES %s\n", ListDir(cold).c_str());
    std::printf("CG_COLD_MANIFEST %s\n", HexFile(cold / "MANIFEST").c_str());
  }
  std::filesystem::remove_all(cold);
  std::fflush(stdout);
}

std::string RunProbeWithThreads(const char* threads) {
  // Resolve the symlink HERE: handed to the shell verbatim, /proc/self/exe
  // would resolve to the shell's own binary at exec time.
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) return {};
  self[n] = '\0';
  const std::string cmd =
      std::string("CACHEGEN_THREADS=") + threads + " '" + self +
      "' --gtest_filter=EventLoopProbe.PrintSummary 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buf[512];
  while (fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  pclose(pipe);
  // The probe's CG_* lines, in order.
  std::istringstream lines(out);
  std::string summary;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("CG_", 0) == 0) summary += line + "\n";
  }
  return summary;
}

// Outcomes must not depend on how many codec threads the host grants: the
// write-back encode fans out across the global pool, but virtual-time
// results are pool-size independent. Re-execs this binary under two pool
// sizes and compares the probe's summary bit-for-bit.
TEST(EventLoop, DeterministicAcrossCodecPoolSizes) {
  const std::string one = RunProbeWithThreads("1");
  const std::string many = RunProbeWithThreads("8");
  ASSERT_FALSE(one.empty()) << "probe run with CACHEGEN_THREADS=1 failed";
  ASSERT_FALSE(many.empty()) << "probe run with CACHEGEN_THREADS=8 failed";
  EXPECT_EQ(one, many);
}

}  // namespace
}  // namespace cachegen

// Event-driven serving core gate (the single-threaded coordinator that
// drives every request as a coroutine over the SharedLink):
//
//   1. Scale proof: a 100k-request trace runs to completion without the
//      process gaining a thread — Serve() runs on the calling thread, and
//      the codec pool already exists. A sampler thread watches
//      /proc/self/status Threads and records the peak.
//   2. Golden outcomes: the digest of the scale run's outcomes (the fields
//      cachegen-bench hashes) equals kGoldenScaleDigest, recorded from the
//      multi-threaded serving core this one replaced. Any change to a
//      modelled timeline, admission or hit decision breaks it.
//   3. Determinism: two identical runs are bit-equal.
//
// --quick runs the three gates and exits non-zero on failure (wired into
// Release CI); the full run adds a worker-count sweep table. Either mode
// writes BENCH_event_loop.json for ci/check_bench_regression.py (metric:
// requests/s of the scale run).
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster_metrics.h"
#include "cluster/cluster_server.h"
#include "obs/json_writer.h"

using namespace cachegen;

namespace {

// Current OS thread count of this process, from /proc/self/status.
int CurrentThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

// Samples the process thread count until stopped; records the peak.
class ThreadPeakSampler {
 public:
  ThreadPeakSampler() : sampler_([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const int n = CurrentThreadCount();
      int prev = peak_.load(std::memory_order_relaxed);
      while (n > prev &&
             !peak_.compare_exchange_weak(prev, n, std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }) {}
  int Stop() {
    stop_.store(true, std::memory_order_relaxed);
    sampler_.join();
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread sampler_;
};

RequestTraceOptions TraceOpts(size_t num_requests, double rate_hz) {
  RequestTraceOptions topts;
  topts.num_requests = num_requests;
  topts.arrival_rate_hz = rate_hz;
  topts.num_contexts = 4;
  topts.min_tokens = 900;
  topts.max_tokens = 1800;
  topts.zipf_exponent = 0.9;
  topts.slo_s = 3.0;
  topts.seed = 0xBEEF;
  return topts;
}

// OutcomeDigest of the 100k-request scale run (TraceOpts(100000, 16.0),
// 4 workers), recorded from the multi-threaded serving core.
constexpr uint64_t kGoldenScaleDigest = 0xb71c0ef46ff11e2bULL;

struct RunStats {
  uint64_t digest = 0;  // OutcomeDigest: bit-exact TTFT, finish, quality, ...
  double p95_ttft_s = 0.0;
  double wall_s = 0.0;
  size_t count = 0;
};

RunStats RunLoad(Engine& engine, std::shared_ptr<ShardedKVStore> store,
                 size_t workers, const RequestTraceOptions& topts) {
  ClusterServer::Options copts;
  copts.num_workers = workers;
  copts.write_back_on_miss = false;  // warm-hit load: stays hit-only
  ClusterServer server(engine, store, BandwidthTrace::Constant(3.0), copts);
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = server.Serve(PoissonTrace(topts));
  const auto t1 = std::chrono::steady_clock::now();
  RunStats s;
  s.wall_s = std::chrono::duration<double>(t1 - t0).count();
  s.count = outcomes.size();
  const ClusterSummary sum = Summarize(outcomes);
  s.p95_ttft_s = sum.p95_ttft_s;
  s.digest = OutcomeDigest(outcomes);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_event_loop.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  bench::PrintHeader(
      "Event-driven serving core: single-threaded coordinator, coroutine requests",
      "Mistral-7B calibration, 3 Gbps shared path, warm cache, FIFO");

  auto store = std::make_shared<ShardedKVStore>(ShardedKVStore::Options{8, 0});
  Engine engine(bench::FastEngineOptions("mistral-7b"), store);

  constexpr size_t kWorkers = 4;
  const RequestTraceOptions warm = TraceOpts(8, 4.0);
  {
    ClusterServer::Options copts;
    copts.num_workers = kWorkers;
    ClusterServer warmup(engine, store, BandwidthTrace::Constant(3.0), copts);
    warmup.Prestore(warm);
    // One throwaway serve so lazily-created threads (codec pool) exist
    // before the baseline thread count is read.
    warmup.Serve(PoissonTrace(warm));
  }

  bool failed = false;

  // --- 1. scale proof: >=100k requests, no thread added -------------------
  const size_t kScaleRequests = 100000;
  const int baseline_threads = CurrentThreadCount();
  ThreadPeakSampler sampler;
  const RunStats scale =
      RunLoad(engine, store, kWorkers, TraceOpts(kScaleRequests, 16.0));
  const int peak_threads = sampler.Stop();
  // During the serve: baseline + the sampler. Serve() itself adds nothing.
  const int allowed_threads = baseline_threads + 1;
  std::printf(
      "\n-- scale: %zu requests, %zu workers --\n"
      "wall %.2f s (%.0f req/s)  p95 TTFT %.3f s\n"
      "threads: baseline %d, peak %d, allowed %d\n",
      scale.count, kWorkers, scale.wall_s, scale.count / scale.wall_s,
      scale.p95_ttft_s, baseline_threads, peak_threads, allowed_threads);
  if (scale.count != kScaleRequests) {
    std::fprintf(stderr, "FAIL: scale run served %zu of %zu requests\n",
                 scale.count, kScaleRequests);
    failed = true;
  }
  if (peak_threads > allowed_threads) {
    std::fprintf(stderr,
                 "FAIL: the process gained threads while serving (peak %d > "
                 "allowed %d); Serve() must run on the calling thread\n",
                 peak_threads, allowed_threads);
    failed = true;
  }

  // --- 2. golden outcomes of the scale run ----------------------------------
  const bool golden = scale.digest == kGoldenScaleDigest;
  std::printf("\n-- golden: outcome digest %016llx, expected %016llx: %s --\n",
              static_cast<unsigned long long>(scale.digest),
              static_cast<unsigned long long>(kGoldenScaleDigest),
              golden ? "match" : "MISMATCH");
  if (!golden) {
    std::fprintf(stderr,
                 "FAIL: the scale run's outcomes differ from the recorded "
                 "golden digest\n");
    failed = true;
  }

  // --- 3. determinism: identical runs are bit-equal ------------------------
  const size_t kCompareRequests = quick ? 800 : 2000;
  const RequestTraceOptions cmp = TraceOpts(kCompareRequests, 16.0);
  const RunStats ev = RunLoad(engine, store, kWorkers, cmp);
  const RunStats rerun = RunLoad(engine, store, kWorkers, cmp);
  const bool deterministic = rerun.digest == ev.digest;
  std::printf("\n-- determinism: %zu requests, rerun %s --\n", kCompareRequests,
              deterministic ? "bit-equal" : "DIVERGED");
  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: two identical runs diverged (outcome digest %016llx vs "
                 "%016llx)\n",
                 static_cast<unsigned long long>(ev.digest),
                 static_cast<unsigned long long>(rerun.digest));
    failed = true;
  }

  // --- full mode: worker-count sweep ---------------------------------------
  if (!quick) {
    std::printf("\n-- event-loop worker sweep (%zu requests) --\n",
                kCompareRequests);
    TablePrinter t({"workers", "p95 TTFT (s)", "wall (s)", "req/s"});
    for (const size_t w : {2u, 4u, 8u}) {
      const RunStats r = RunLoad(engine, store, w, cmp);
      t.AddRow({std::to_string(w), TablePrinter::Fmt(r.p95_ttft_s, 4),
                TablePrinter::Fmt(r.wall_s, 2),
                TablePrinter::Fmt(r.count / r.wall_s, 0)});
    }
    std::printf("%s", t.Render().c_str());
  }

  // --- artifact ------------------------------------------------------------
  {
    obs::JsonWriter w;
    w.BeginObject();
    w.Field("bench", "event_loop");
    w.BeginArray("results");
    w.BeginObject();
    w.Field("level", "scale");
    w.Field("tokens", static_cast<uint64_t>(kScaleRequests));
    w.Field("threads", static_cast<uint64_t>(kWorkers));
    w.Field("req_per_s", scale.count / scale.wall_s);
    w.Field("wall_s", scale.wall_s);
    w.Field("p95_ttft_s", scale.p95_ttft_s);
    w.Field("peak_threads", static_cast<uint64_t>(peak_threads));
    w.Field("baseline_threads", static_cast<uint64_t>(baseline_threads));
    w.Field("golden", golden ? 1.0 : 0.0);
    w.EndObject();
    w.BeginObject();
    w.Field("level", "rerun");
    w.Field("tokens", static_cast<uint64_t>(kCompareRequests));
    w.Field("threads", static_cast<uint64_t>(kWorkers));
    w.Field("req_per_s", ev.count / ev.wall_s);
    w.Field("p95_ttft_s", ev.p95_ttft_s);
    w.Field("deterministic", deterministic ? 1.0 : 0.0);
    w.EndObject();
    w.EndArray();
    w.EndObject();
    w.WriteFile(out_path);
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  if (failed) return 1;
  std::printf(quick ? "quick gate: PASS\n" : "done\n");
  return 0;
}

// cachegen-bench: end-to-end and per-layer benchmark of the cachegen serving
// simulator, driven only through the public ClusterServer / Engine /
// CacheTier API (workloads in workloads.cpp).
//
//   cachegen_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --scratch DIR
//
// A run builds SET-UPS (tier, Engine construction, calibration(), Prestore)
// and serves ROUNDS on them: each round is one Serve() of the whole trace
// generated from --seed, and must reproduce the same outcomes. Workloads
// whose Serve() leaves the tier as it found it serve several rounds per
// set-up (Workload::serves); the others build a fresh set-up per round.
//
// --trace 0: set-ups until the next one would pass --seconds (at least two).
//   Prints every end-to-end metric: the median over set-ups of the set-up
//   time, the median over rounds of CPU per request, the peak RSS of the
//   first round, and the modelled figures (identical in every round).
// --trace 1: one untraced round, then one traced round on a set-up of its
//   own (TimedTier decorator around the tier, thread-count sampler), then
//   the layer probe. Prints
//   every per-layer metric. Registry counters and the CPU split come from the
//   untraced round, tier timings from the traced round, direct-call timings
//   from the probe. Counters about writes (skipped encodes, dedup) and the
//   codec per-chunk times span the whole round, set-up included; every other
//   counter covers Serve() only.
//
// Correctness: every request served, the outcome digest identical in every
// round (traced included), the isolation counts (no encode and no write-back
// during Serve() unless the workload writes back; some decode when the
// workload assembles), and at most kThreadBudget OS threads during Serve().
// A failed check prints the result with "correct": false and exits 1.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a "digest" line, so two builds can be compared on outcomes.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "timed_tier.h"

namespace cgbench {

using namespace cachegen;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Snapshot = obs::MetricsRegistry::Snapshot;

// Coordinator + two cluster workers + one background codec-pool thread
// (CACHEGEN_THREADS=2 counts the calling thread).
constexpr int kThreadBudget = 4;
constexpr const char* kCodecThreads = "2";

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int ThreadCount() {
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

// Samples the process thread count every millisecond until stopped. The peak
// excludes the sampler itself, and its own CPU time is reported so the traced
// round can subtract it.
class ThreadSampler {
 public:
  ThreadSampler() : thread_([this] { Loop(); }) {}
  ~ThreadSampler() { Stop(); }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  int peak() const { return peak_.load() - 1; }
  // Valid after Stop().
  const CpuTimes& cpu() const { return cpu_; }

 private:
  void Loop() {
    while (!stop_.load()) {
      peak_.store(std::max(peak_.load(), ThreadCount()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    cpu_ = {Seconds(ru.ru_utime), Seconds(ru.ru_stime)};
  }

  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  CpuTimes cpu_;  // written by the sampler thread before it ends
  std::thread thread_;  // last: started after the members it uses
};

uint64_t CounterDelta(const Snapshot& a, const Snapshot& b, const char* name) {
  const auto get = [name](const Snapshot& s) -> uint64_t {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(b) - get(a);
}

// Mean of the histogram samples recorded between two snapshots.
double HistMeanDelta(const Snapshot& a, const Snapshot& b, const char* name) {
  const auto get = [name](const Snapshot& s) {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? obs::HistogramSnapshot{} : it->second;
  };
  const obs::HistogramSnapshot ha = get(a), hb = get(b);
  const uint64_t n = hb.count - ha.count;
  return n ? static_cast<double>(hb.sum - ha.sum) / static_cast<double>(n) : 0.0;
}

// FNV-1a over every request's modelled outcome, bit-exact on doubles.
uint64_t OutcomeDigest(const std::vector<RequestOutcome>& outcomes) {
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
    const unsigned char flags[] = {o.cache_hit,   o.cold_hit,     o.remote_hit,
                                   o.prefix_hit,  o.forced_text,  o.slo_violated,
                                   o.write_back_done, o.write_back_failed};
    mix(flags, sizeof(flags));
    mix(&o.covered_tokens, sizeof(o.covered_tokens));
  }
  return h;
}

// One set-up: the tier (decorated in traced runs), the Engine on it and the
// server, with the workload's contexts prestored. Members are destroyed in
// reverse order: server, Engine, then the tier they both use.
struct Setup {
  Setup(const Workload& w, const fs::path& dir, bool traced) {
    at_start = obs::MetricsRegistry::Instance().SnapshotAll();
    const auto t0 = Clock::now();
    tier = w.make_tier(dir);
    if (traced) tier = timed = std::make_shared<TimedTier>(tier);
    // The Engine reads and writes through the tier's KVStore face.
    engine = std::make_unique<Engine>(w.engine,
                                      std::shared_ptr<KVStore>(tier, &tier->kv()));
    engine->calibration();
    server = std::make_unique<ClusterServer>(
        *engine, tier, BandwidthTrace::Constant(kLinkGbps), w.cluster);
    server->Prestore(w.prestore);
    seconds = Since(t0);
  }

  std::shared_ptr<CacheTier> tier;
  std::shared_ptr<TimedTier> timed;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ClusterServer> server;
  double seconds = 0.0;
  Snapshot at_start;  // registry before the set-up began
};

// One Serve() of the whole trace on a set-up.
struct Round {
  double serve_s = 0.0;
  CpuTimes cpu;  // during Serve(), sampler excluded
  std::vector<RequestOutcome> outcomes;  // kept for the first round only
  size_t requests = 0;
  uint64_t digest = 0;
  size_t served = 0;
  size_t failed = 0;   // not served + write-back failures
  size_t slo_met = 0;  // served without failure within the SLO
  Snapshot at_setup, before_serve, after_serve;
  // Traced rounds only.
  std::optional<TimedTier::Stats> tier;
  int peak_threads = 0;

  double cpu_ms_per_req() const { return cpu.total() * 1e3 / requests; }
  uint64_t ServeDelta(const char* name) const {
    return CounterDelta(before_serve, after_serve, name);
  }
  // Since the start of the set-up this round served on.
  uint64_t RoundDelta(const char* name) const {
    return CounterDelta(at_setup, after_serve, name);
  }
};

Round ServeOnce(const Workload& w, Setup& setup) {
  auto& registry = obs::MetricsRegistry::Instance();
  Round r;
  r.at_setup = setup.at_start;
  std::vector<ClusterRequest> trace = w.trace;
  if (setup.timed) setup.timed->ResetStats();
  r.before_serve = registry.SnapshotAll();
  std::optional<ThreadSampler> sampler;
  if (setup.timed) sampler.emplace();
  const CpuTimes c0 = ProcessCpu();
  const auto s0 = Clock::now();
  r.outcomes = setup.server->Serve(std::move(trace));
  r.serve_s = Since(s0);
  const CpuTimes c1 = ProcessCpu();
  r.cpu = {c1.user_s - c0.user_s, c1.sys_s - c0.sys_s};
  if (sampler) {
    sampler->Stop();
    r.peak_threads = sampler->peak();
    r.cpu.user_s -= sampler->cpu().user_s;
    r.cpu.sys_s -= sampler->cpu().sys_s;
  }
  r.after_serve = registry.SnapshotAll();
  if (setup.timed) r.tier = setup.timed->stats();

  for (size_t i = 0; i < r.outcomes.size(); ++i) {
    const RequestOutcome& o = r.outcomes[i];
    const bool ok = i < w.trace.size() && o.request.id == w.trace[i].id &&
                    std::isfinite(o.ttft_s) && o.ttft_s > 0.0 &&
                    o.finish_s >= w.trace[i].arrival_s;
    if (ok) ++r.served;
    if (o.write_back_failed) ++r.failed;
    if (ok && !o.write_back_failed && !o.slo_violated) ++r.slo_met;
  }
  r.failed += w.trace.size() - r.served;
  r.requests = r.outcomes.size();
  r.digest = OutcomeDigest(r.outcomes);
  return r;
}

// Failed checks, one line each (empty = correct).
std::vector<std::string> CheckRound(const Workload& w, const Round& r,
                                    const Round& first) {
  std::vector<std::string> errors;
  const auto fail = [&errors](std::string msg) { errors.push_back(std::move(msg)); };
  if (r.served != w.trace.size()) {
    fail("served " + std::to_string(r.served) + " of " +
         std::to_string(w.trace.size()) + " requests");
  }
  if (r.failed != 0) fail(std::to_string(r.failed) + " requests failed");
  if (r.digest != first.digest) fail("outcome digest differs between rounds");
  if (!w.writes_back) {
    if (const uint64_t n = r.ServeDelta("codec.chunks_encoded")) {
      fail(std::to_string(n) + " chunks encoded during Serve()");
    }
    if (const uint64_t n = r.ServeDelta("cluster.write_backs")) {
      fail(std::to_string(n) + " write-backs during Serve()");
    }
  } else if (r.ServeDelta("cluster.write_backs") == 0) {
    fail("no write-back during Serve()");
  }
  if (w.decodes_in_serve && r.ServeDelta("codec.chunks_decoded") == 0) {
    fail("no chunk decoded during Serve()");
  }
  if (r.tier && r.peak_threads > kThreadBudget) {
    fail("peak " + std::to_string(r.peak_threads) + " OS threads during Serve(), budget " +
         std::to_string(kThreadBudget));
  }
  return errors;
}

// Request count, SLO misses and TTFT quartiles per serving scenario, to
// stderr: where the modelled TTFT quantiles fall.
void PrintScenarios(const std::vector<RequestOutcome>& outcomes) {
  struct Scenario {
    std::vector<double> ttft;
    size_t slo_misses = 0;
  };
  std::map<std::string, Scenario> scenarios;
  for (const RequestOutcome& o : outcomes) {
    const char* kind = o.forced_text  ? "miss"
                       : o.prefix_hit ? "prefix"
                       : o.cold_hit   ? "cold"
                                      : "hot";
    Scenario& s = scenarios[std::string(kind) + (o.remote_hit ? "-remote" : "")];
    s.ttft.push_back(o.ttft_s);
    if (o.slo_violated) ++s.slo_misses;
  }
  for (const auto& [kind, s] : scenarios) {
    std::fprintf(stderr,
                 "  %-14s %6zu requests, %6zu miss the SLO, ttft q1 %.4f med %.4f "
                 "q3 %.4f s\n",
                 kind.c_str(), s.ttft.size(), s.slo_misses, Percentile(s.ttft, 0.25),
                 Percentile(s.ttft, 0.5), Percentile(s.ttft, 0.75));
  }
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 0.5); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> EndToEnd(const std::vector<double>& setup_s,
                             const std::vector<Round>& rounds, double peak_rss_mb) {
  std::vector<double> cpu;
  for (const Round& r : rounds) cpu.push_back(r.cpu_ms_per_req());
  const Round& r = rounds.front();
  std::vector<double> ttft;
  for (const RequestOutcome& o : r.outcomes) ttft.push_back(o.ttft_s);
  const double n = static_cast<double>(r.requests);
  return {
      {"setup_s", Median(setup_s), "s"},
      {"cpu_ms_per_req", Median(cpu), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"ttft_p50_s", Percentile(ttft, 0.5), "s"},
      {"ttft_p90_s", Percentile(ttft, 0.9), "s"},
      // A failed request counts as missing its SLO.
      {"slo_met_share", static_cast<double>(r.slo_met) / n, "share"},
      {"mean_quality", Summarize(r.outcomes).mean_quality, "factor"},
  };
}

std::vector<Metric> PerLayer(const Round& u, const Round& t, const ProbeResult& p) {
  const double n = static_cast<double>(u.requests);
  std::vector<double> queue_ms;
  for (const RequestOutcome& o : u.outcomes) queue_ms.push_back(o.queue_delay_s * 1e3);
  const auto d = [&u](const char* name) { return static_cast<double>(u.ServeDelta(name)); };
  const TimedTier::Stats& tier = *t.tier;
  const auto us_p50 = [](const obs::HistogramSnapshot& ns) { return ns.Quantile(0.5) / 1e3; };
  const double chunk_reads = d("fabric.chunk_reads");
  return {
      // Wall-clock rate of the simulation. Not an end-to-end metric: Serve()
      // hands off between threads at every virtual-time step, so its wall
      // time follows how soon the host schedules them, and moved by a third
      // between runs on a shared 4-vCPU host while CPU per request moved 5%.
      {"cluster.sim_req_per_s", n / u.serve_s, "req/s"},
      {"cluster.sys_cpu_share", u.cpu.sys_s / u.cpu.total(), "share"},
      {"cluster.queue_delay_p50_ms", Percentile(queue_ms, 0.5), "ms"},
      {"cluster.peak_threads", static_cast<double>(t.peak_threads), "count"},
      {"net.grants_per_req", d("net.grants") / n, "count"},
      {"net.grants_per_cpu_s", d("net.grants") / u.cpu.total(), "1/s"},
      // One total: the KV/text split is not recoverable from the registry,
      // because the streamer's CG_METRIC_COUNT call site picks its counter
      // name at run time and the macro caches the first name it sees.
      {"streamer.chunks", d("streamer.chunks_kv") + d("streamer.chunks_text"), "count"},
      {"streamer.stream_us", p.stream_us, "us"},
      {"serving.engine_ctor_s", p.engine_ctor_s, "s"},
      {"serving.calibration_s", p.calibration_s, "s"},
      {"serving.store_kv_ms", p.store_kv_ms, "ms"},
      {"serving.assemble_kv_ms", p.assemble_kv_ms, "ms"},
      {"serving.plan_us", p.plan_us, "us"},
      {"serving.enh_estimate_share", p.enh_estimate_share, "share"},
      {"llm.prefill_ms_per_ktok", p.prefill_ms_per_ktok, "ms"},
      {"codec.chunks_encoded", d("codec.chunks_encoded"), "count"},
      {"codec.encode_ms_per_chunk",
       HistMeanDelta(u.at_setup, u.after_serve, "codec.encode_us") / 1e3, "ms"},
      {"codec.chunks_decoded", d("codec.chunks_decoded"), "count"},
      {"codec.decode_ms_per_chunk",
       HistMeanDelta(u.at_setup, u.after_serve, "codec.decode_us") / 1e3, "ms"},
      {"codec.enh_estimate_ms_per_chunk", p.enh_estimate_ms_per_chunk, "ms"},
      {"engine.encode.skipped_chunks",
       static_cast<double>(u.RoundDelta("engine.encode.skipped_chunks")), "count"},
      {"storage.lookup_us_p50", us_p50(tier.lookup), "us"},
      {"storage.get_calls", static_cast<double>(tier.get.count), "count"},
      {"storage.get_us_p50", us_p50(tier.get), "us"},
      {"storage.get_bytes", static_cast<double>(tier.get_bytes), "bytes"},
      {"storage.put_batch_ms", tier.put_batch.Mean() / 1e6, "ms"},
      {"storage.put_bytes", static_cast<double>(tier.put_bytes), "bytes"},
      {"storage.coverage_us_p50", us_p50(tier.coverage), "us"},
      {"storage.pin_us_p50", us_p50(tier.pin), "us"},
      {"storage.touch_us_p50", us_p50(tier.touch), "us"},
      {"storage.demotions", d("storage.demotions"), "count"},
      {"storage.promotions", d("storage.promotions"), "count"},
      {"prefix.full_hits", d("prefix.full_hits"), "count"},
      {"prefix.partial_hits", d("prefix.partial_hits"), "count"},
      {"prefix.deduped_chunks",
       static_cast<double>(u.RoundDelta("prefix.deduped_chunks")), "count"},
      {"fabric.chunk_reads", chunk_reads, "count"},
      {"fabric.remote_chunk_share",
       chunk_reads > 0 ? d("fabric.chunk_reads.remote") / chunk_reads : 0.0, "share"},
      {"pool.jobs", d("pool.jobs"), "count"},
      {"pool.submitted", d("pool.submitted"), "count"},
      {"obs.trace_overhead", t.cpu_ms_per_req() / u.cpu_ms_per_req() - 1.0, "share"},
  };
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path scratch;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::stoull(v);
    else if (key == "--seconds") a.seconds = std::stod(v);
    else if (key == "--trace") a.trace = std::stoi(v) != 0;
    else if (key == "--scratch") a.scratch = v;
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  if (a.workload.empty() || a.scratch.empty()) {
    throw std::invalid_argument("--workload and --scratch are required");
  }
  return a;
}

int Main(int argc, char** argv) {
  // Before the codec pool first starts: it sizes itself from this variable.
  setenv("CACHEGEN_THREADS", kCodecThreads, 1);
  const Args args = ParseArgs(argc, argv);
  const Workload w = MakeWorkload(args.workload, args.seed);

  std::vector<double> setup_s;
  std::vector<Round> rounds;
  std::vector<std::string> errors;
  double peak_rss_mb = 0.0;
  // Builds a set-up in its own directory and serves the trace `serves` times
  // on it; the directory goes once the set-up is destroyed.
  const auto run = [&](bool traced, size_t serves) {
    const fs::path dir = args.scratch / ("setup-" + std::to_string(setup_s.size()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      Setup setup(w, dir, traced);
      setup_s.push_back(setup.seconds);
      for (size_t k = 0; k < serves; ++k) {
        rounds.push_back(ServeOnce(w, setup));
        const Round& r = rounds.back();
        std::fprintf(stderr,
                     "%s set-up %zu%s %.3f s, serve %zu: %.3f s, %.4f cpu-ms/req, "
                     "digest %016llx\n",
                     w.name.c_str(), setup_s.size(), traced ? " (traced)" : "",
                     setup.seconds, k + 1, r.serve_s, r.cpu_ms_per_req(),
                     static_cast<unsigned long long>(r.digest));
        if (rounds.size() == 1) {
          PrintScenarios(r.outcomes);
          // The high-water mark of one set-up and one Serve(); later rounds
          // would add the memory of this benchmark's own bookkeeping.
          peak_rss_mb = PeakRssMb();
        }
        for (std::string& e : CheckRound(w, r, rounds.front())) {
          errors.push_back(w.name + " round " + std::to_string(rounds.size()) + ": " + e);
        }
        if (rounds.size() > 1) rounds.back().outcomes = {};
      }
    }
    fs::remove_all(dir);
  };

  std::vector<Metric> metrics;
  const auto t0 = Clock::now();
  if (args.trace) {
    run(false, 1);
    run(true, 1);
    const ProbeResult probe = RunProbe(w, w.trace.front().spec);
    metrics = PerLayer(rounds[0], rounds[1], probe);
  } else {
    do {
      run(false, w.serves);
    } while (setup_s.size() < 2 ||
             Since(t0) * (setup_s.size() + 1) / setup_s.size() <= args.seconds);
    metrics = EndToEnd(setup_s, rounds, peak_rss_mb);
  }

  size_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    attempted += w.trace.size();
    failed += r.failed;
  }
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      errors.push_back("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::printf("digest %016llx rounds %zu workload %s seed %llu\n",
              static_cast<unsigned long long>(rounds.front().digest), rounds.size(),
              w.name.c_str(), static_cast<unsigned long long>(args.seed));
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              errors.empty() ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  return errors.empty() ? 0 : 1;
}

}  // namespace cgbench

int main(int argc, char** argv) {
  try {
    return cgbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cachegen_bench: %s\n", e.what());
    return 2;
  }
}

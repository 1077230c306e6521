// Shared declarations of the cachegen-bench driver: the workload description
// (workloads.cpp), the layer probe (probe.cpp) and the measurement helpers
// main.cpp uses around them.
#pragma once

#include <sys/time.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_server.h"
#include "serving/engine.h"
#include "storage/cache_tier.h"

namespace cgbench {

// Capacity of the shared network path every workload serves over.
inline constexpr double kLinkGbps = 3.0;

// One named traffic mix, fully generated from the run's --seed. The library
// only ever sees `trace` and `prestore`; everything else configures it.
struct Workload {
  std::string name;
  cachegen::Engine::Options engine;
  cachegen::ClusterServer::Options cluster;
  std::vector<cachegen::ClusterRequest> trace;
  // Contexts stored before Serve() (part of set-up).
  std::vector<std::pair<std::string, cachegen::ContextSpec>> prestore;
  // Builds a fresh tier for one set-up; `dir` is an empty directory the
  // set-up owns (and removes once the tier is gone).
  std::function<std::shared_ptr<cachegen::CacheTier>(
      const std::filesystem::path& dir)>
      make_tier;
  // Rounds served per set-up. Above 1 only where Serve() leaves the tier as
  // it found it (no write-back, no capacity eviction); the digest check
  // proves every round still sees the same state.
  size_t serves = 1;
  // Isolation expectations checked on every round's registry deltas.
  bool writes_back = false;    // else: no encode and no write-back in Serve()
  bool decodes_in_serve = false;  // AssembleKV must decode some chunk
};

// The workload called `name` for `seed`; throws std::invalid_argument for an
// unknown name.
Workload MakeWorkload(const std::string& name, uint64_t seed);

// Direct timings of single layer calls on one context (traced runs only).
struct ProbeResult {
  double engine_ctor_s = 0.0;
  double calibration_s = 0.0;
  double prefill_ms_per_ktok = 0.0;
  double enh_estimate_ms_per_chunk = 0.0;  // per call (one chunk, one level)
  double enh_estimate_share = 0.0;         // of StoreKV process CPU
  double store_kv_ms = 0.0;
  double assemble_kv_ms = 0.0;
  double plan_us = 0.0;
  double stream_us = 0.0;
};

ProbeResult RunProbe(const Workload& w, const cachegen::ContextSpec& spec);

// Process CPU time (all threads), seconds.
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double total() const { return user_s + sys_s; }
};
CpuTimes ProcessCpu();
double Seconds(const timeval& tv);

}  // namespace cgbench

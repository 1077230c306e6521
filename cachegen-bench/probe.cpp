// Layer probe: times direct calls into each layer's public functions on one
// of the workload's own contexts, on a private Engine over a MemoryKVStore so
// nothing it stores reaches the workload's tier (and no dedup hides work).
#include <sys/resource.h>

#include <chrono>
#include <vector>

#include "bench.h"
#include "codec/encoding_level.h"
#include "common/stats.h"
#include "net/link.h"
#include "streamer/chunking.h"
#include "streamer/streamer.h"

namespace cgbench {

using namespace cachegen;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Wall microseconds per call of fn: the median over 7 batches of 1000 calls
// (one call is too short for the clock).
template <typename Fn>
double MedianUs(Fn&& fn) {
  constexpr size_t kBatch = 1000;
  std::vector<double> us;
  for (int b = 0; b < 7; ++b) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < kBatch; ++i) fn();
    us.push_back(Since(t0) * 1e6 / kBatch);
  }
  return Percentile(std::move(us), 0.5);
}

}  // namespace

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

CpuTimes ProcessCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {Seconds(ru.ru_utime), Seconds(ru.ru_stime)};
}

ProbeResult RunProbe(const Workload& w, const ContextSpec& spec) {
  ProbeResult r;
  auto t0 = Clock::now();
  Engine engine(w.engine);
  r.engine_ctor_s = Since(t0);
  t0 = Clock::now();
  engine.calibration();
  r.calibration_s = Since(t0);

  t0 = Clock::now();
  const KVCache kv = engine.CalculateKV(spec);
  r.prefill_ms_per_ktok =
      Since(t0) * 1e3 / (static_cast<double>(spec.num_tokens) / 1e3);

  // Every chunk at every level, as StoreKV does it: encode (recorded in the
  // registry's codec.encode_us), the enhancement estimate (timed here), and a
  // decode of the result (codec.decode_us).
  const auto ranges = SplitIntoChunks(spec.num_tokens, w.engine.chunk_tokens);
  const auto& levels = DefaultEncodingLevels();
  double est_wall_s = 0.0;
  double est_cpu_s = 0.0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    const KVCache chunk = kv.SliceTokens(ranges[i].begin, ranges[i].end);
    for (const EncodingLevel& lv : levels) {
      const EncodedChunk enc = engine.EncoderFor(lv.id).EncodeChunk(
          chunk, static_cast<uint32_t>(i), ranges[i].begin);
      const CpuTimes c0 = ProcessCpu();
      t0 = Clock::now();
      (void)engine.LayeredFor(lv.id).EstimateEnhancementBytes(chunk, enc);
      est_wall_s += Since(t0);
      est_cpu_s += ProcessCpu().total() - c0.total();
      (void)engine.DecoderFor(lv.id).DecodeChunk(enc);
    }
  }
  r.enh_estimate_ms_per_chunk =
      est_wall_s * 1e3 / static_cast<double>(ranges.size() * levels.size());

  const CpuTimes c0 = ProcessCpu();
  t0 = Clock::now();
  engine.StoreKV("probe", spec);
  r.store_kv_ms = Since(t0) * 1e3;
  const double store_cpu_s = ProcessCpu().total() - c0.total();
  r.enh_estimate_share = store_cpu_s > 0.0 ? est_cpu_s / store_cpu_s : 0.0;

  t0 = Clock::now();
  (void)engine.AssembleKV("probe", spec,
                          std::vector<int>(ranges.size(), DefaultLevel().id));
  r.assemble_kv_ms = Since(t0) * 1e3;

  ContextPlan plan;
  r.plan_us = MedianUs([&] { plan = engine.PlanFromCalibration(spec.num_tokens); });

  const KVStreamer streamer(engine.cost(), engine.model(), w.cluster.default_slo_s,
                            levels.size());
  r.stream_us = MedianUs([&] {
    Link link(BandwidthTrace::Constant(kLinkGbps));
    (void)streamer.Stream(plan, link);
  });
  return r;
}

}  // namespace cgbench

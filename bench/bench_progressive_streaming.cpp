// Progressive (§9) KV delivery vs non-layered adaptive streaming, swept over
// bandwidth-drop traces and KV-load SLOs. Both modes stream the same
// calibrated context plan over the same trace at the same deadline; the
// progressive base pass reproduces the adaptive timeline exactly, then the
// enhancement pass spends whatever slack the trace left on quality upgrades
// (aborting mid-transfer when the link collapses).
//
// Emits machine-readable JSON (default BENCH_progressive_streaming.json) so
// CI can archive the quality/SLO trajectory.
//
// Flags:
//   --quick       small sweep + loud assertions (CI gate): progressive must
//                 never miss an SLO that adaptive met, never deliver lower
//                 quality, and win quality strictly in aggregate.
//   --out PATH    JSON output path.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "codec/encoding_level.h"
#include "obs/json_writer.h"
#include "net/bandwidth_trace.h"
#include "net/link.h"
#include "streamer/streamer.h"
#include "workload/qoe.h"

namespace cachegen {
namespace {

struct Scenario {
  std::string name;
  BandwidthTrace trace;
  double slo_s = 1.5;
};

struct Row {
  std::string name;
  double slo_s = 0.0;
  bool adaptive_met = false, progressive_met = false;
  double adaptive_quality = 0.0, progressive_quality = 0.0;
  double base_quality = 0.0;
  double enhanced_fraction = 0.0;
  size_t enhancements_sent = 0, enhancements_aborted = 0;
  double adaptive_gbytes = 0.0, progressive_gbytes = 0.0;
  double adaptive_qoe = 0.0, progressive_qoe = 0.0;
};

}  // namespace
}  // namespace cachegen

int main(int argc, char** argv) {
  using namespace cachegen;

  bool quick = false;
  std::string out_path = "BENCH_progressive_streaming.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  bench::PrintHeader(
      "Progressive (layered base+enhancement) vs non-layered adaptive streaming",
      quick ? "quick sweep (CI gate)" : "full sweep");

  Engine engine(bench::FastEngineOptions("mistral-7b"));
  const size_t context_tokens = 9000;
  const ContextPlan plan = engine.PlanFromCalibration(context_tokens);
  const double gpu_share = 0.5;  // a busy GPU: text recompute rarely rescues
  const QoEModel qoe;

  std::vector<Scenario> scenarios;
  // Fig. 7-style drop-and-recover traces at several dip depths: the dip
  // forces coarse bases, the recovery is where the enhancement pass shines.
  for (const double dip : quick ? std::vector<double>{0.2, 0.6}
                                : std::vector<double>{0.1, 0.2, 0.4, 0.6, 0.8}) {
    scenarios.push_back({"dip-" + TablePrinter::Fmt(dip, 1) + "gbps",
                         BandwidthTrace::FromSegments(
                             {{0.0, 2.0}, {0.15, dip}, {0.8, 2.0}}),
                         1.5});
  }
  // A cliff with no recovery (graceful base-only degradation)...
  scenarios.push_back(
      {"cliff-0.3gbps",
       BandwidthTrace::FromSegments({{0.0, 2.0}, {0.15, 0.3}}), 1.5});
  // ...and a stable fat pipe (slack everywhere: upgrades all round).
  scenarios.push_back({"stable-5gbps", BandwidthTrace::Constant(5.0), 1.0});
  if (!quick) {
    for (uint64_t seed : {7u, 8u, 9u}) {
      scenarios.push_back({"random-" + std::to_string(seed),
                           BandwidthTrace::Random(seed, 0.2, 4.0, 0.3, 60.0),
                           1.5});
    }
  }

  std::vector<Row> rows;
  for (const Scenario& sc : scenarios) {
    const KVStreamer s(engine.cost(), engine.model(), sc.slo_s,
                       DefaultEncodingLevels().size());
    Link la(sc.trace);
    const StreamResult adaptive = s.Stream(plan, la, gpu_share).Get();
    Link lp(sc.trace);
    const StreamResult progressive =
        s.Stream(plan, lp, gpu_share, std::nullopt, StreamMode::kProgressive).Get();

    Row r;
    r.name = sc.name;
    r.slo_s = sc.slo_s;
    r.adaptive_met = !adaptive.slo_violated;
    r.progressive_met = !progressive.slo_violated;
    r.adaptive_quality = adaptive.quality;
    r.progressive_quality = progressive.quality;
    r.base_quality = progressive.base_quality;
    r.enhanced_fraction = progressive.enhanced_token_fraction;
    r.enhancements_sent = progressive.enhancements_sent;
    r.enhancements_aborted = progressive.enhancements_aborted;
    r.adaptive_gbytes = adaptive.bytes_sent / 1e9;
    r.progressive_gbytes = progressive.bytes_sent / 1e9;
    r.adaptive_qoe = qoe.Mos(adaptive.ttft_s, adaptive.quality);
    r.progressive_qoe = qoe.MosWithRefinement(
        progressive.ttft_s, progressive.base_quality, progressive.quality,
        progressive.stream_finish_s - progressive.load_finish_s);
    rows.push_back(r);
  }

  // ---- human-readable summary -------------------------------------------
  TablePrinter table({"trace", "SLO", "met A/P", "qual A", "qual P", "base",
                      "enh frac", "sent/abort", "GB A", "GB P"});
  for (const Row& r : rows) {
    table.AddRow({r.name, TablePrinter::Fmt(r.slo_s, 1),
                  std::string(r.adaptive_met ? "y" : "n") + "/" +
                      (r.progressive_met ? "y" : "n"),
                  TablePrinter::Fmt(r.adaptive_quality, 4),
                  TablePrinter::Fmt(r.progressive_quality, 4),
                  TablePrinter::Fmt(r.base_quality, 4),
                  TablePrinter::Fmt(r.enhanced_fraction, 2),
                  std::to_string(r.enhancements_sent) + "/" +
                      std::to_string(r.enhancements_aborted),
                  TablePrinter::Fmt(r.adaptive_gbytes, 2),
                  TablePrinter::Fmt(r.progressive_gbytes, 2)});
  }
  std::printf("%s", table.Render().c_str());

  // ---- machine-readable JSON --------------------------------------------
  {
    cachegen::obs::JsonWriter w;
    w.BeginObject();
    w.Field("bench", "progressive_streaming");
    w.Field("quick", quick);
    w.Field("context_tokens", static_cast<uint64_t>(context_tokens));
    w.Field("gpu_share", gpu_share, 2);
    w.BeginArray("results");
    for (const Row& r : rows) {
      w.BeginObject();
      w.Field("trace", r.name);
      w.Field("slo_s", r.slo_s, 2);
      w.Field("adaptive_met_slo", r.adaptive_met);
      w.Field("progressive_met_slo", r.progressive_met);
      w.Field("adaptive_quality", r.adaptive_quality, 5);
      w.Field("progressive_quality", r.progressive_quality, 5);
      w.Field("base_quality", r.base_quality, 5);
      w.Field("enhanced_fraction", r.enhanced_fraction, 4);
      w.Field("enhancements_sent", static_cast<uint64_t>(r.enhancements_sent));
      w.Field("enhancements_aborted",
              static_cast<uint64_t>(r.enhancements_aborted));
      w.Field("adaptive_gbytes", r.adaptive_gbytes, 4);
      w.Field("progressive_gbytes", r.progressive_gbytes, 4);
      w.Field("adaptive_qoe", r.adaptive_qoe, 3);
      w.Field("progressive_qoe", r.progressive_qoe, 3);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    if (w.WriteFile(out_path)) {
      std::printf("wrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not open %s for writing\n",
                   out_path.c_str());
    }
  }

  // ---- regression gate (quick mode) -------------------------------------
  if (quick) {
    bool ok = true;
    double quality_gain_sum = 0.0;
    for (const Row& r : rows) {
      if (r.adaptive_met && !r.progressive_met) {
        std::fprintf(stderr, "FAIL: %s: progressive missed an SLO adaptive met\n",
                     r.name.c_str());
        ok = false;
      }
      if (r.progressive_quality < r.adaptive_quality - 1e-12) {
        std::fprintf(stderr,
                     "FAIL: %s: progressive quality %.5f < adaptive %.5f\n",
                     r.name.c_str(), r.progressive_quality, r.adaptive_quality);
        ok = false;
      }
      quality_gain_sum += r.progressive_quality - r.adaptive_quality;
    }
    if (quality_gain_sum <= 0.0) {
      std::fprintf(stderr,
                   "FAIL: progressive quality not strictly higher in aggregate "
                   "(sum gain %.6f)\n",
                   quality_gain_sum);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("quick gate: OK (aggregate quality gain %.5f)\n",
                quality_gain_sum);
  }
  return 0;
}

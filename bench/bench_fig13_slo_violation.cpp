// Figure 13: SLO violation rate vs delivered quality under random bandwidth
// traces (0.1-10 Gbps, re-sampled per chunk interval), for SLOs of 0.5 s and
// 1 s: quantization baseline, CacheGen without adaptation, CacheGen.
#include "bench_common.h"
#include "net/link.h"
#include "streamer/streamer.h"
#include "workload/datasets.h"

using namespace cachegen;

int main() {
  bench::PrintHeader("Figure 13: SLO violation rate vs quality",
                     "Mistral-7B, LongChat lengths, 20 random 0.1-10 Gbps traces");
  Engine engine(bench::FastEngineOptions("mistral-7b"));
  const Dataset dataset(DatasetKind::kLongChat);
  const auto contexts = dataset.Sample(5);
  const size_t kLevels = DefaultEncodingLevels().size();

  for (double slo : {0.5, 1.0}) {
    int quant_viol = 0, noadapt_viol = 0, adapt_viol = 0, runs = 0;
    double adapt_quality = 0.0;
    for (uint64_t trace_seed = 1; trace_seed <= 20; ++trace_seed) {
      for (const ContextSpec& ctx : contexts) {
        const auto trace =
            BandwidthTrace::Random(trace_seed * 131 + ctx.seed, 0.1, 10.0, 0.25, 60.0);
        const ContextPlan plan = bench::PlanFromCalibration(engine, ctx.num_tokens);

        // Quantization baseline: fixed 8-bit tensor transfer.
        const double quant_bytes =
            engine.calibration().quant_bytes_per_token.at(8) *
            static_cast<double>(ctx.num_tokens);
        quant_viol += trace.TransferSeconds(quant_bytes, 0.0) > slo ? 1 : 0;

        // CacheGen without adaptation: default level, no fallback.
        double t = 0.0;
        for (const auto& chunk : plan.chunks) {
          t += trace.TransferSeconds(chunk.bytes_per_level[1], t);
        }
        noadapt_viol += t > slo ? 1 : 0;

        // CacheGen with adaptation.
        Link link(trace);
        const KVStreamer streamer(engine.cost(), engine.model(), slo, kLevels);
        const StreamResult r = streamer.Stream(plan, link).Get();
        adapt_viol += r.slo_violated ? 1 : 0;
        adapt_quality += r.quality;
        ++runs;
      }
    }
    std::printf("\n-- SLO = %.1f s --\n", slo);
    TablePrinter table({"Scheme", "Violation rate (%)", "Accuracy"});
    table.AddRow({"Quantization (8-bit)",
                  TablePrinter::Fmt(100.0 * quant_viol / runs, 1), "1.00"});
    table.AddRow({"CacheGen w/o adaptation",
                  TablePrinter::Fmt(100.0 * noadapt_viol / runs, 1),
                  TablePrinter::Fmt(engine.calibration().quality_per_level[1], 2)});
    table.AddRow({"CacheGen", TablePrinter::Fmt(100.0 * adapt_viol / runs, 1),
                  TablePrinter::Fmt(adapt_quality / runs, 2)});
    std::printf("%s", table.Render().c_str());
  }
  std::printf(
      "\nshape check: adaptation collapses the violation rate (paper: 81%% -> 8%%\n"
      "at SLO=1 s) at a small quality cost (paper Fig. 13).\n");
  return 0;
}

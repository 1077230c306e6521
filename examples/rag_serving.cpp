// RAG document serving: the paper's motivating deployment (§2.2, §8).
//
// A knowledge base of long documents lives on a storage server. Each
// document's KV cache is encoded once (store_kv). When user queries arrive,
// the retrieved document's bitstream is streamed to the inference server and
// decoded — instead of re-prefilling thousands of tokens per query.
//
// The example serves several queries against a small document corpus over a
// 3 Gbps link and reports the per-query TTFT against re-prefilling the text,
// plus the aggregate GPU compute saved.
#include <cstdio>
#include <map>

#include "net/link.h"
#include "serving/engine.h"
#include "streamer/streamer.h"

using namespace cachegen;

int main() {
  Engine engine;  // defaults to the mistral-7b preset
  std::printf("== RAG document serving over CacheGen ==\n");

  // The document corpus: financial reports, case law, a wiki article.
  const std::map<std::string, ContextSpec> corpus = {
      {"earnings-report-q4", {2001, 11000}},
      {"case-law-2023-0417", {2002, 7500}},
      {"wiki-transformers", {2003, 4200}},
  };
  for (const auto& [doc_id, ctx] : corpus) {
    const ContextPlan plan = engine.StoreKV(doc_id, ctx);
    std::printf("stored %-20s %5zu tokens, %6.1f MB encoded (all levels)\n",
                doc_id.c_str(), ctx.num_tokens,
                static_cast<double>(engine.store().ContextBytes(doc_id)) *
                    engine.model().size_scale() / 1e6);
    (void)plan;
  }

  // Queries retrieve documents (RAG retrieval itself is out of scope, §2.2
  // footnote: well-studied elsewhere).
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"What were the top revenue sources last quarter?", "earnings-report-q4"},
      {"Summarize the earnings report.", "earnings-report-q4"},
      {"Which precedent governs liability here?", "case-law-2023-0417"},
      {"How does multi-head attention work?", "wiki-transformers"},
      {"What guidance did management give?", "earnings-report-q4"},
  };

  KVStreamer streamer(engine.cost(), engine.model(), /*slo_s=*/1.5,
                      DefaultEncodingLevels().size());
  TTFTModel ttft = engine.MakeTTFTModel();

  double total_cachegen_s = 0.0, total_text_s = 0.0, saved_gpu_s = 0.0;
  std::printf("\n%-48s %-22s %9s %9s\n", "query", "document", "CacheGen", "re-prefill");
  for (const auto& [question, doc_id] : queries) {
    const ContextSpec ctx = corpus.at(doc_id);
    // Rebuild the plan from the store (sizes are already known offline).
    ContextPlan plan;
    plan.total_tokens = ctx.num_tokens;
    plan.quality_per_level = engine.calibration().quality_per_level;
    const auto ranges = SplitIntoChunks(ctx.num_tokens, engine.options().chunk_tokens);
    for (size_t i = 0; i < ranges.size(); ++i) {
      ChunkPlan cp;
      cp.range = ranges[i];
      for (const auto& level : DefaultEncodingLevels()) {
        const auto chunk = engine.GetKV(doc_id, static_cast<uint32_t>(i), level.id);
        cp.bytes_per_level.push_back(static_cast<double>(chunk->WireBytes()) *
                                     engine.model().size_scale());
      }
      plan.chunks.push_back(std::move(cp));
    }

    Link link(BandwidthTrace::Constant(3.0));
    const StreamResult r = streamer.Stream(plan, link).Get();
    const double text_s = ttft.Text(ctx.num_tokens, 3.0).Total();
    total_cachegen_s += r.ttft_s;
    total_text_s += text_s;
    saved_gpu_s += engine.cost().PrefillSeconds(engine.model(), ctx.num_tokens);
    std::printf("%-48s %-22s %7.2f s %7.2f s\n", question.c_str(), doc_id.c_str(),
                r.ttft_s, text_s);

    const GenerateResult answer = engine.GenerateWithKV(ctx, r.quality);
    (void)answer;
  }
  std::printf("\nTTFT total: %.2f s with CacheGen vs %.2f s re-prefilling (%.1fx)\n",
              total_cachegen_s, total_text_s, total_text_s / total_cachegen_s);
  std::printf("GPU prefill compute avoided across queries: %.2f s\n", saved_gpu_s);
  return 0;
}

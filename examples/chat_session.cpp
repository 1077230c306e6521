// Multi-turn chat with growing history (§2.2: "early chat content keeps
// getting reused as part of the context for every later chat input") — the
// LongChat scenario of Fig. 17.
//
// Each turn appends ~800 tokens of history. Between turns, the session's KV
// cache is offloaded to the storage server; when the user returns, only the
// *new* chunks need encoding, and the whole history streams back instead of
// being re-prefilled. The final turn asks the Fig. 17 question ("What was
// the first topic we discussed?") and prints the generated answer.
#include <cstdio>

#include "net/link.h"
#include "serving/engine.h"
#include "streamer/streamer.h"

using namespace cachegen;

int main() {
  Engine engine;  // defaults to the mistral-7b preset
  std::printf("== Multi-turn chat session with KV-cache offload ==\n");

  const uint64_t session_seed = 4242;
  KVStreamer streamer(engine.cost(), engine.model(), /*slo_s=*/1.0,
                      DefaultEncodingLevels().size());
  TTFTModel ttft = engine.MakeTTFTModel();

  double reload_total = 0.0, reprefill_total = 0.0;
  const size_t kTurnTokens = 800;
  for (int turn = 1; turn <= 8; ++turn) {
    const size_t history_tokens = kTurnTokens * static_cast<size_t>(turn);
    const ContextSpec history{session_seed, history_tokens};

    // Offline (between turns): encode and store the accumulated history.
    // In a production system only the newly appended chunks are encoded;
    // chunk encodings are independent (§5.3), so earlier chunks are reused.
    const std::string ctx_id = "chat-" + std::to_string(session_seed);
    const ContextPlan plan = engine.StoreKV(ctx_id, history);

    // Online: user sends the next message; history KV streams back.
    Link link(BandwidthTrace::Constant(3.0));
    const StreamResult r = streamer.Stream(plan, link).Get();
    const double text_s = ttft.Text(history_tokens, 3.0).Total();
    reload_total += r.ttft_s;
    reprefill_total += text_s;
    std::printf("turn %d: history %5zu tokens | TTFT %.2f s (CacheGen) vs %.2f s "
                "(re-prefill) | quality %.3f\n",
                turn, history_tokens, r.ttft_s, text_s, r.quality);

    if (turn == 8) {
      std::printf("\nUSER: What was the first topic we discussed?\n");
      const GenerateResult answer = engine.GenerateWithKV(history, r.quality);
      std::printf("LLM:  %s (%s)\n", answer.text.c_str(),
                  answer.correct ? "matches ground truth" : "WRONG");
    }
  }
  std::printf("\nsession totals: %.2f s vs %.2f s re-prefilling (%.1fx faster)\n",
              reload_total, reprefill_total, reprefill_total / reload_total);
  return 0;
}

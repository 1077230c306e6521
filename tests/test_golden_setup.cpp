// Golden Engine set-up: the synthetic prefill, the offline KVProfile and the
// codec calibration are hashed bit for bit. The expected digests were
// recorded from the column-major profile build and per-channel prefill that
// the row-major, layer-streamed versions replaced, so a change of loop order
// that moves a single bit of a tensor, a histogram count, a scale or a
// calibrated quality shows up here as a digest mismatch.
//
//   * Prefill / PrefillRange bytes for a plain and a composed (shared-prefix)
//     context, at range begins on both sides of the prefix boundary;
//   * the serialized KVProfile of a default Engine, and of a direct
//     KVProfile::Build over ragged caches at a non-default group size;
//   * the bits of every CodecCalibration field of that Engine;
//   * the profile and calibration digests again under CACHEGEN_THREADS=1
//     and 8 (re-exec), so the parallel fan-out of the profile build and the
//     concurrent layered calibration stay pool-size independent.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bitstream/serialize.h"
#include "llm/synthetic_model.h"
#include "serving/engine.h"

namespace cachegen {
namespace {

class Fnv {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Mix(const T& v) {
    Bytes(&v, sizeof(T));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void MixCache(Fnv& h, const KVCache& cache) {
  h.Mix(static_cast<uint64_t>(cache.num_layers()));
  h.Mix(static_cast<uint64_t>(cache.num_tokens()));
  h.Mix(static_cast<uint64_t>(cache.num_channels()));
  for (size_t l = 0; l < cache.num_layers(); ++l) {
    for (const Tensor* t : {&cache.layer(l).k, &cache.layer(l).v}) {
      h.Bytes(t->Data().data(), t->size() * sizeof(float));
    }
  }
}

// Prefill plus PrefillRange at every begin, to the context's end and over a
// one-token range; the composed context's prefix boundary sits at 1500.
uint64_t PrefillDigest(const ContextSpec& ctx) {
  const SyntheticModel model(ModelConfig::Preset("mistral-7b"));
  Fnv h;
  MixCache(h, model.Prefill(ctx));
  for (size_t begin : {0, 1, 500, 1499, 1500}) {
    MixCache(h, model.PrefillRange(ctx, begin, ctx.num_tokens));
    MixCache(h, model.PrefillRange(ctx, begin, begin + 1));
  }
  return h.value();
}

uint64_t ProfileDigest(const KVProfile& profile) {
  ByteWriter w;
  profile.Serialize(w);
  const std::vector<uint8_t> bytes = w.TakeBytes();
  Fnv h;
  h.Mix(static_cast<uint64_t>(bytes.size()));
  h.Bytes(bytes.data(), bytes.size());
  return h.value();
}

uint64_t CalibrationDigest(const CodecCalibration& c) {
  Fnv h;
  for (const std::vector<double>* v :
       {&c.bytes_per_token_per_level, &c.quality_per_level,
        &c.enh_bytes_per_token_per_level, &c.quality_enhanced_per_level}) {
    h.Mix(static_cast<uint64_t>(v->size()));
    for (double x : *v) h.Mix(x);
  }
  for (const std::map<int, double>* m : {&c.quant_bytes_per_token, &c.quant_quality}) {
    h.Mix(static_cast<uint64_t>(m->size()));
    for (const auto& [bits, x] : *m) {
      h.Mix(bits);
      h.Mix(x);
    }
  }
  h.Mix(c.text_bytes_per_token);
  return h.value();
}

// One default Engine for the profile and calibration digests.
Engine& DefaultEngine() {
  static Engine* engine = new Engine();
  return *engine;
}

constexpr uint64_t kPlainPrefillDigest = 0x386395539cf556cfULL;
constexpr uint64_t kComposedPrefillDigest = 0x25d3fcc58adafc68ULL;
constexpr uint64_t kProfileDigest = 0x071fcd5c4627cbf2ULL;
constexpr uint64_t kCalibrationDigest = 0x74e630067e4d8c05ULL;
constexpr uint64_t kRaggedProfileDigest = 0xa432808215d7ea56ULL;

TEST(GoldenSetup, PlainPrefillBytes) {
  EXPECT_EQ(Hex(PrefillDigest({0x5157ULL, 2000})), Hex(kPlainPrefillDigest));
}

TEST(GoldenSetup, ComposedPrefillBytes) {
  ContextSpec ctx{0x5157ULL, 2000};
  ctx.prefix_seed = 0xFA417ULL;
  ctx.prefix_tokens = 1500;
  EXPECT_EQ(Hex(PrefillDigest(ctx)), Hex(kComposedPrefillDigest));
}

TEST(GoldenSetup, ProfileBytes) {
  EXPECT_EQ(Hex(ProfileDigest(*DefaultEngine().profile())), Hex(kProfileDigest));
}

TEST(GoldenSetup, CalibrationBits) {
  EXPECT_EQ(Hex(CalibrationDigest(DefaultEngine().calibration())),
            Hex(kCalibrationDigest));
}

// KVProfile::Build over caches of unequal lengths that end mid token group,
// at a group size other than the default.
TEST(GoldenSetup, RaggedProfileBytes) {
  const ModelConfig cfg = ModelConfig::Preset("llama-3b");
  const SyntheticModel model(cfg);
  const std::vector<KVCache> caches = {model.Prefill({11, 203}), model.Prefill({12, 57}),
                                       model.Prefill({13, 1})};
  std::vector<const KVCache*> ptrs;
  for (const KVCache& c : caches) ptrs.push_back(&c);
  EXPECT_EQ(Hex(ProfileDigest(KVProfile::Build(cfg, ptrs, 7))), Hex(kRaggedProfileDigest));
}

// Re-exec targets: print the default Engine's profile / calibration digest.
TEST(GoldenSetupProbe, PrintProfileDigest) {
  std::printf("CG_DIGEST %s\n", Hex(ProfileDigest(*DefaultEngine().profile())).c_str());
  std::fflush(stdout);
  SUCCEED();
}

TEST(GoldenSetupProbe, PrintCalibrationDigest) {
  std::printf("CG_DIGEST %s\n",
              Hex(CalibrationDigest(DefaultEngine().calibration())).c_str());
  std::fflush(stdout);
  SUCCEED();
}

// Runs this binary's `probe` test under CACHEGEN_THREADS=`threads` and
// returns the digest it prints ("" if the run failed).
std::string ProbeDigestWithThreads(const char* probe, const char* threads) {
  // Resolve the symlink here: handed to the shell verbatim, /proc/self/exe
  // would resolve to the shell's own binary at exec time.
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) return {};
  self[n] = '\0';
  const std::string cmd = std::string("CACHEGEN_THREADS=") + threads + " '" + self +
                          "' --gtest_filter=GoldenSetupProbe." + probe + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buf[512];
  while (fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  pclose(pipe);
  const size_t pos = out.find("CG_DIGEST ");
  if (pos == std::string::npos) return {};
  return out.substr(pos + 10, out.find('\n', pos) - pos - 10);
}

void ExpectIndependentOfPoolSize(const char* probe, uint64_t expected) {
  const std::string one = ProbeDigestWithThreads(probe, "1");
  const std::string many = ProbeDigestWithThreads(probe, "8");
  ASSERT_FALSE(one.empty()) << "probe run with CACHEGEN_THREADS=1 failed";
  ASSERT_FALSE(many.empty()) << "probe run with CACHEGEN_THREADS=8 failed";
  EXPECT_EQ(one, many);
  EXPECT_EQ(one, Hex(expected));
}

TEST(GoldenSetup, ProfileIndependentOfPoolSize) {
  ExpectIndependentOfPoolSize("PrintProfileDigest", kProfileDigest);
}

TEST(GoldenSetup, CalibrationIndependentOfPoolSize) {
  ExpectIndependentOfPoolSize("PrintCalibrationDigest", kCalibrationDigest);
}

}  // namespace
}  // namespace cachegen

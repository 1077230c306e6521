#include "codec/layered_encoder.h"

#include <cmath>

#include "bitstream/bit_reader.h"
#include "bitstream/bit_writer.h"
#include "quant/symbol_kernels.h"

namespace cachegen {

namespace {
constexpr uint32_t kResidualAlphabet = 2 * KVProfile::kDeltaMaxSym + 1;

// Walk the residual symbol stream (the exact sequence the enhancement layer
// codes) in encode order, feeding each symbol to `fn(uint32_t)`.
template <typename Fn>
void ForEachResidualSymbol(const TableSet& tables, const KVCache& chunk,
                           const KVCache& base_recon, double fine_bin_sigma,
                           Fn&& fn) {
  const long max_sym = KVProfile::kDeltaMaxSym;
  std::vector<double> sigma(chunk.num_channels());
  for (size_t l = 0; l < chunk.num_layers(); ++l) {
    for (int kind = 0; kind < 2; ++kind) {
      const Tensor& orig = kind == 0 ? chunk.layer(l).k : chunk.layer(l).v;
      const Tensor& base = kind == 0 ? base_recon.layer(l).k : base_recon.layer(l).v;
      for (size_t c = 0; c < sigma.size(); ++c) sigma[c] = tables.BodySigma(l, c, kind);
      for (size_t r = 0; r < orig.rows(); ++r) {
        const float* o = orig.Row(r).data();
        const float* b = base.Row(r).data();
        for (size_t c = 0; c < orig.cols(); ++c) {
          const double resid = (o[c] - b[c]) / sigma[c];
          const long s = ClampedLround(resid / fine_bin_sigma, max_sym);
          fn(static_cast<uint32_t>(s + max_sym));
        }
      }
    }
  }
}
}  // namespace

LayeredEncoder::LayeredEncoder(std::shared_ptr<const KVProfile> profile,
                               const EncodingLevel& base_level,
                               double fine_bin_sigma, const CodecOptions& options)
    : LayeredEncoder(profile,
                     std::make_shared<TableSet>(*profile, base_level, options),
                     base_level, fine_bin_sigma) {}

LayeredEncoder::LayeredEncoder(std::shared_ptr<const KVProfile> profile,
                               std::shared_ptr<const TableSet> tables,
                               const EncodingLevel& base_level,
                               double fine_bin_sigma)
    : profile_(std::move(profile)),
      tables_(std::move(tables)),
      base_encoder_(profile_, tables_),
      base_decoder_(profile_, tables_),
      fine_bin_sigma_(fine_bin_sigma),
      base_level_id_(base_level.id) {}

LayeredChunk LayeredEncoder::Encode(const KVCache& chunk, uint32_t chunk_index,
                                    uint64_t token_begin) const {
  LayeredChunk out;
  out.fine_bin_sigma = fine_bin_sigma_;
  out.base = base_encoder_.EncodeChunk(chunk, chunk_index, token_begin);

  // Residual against what the receiver will reconstruct from the base.
  const KVCache base_recon = base_decoder_.DecodeChunk(out.base);

  BitWriter writer;
  RangeEncoder enc(writer);
  AdaptiveModel model(kResidualAlphabet);
  ForEachResidualSymbol(*tables_, chunk, base_recon, fine_bin_sigma_,
                        [&](uint32_t sym) { model.EncodeAndUpdate(enc, sym); });
  enc.Finish();
  out.enhancement = writer.TakeBytes();
  return out;
}

double LayeredEncoder::EstimateEnhancementBytes(const KVCache& chunk) const {
  return EstimateEnhancementBytes(chunk, base_encoder_.EncodeChunk(chunk));
}

double LayeredEncoder::EstimateEnhancementBytes(const KVCache& chunk,
                                                const EncodedChunk& base) const {
  const KVCache base_recon = base_decoder_.DecodeChunk(base);

  std::vector<uint64_t> counts(kResidualAlphabet, 0);
  uint64_t total = 0;
  ForEachResidualSymbol(*tables_, chunk, base_recon, fine_bin_sigma_,
                        [&](uint32_t sym) {
                          ++counts[sym];
                          ++total;
                        });
  if (total == 0) return 0.0;
  double bits = 0.0;
  for (const uint64_t n : counts) {
    if (n == 0) continue;
    const double p = static_cast<double>(n) / static_cast<double>(total);
    bits += static_cast<double>(n) * -std::log2(p);
  }
  // The adaptive model starts uniform and converges over its rebuild
  // windows; a few hundred bytes of startup overhead covers the difference.
  return bits / 8.0 + 256.0;
}

KVCache LayeredEncoder::DecodeBase(const LayeredChunk& chunk) const {
  return base_decoder_.DecodeChunk(chunk.base);
}

KVCache LayeredEncoder::DecodeFull(const LayeredChunk& chunk) const {
  KVCache out = base_decoder_.DecodeChunk(chunk.base);
  BitReader reader(chunk.enhancement);
  RangeDecoder dec(reader);
  AdaptiveModel model(kResidualAlphabet);
  for (size_t l = 0; l < out.num_layers(); ++l) {
    for (int kind = 0; kind < 2; ++kind) {
      Tensor& t = kind == 0 ? out.layer(l).k : out.layer(l).v;
      for (size_t r = 0; r < t.rows(); ++r) {
        for (size_t c = 0; c < t.cols(); ++c) {
          const double sigma = tables_->BodySigma(l, c, kind);
          const uint32_t sym = model.DecodeAndUpdate(dec);
          const double sn = static_cast<double>(sym) - KVProfile::kDeltaMaxSym;
          t.At(r, c) = static_cast<float>(t.At(r, c) +
                                          sn * chunk.fine_bin_sigma * sigma);
        }
      }
    }
  }
  return out;
}

}  // namespace cachegen

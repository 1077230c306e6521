#include "codec/layered_encoder.h"

#include <cmath>

#include "bitstream/bit_reader.h"
#include "bitstream/bit_writer.h"
#include "quant/symbol_kernels.h"

namespace cachegen {

namespace {
constexpr uint32_t kResidualAlphabet = 2 * KVProfile::kDeltaMaxSym + 1;

// Walk the residual symbol stream (the exact sequence the enhancement layer
// codes) in encode order, feeding each symbol to `fn(sym, base, sigma)`
// with `base` the element's base reconstruction — writable when
// `base_recon` is, so a caller can lift it to the enhanced value in place.
template <typename Recon, typename Fn>
void ForEachResidualSymbol(const TableSet& tables, const KVCache& chunk,
                           Recon& base_recon, double fine_bin_sigma, Fn&& fn) {
  const long max_sym = KVProfile::kDeltaMaxSym;
  std::vector<double> sigma(chunk.num_channels());
  for (size_t l = 0; l < chunk.num_layers(); ++l) {
    for (int kind = 0; kind < 2; ++kind) {
      const Tensor& orig = kind == 0 ? chunk.layer(l).k : chunk.layer(l).v;
      auto& base = kind == 0 ? base_recon.layer(l).k : base_recon.layer(l).v;
      for (size_t c = 0; c < sigma.size(); ++c) sigma[c] = tables.BodySigma(l, c, kind);
      for (size_t r = 0; r < orig.rows(); ++r) {
        const float* o = orig.Row(r).data();
        auto* b = base.Row(r).data();
        for (size_t c = 0; c < orig.cols(); ++c) {
          const double resid = (o[c] - b[c]) / sigma[c];
          const long s = ClampedLround(resid / fine_bin_sigma, max_sym);
          fn(static_cast<uint32_t>(s + max_sym), b[c], sigma[c]);
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
                                    uint64_t token_begin, KVCache* enhanced) const {
  LayeredChunk out;
  out.fine_bin_sigma = fine_bin_sigma_;
  // Residual against what the receiver will reconstruct from the base: the
  // closed-loop encoder hands that reconstruction back with the bitstream.
  KVCache recon;
  out.base = base_encoder_.EncodeChunk(chunk, chunk_index, token_begin, 0, &recon);

  BitWriter writer;
  RangeEncoder enc(writer);
  AdaptiveModel model(kResidualAlphabet);
  ForEachResidualSymbol(
      *tables_, chunk, recon, fine_bin_sigma_,
      [&](uint32_t sym, float& base, double sigma) {
        model.EncodeAndUpdate(enc, sym);
        if (enhanced) {
          // DecodeFull's expression, applied once this element is read.
          const double sn = static_cast<double>(sym) - KVProfile::kDeltaMaxSym;
          base = static_cast<float>(base + sn * fine_bin_sigma_ * sigma);
        }
      });
  enc.Finish();
  out.enhancement = writer.TakeBytes();
  if (enhanced) *enhanced = std::move(recon);
  return out;
}

double LayeredEncoder::EstimateEnhancementBytes(const KVCache& chunk) const {
  KVCache recon;
  base_encoder_.EncodeChunk(chunk, 0, 0, 0, &recon);
  return EnhancementBytesFromBase(chunk, recon);
}

double LayeredEncoder::EstimateEnhancementBytes(const KVCache& chunk,
                                                const EncodedChunk& base) const {
  return EnhancementBytesFromBase(chunk, base_decoder_.DecodeChunk(base));
}

double LayeredEncoder::EnhancementBytesFromBase(const KVCache& chunk,
                                                const KVCache& base_recon) const {
  std::vector<uint64_t> counts(kResidualAlphabet, 0);
  uint64_t total = 0;
  ForEachResidualSymbol(*tables_, chunk, base_recon, fine_bin_sigma_,
                        [&](uint32_t sym, float, double) {
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

// Offline probability profiling (§5.2 "Arithmetic coding", §6).
//
// CacheGen's encoder profiles, once per model, a separate value distribution
// for every channel-layer combination — one for anchor tokens and one for
// delta tensors — and reuses those distributions for every KV cache the
// model produces. KVProfile stores, per (layer, channel, K|V):
//
//   - raw value mean / std            (for the no-delta ablation mode)
//   - delta std                       (normalizes deltas before binning)
//   - anchor scale                    (8-bit anchor quantization step)
//   - histograms of normalized anchor, delta and raw values
//
// Histograms are kept at a resolution finer than any encoding level's bin
// width, so the FreqTable for an arbitrary bin size can be derived without
// re-profiling — this is how one profile serves the whole encoding-level
// ladder of §5.3.
//
// TableSet materializes the FreqTables for one (profile, level, options)
// combination; encoder and decoder must build it with identical inputs.
// ProfileGranularity::kGlobal implements the strawman of §7.5 (one global
// symbol distribution), kPerLayer the intermediate, kPerChannelLayer the
// paper's design. Granularity governs *both* the probability tables and the
// normalization statistics (sigma/scale) the quantizer uses: a "global
// distribution" strawman cannot secretly keep per-channel scales, or the
// comparison would be vacuous.
//
// Quantization bins are expressed in units of the (granularity-pooled) RAW
// value sigma, for delta and no-delta modes alike, so that ablating delta
// encoding changes the bitstream size but not the reconstruction error —
// matching how the paper's Fig. 15 varies one axis at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ac/freq_table.h"
#include "bitstream/serialize.h"
#include "codec/delta.h"
#include "codec/encoding_level.h"
#include "llm/model_config.h"
#include "tensor/kv_cache.h"

namespace cachegen {

enum class ProfileGranularity : uint8_t {
  kGlobal = 0,
  kPerLayer = 1,
  kPerChannelLayer = 2,
};

struct CodecOptions {
  bool delta_encoding = true;   // false: code raw normalized values (ablation)
  bool layerwise_bins = true;   // false: single mid-group bin for all layers
  ProfileGranularity granularity = ProfileGranularity::kPerChannelLayer;
  AnchorMode anchor_mode = AnchorMode::kAnchor;
  size_t token_group_size = kTokenGroupSize;

  uint8_t Flags() const;
  static CodecOptions FromFlags(uint8_t flags);
};

class KVProfile {
 public:
  static constexpr int kHistBins = 256;        // over [-kHistRange, kHistRange)
  static constexpr double kHistRange = 8.0;
  static constexpr int32_t kAnchorMaxSym = 127;  // anchor alphabet = 255
  static constexpr int32_t kDeltaMaxSym = 64;    // delta alphabet = 129

  KVProfile() = default;

  // A source of calibration layers: source(l, visit) calls visit with layer
  // `l` of every calibration cache, in cache order. The layers need to live
  // only for the duration of that call, and the build calls the source for
  // different layers concurrently.
  using LayerVisitor = std::function<void(std::span<const KVLayer* const>)>;
  using LayerSource = std::function<void(size_t l, const LayerVisitor& visit)>;

  // Two-pass build over calibration caches (all from the same model), one
  // layer at a time: pass 1 estimates a layer's scales and pass 2 fills its
  // normalized histograms, so a source may generate each layer on demand
  // and drop it afterwards. Layers are independent and fan out over the
  // codec pool. Each pass walks a tensor row by row, advancing every
  // channel's accumulators side by side; any one channel still sees its
  // values in (cache, token) order, so the result does not depend on the
  // loop order or the pool size.
  static KVProfile BuildByLayer(const ModelConfig& cfg, const LayerSource& source,
                                size_t token_group_size = kTokenGroupSize);
  // The same build over caches already in memory.
  static KVProfile Build(const ModelConfig& cfg,
                         std::span<const KVCache* const> caches,
                         size_t token_group_size = kTokenGroupSize);

  // Histogram bin of a normalized value: clamp(lround(floor(pos)), 0,
  // kHistBins - 1) for pos = (normalized + kHistRange) / (2 kHistRange) *
  // kHistBins, without libm or branches (the build's row loops vectorize
  // over it). Where that form relied on lround's result for an
  // unrepresentable value (LONG_MIN, from glibc on x86-64) it is kept: NaN,
  // -inf and pos >= 2^63 (so also +inf) land in bin 0, like every value
  // below the range.
  static uint32_t HistBinOf(double normalized) {
    const double pos = (normalized + kHistRange) / (2.0 * kHistRange) * kHistBins;
    const double top = pos >= kHistBins && pos < 0x1p63 ? kHistBins - 1.0 : 0.0;
    // Truncation is floor on [0, kHistBins).
    return static_cast<uint32_t>(
        static_cast<int32_t>(pos >= 0.0 && pos < kHistBins ? pos : top));
  }

  size_t num_layers() const { return num_layers_; }
  size_t num_channels() const { return num_channels_; }

  // kind: 0 = K, 1 = V.
  double RawMean(size_t l, size_t c, int kind) const { return stats_[Idx(l, c, kind)].raw_mean; }
  double RawStd(size_t l, size_t c, int kind) const { return stats_[Idx(l, c, kind)].raw_std; }
  double DeltaStd(size_t l, size_t c, int kind) const { return stats_[Idx(l, c, kind)].delta_std; }
  double AnchorScale(size_t l, size_t c, int kind) const {
    return stats_[Idx(l, c, kind)].anchor_scale;
  }

  std::span<const uint64_t> AnchorHist(size_t l, size_t c, int kind) const;
  std::span<const uint64_t> DeltaHist(size_t l, size_t c, int kind) const;
  std::span<const uint64_t> RawHist(size_t l, size_t c, int kind) const;

  void Serialize(ByteWriter& w) const;
  static KVProfile Deserialize(ByteReader& r);

 private:
  friend class TableSet;

  // Both passes over layer `l` of the calibration caches.
  void BuildLayer(size_t l, std::span<const KVLayer* const> layers,
                  size_t token_group_size);

  struct ChannelStats {
    double raw_mean = 0.0;
    double raw_std = 1.0;
    double delta_std = 1.0;
    double anchor_scale = 1.0;
  };

  size_t Idx(size_t l, size_t c, int kind) const {
    return (l * num_channels_ + c) * 2 + static_cast<size_t>(kind);
  }

  size_t num_layers_ = 0;
  size_t num_channels_ = 0;
  std::vector<ChannelStats> stats_;
  // Flattened histograms, kHistBins per (l, c, kind); anchor histograms use
  // 2*kAnchorMaxSym+1 bins (direct symbol counts).
  std::vector<uint64_t> anchor_hist_;
  std::vector<uint64_t> delta_hist_;
  std::vector<uint64_t> raw_hist_;
};

// FreqTables materialized for one (profile, level, options) combination.
class TableSet {
 public:
  TableSet(const KVProfile& profile, const EncodingLevel& level,
           const CodecOptions& options);

  const FreqTable& Anchor(size_t l, size_t c, int kind) const;
  // Delta tables in delta mode; raw-value tables in no-delta mode.
  const FreqTable& Body(size_t l, size_t c, int kind) const;

  // Effective bin width (raw-sigma units) used for layer `l`.
  double BinFor(size_t l) const { return bins_per_layer_[l]; }

  // Per-channel-layer normalization statistics (granularity-independent:
  // they belong to the quantizer, not the probability model).
  double BodySigma(size_t l, size_t c, int kind) const {
    return body_sigma_[StatIndex(l, c, kind)];
  }
  double BodyMean(size_t l, size_t c, int kind) const {
    return body_mean_[StatIndex(l, c, kind)];
  }
  double AnchorScaleEff(size_t l, size_t c, int kind) const {
    return anchor_scale_[StatIndex(l, c, kind)];
  }

  const EncodingLevel& level() const { return level_; }
  const CodecOptions& options() const { return options_; }

 private:
  size_t TableIndex(size_t l, size_t c, int kind) const;
  size_t AnchorTableIndex(size_t l, size_t c, int kind) const;
  size_t StatIndex(size_t l, size_t c, int kind) const {
    return (l * num_channels_ + c) * 2 + static_cast<size_t>(kind);
  }

  EncodingLevel level_;
  CodecOptions options_;
  size_t num_layers_ = 0;
  size_t num_channels_ = 0;
  std::vector<double> bins_per_layer_;
  std::vector<FreqTable> anchor_tables_;
  std::vector<FreqTable> body_tables_;
  std::vector<double> body_sigma_;    // per channel-layer raw sigma
  std::vector<double> body_mean_;     // per channel-layer raw mean
  std::vector<double> anchor_scale_;  // per channel-layer anchor scale
};

}  // namespace cachegen

#include "quant/uniform_quant.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace cachegen {

UniformQuantizer::UniformQuantizer(int bits) : bits_(bits) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument("UniformQuantizer: bits must be in [1,16]");
  }
}

UniformQuantized UniformQuantizer::Quantize(std::span<const float> xs) const {
  UniformQuantized q;
  q.bits = bits_;
  q.count = xs.size();
  if (xs.empty()) return q;

  const auto [mn_it, mx_it] = std::minmax_element(xs.begin(), xs.end());
  const float mn = *mn_it;
  const float mx = *mx_it;
  const uint32_t levels = (1u << bits_) - 1;
  q.min = mn;
  q.scale = levels > 0 && mx > mn ? (mx - mn) / static_cast<float>(levels) : 1.0f;

  // std::lround without the libm call, as in QuantizeRow: x >= min, so the
  // quotient is >= 0; capped at levels + 1 it converts to int32 safely, and
  // f - trunc(f) is exact by Sterbenz, so its doubling truncates to 1
  // exactly when the fraction is >= 0.5 (half away from zero).
  const int32_t max_s = static_cast<int32_t>(levels);
  const float cap = static_cast<float>(levels) + 1.0f;
  q.symbols.resize(xs.size());
  uint32_t* out = q.symbols.data();
  for (size_t i = 0; i < xs.size(); ++i) {
    const float f = std::min((xs[i] - q.min) / q.scale, cap);
    const int32_t t = static_cast<int32_t>(f);  // truncation toward zero
    const float frac = f - static_cast<float>(t);
    const int32_t s = t + static_cast<int32_t>(frac + frac);
    out[i] = static_cast<uint32_t>(std::clamp(s, 0, max_s));
  }
  return q;
}

std::vector<float> UniformQuantizer::Dequantize(const UniformQuantized& q) const {
  std::vector<float> out;
  out.reserve(q.symbols.size());
  for (uint32_t s : q.symbols) {
    out.push_back(q.min + static_cast<float>(s) * q.scale);
  }
  return out;
}

Tensor UniformQuantizer::RoundTrip(const Tensor& t) const {
  const UniformQuantized q = Quantize(t.Data());
  return Tensor(t.rows(), t.cols(), Dequantize(q));
}

}  // namespace cachegen

#include "quant/symbol_kernels.h"

#include <algorithm>

namespace cachegen {

namespace {

// Round-half-away-from-zero on a pre-saturated quotient, then clamp to
// ±max_sym and shift to the unsigned symbol. q - trunc(q) is exact by
// Sterbenz and lies in (-1, 1), so doubling it is exact too and its
// truncation is ±1 exactly when |frac| >= 0.5: t + int(frac + frac) is
// std::lround bit-for-bit, with no compare-and-select the vectorizer has to
// widen across the double and int32 lanes.
inline uint32_t RoundClampShift(double q, double bound, int32_t max_s) {
  q = std::max(std::min(q, bound), -bound);
  const int32_t t = static_cast<int32_t>(q);  // truncation toward zero
  const double frac = q - static_cast<double>(t);
  const int32_t s = t + static_cast<int32_t>(frac + frac);
  return static_cast<uint32_t>(std::max(std::min(s, max_s), -max_s) + max_s);
}

}  // namespace

void QuantizeRow(const float* x, const double* offset, const double* sigma,
                 double bin, uint32_t max_sym, size_t n, uint32_t* symbols) {
  const double bound = static_cast<double>(max_sym) + 1.0;
  const int32_t max_s = static_cast<int32_t>(max_sym);
  for (size_t i = 0; i < n; ++i) {
    // Same two-division sequence as the scalar path: normalize, then bin.
    double q = (static_cast<double>(x[i]) - offset[i]) / sigma[i];
    q /= bin;
    symbols[i] = RoundClampShift(q, bound, max_s);
  }
}

void QuantizeAnchorRow(const float* x, const double* scale, uint32_t max_sym,
                       size_t n, uint32_t* symbols, double* ref) {
  const double bound = static_cast<double>(max_sym) + 1.0;
  const int32_t max_s = static_cast<int32_t>(max_sym);
  const double max_d = static_cast<double>(max_sym);
  for (size_t i = 0; i < n; ++i) {
    const double q = static_cast<double>(x[i]) / scale[i];
    const uint32_t sym = RoundClampShift(q, bound, max_s);
    symbols[i] = sym;
    ref[i] = (static_cast<double>(sym) - max_d) * scale[i];
  }
}

void ReconstructRow(const uint32_t* symbols, const double* sigma, double bin,
                    uint32_t max_sym, bool advance_ref, size_t n, double* ref,
                    float* out) {
  const double max_d = static_cast<double>(max_sym);
  if (advance_ref) {
    for (size_t i = 0; i < n; ++i) {
      const double sn = static_cast<double>(symbols[i]) - max_d;
      const double value = ref[i] + sn * bin * sigma[i];
      out[i] = static_cast<float>(value);
      ref[i] = value;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const double sn = static_cast<double>(symbols[i]) - max_d;
      out[i] = static_cast<float>(ref[i] + sn * bin * sigma[i]);
    }
  }
}

void ReconstructAnchorRow(const uint32_t* symbols, const double* scale,
                          uint32_t max_sym, size_t n, double* ref, float* out) {
  const double max_d = static_cast<double>(max_sym);
  for (size_t i = 0; i < n; ++i) {
    ref[i] = (static_cast<double>(symbols[i]) - max_d) * scale[i];
    out[i] = static_cast<float>(ref[i]);
  }
}

}  // namespace cachegen

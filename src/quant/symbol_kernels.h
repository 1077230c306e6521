// Batch symbol-mapping kernels for the KV codec hot path.
//
// The seed mapped every element through scalar helpers (a std::lround libm
// call on a double quotient, then a clamp) from inside the coding loop.
// These kernels hoist that mapping into flat per-row batch loops: no libm
// calls, no branches in the core, all inputs as contiguous arrays
// (per-channel scales precomputed once per layer/kind by the caller).
// QuantizeRow and QuantizeAnchorRow round as t + int(frac + frac) with
// min/max clamps, a form GCC 12 vectorizes at -O3 on baseline x86-64 (packed
// divpd; check with -fopt-info-vec). An earlier form that added the ±1 by
// two compare-and-selects on frac stayed scalar.
//
// Bit-exactness contract: each kernel performs the *same* double arithmetic
// in the same order as the seed's scalar path — including the two-division
// normalize-then-bin sequence — and rounds half-away-from-zero exactly like
// std::lround, so emitted symbols (and therefore bitstreams) are
// byte-identical. A float reciprocal-multiply variant would be faster still
// but could flip round-to-nearest ties and break bitstream identity, which
// the golden-bitstream test forbids; speed is verified by a throughput
// assertion in bench_codec_throughput instead of by intrinsics.
//
// The only intentional divergence: quotients are saturated to ±(max_sym+1)
// *before* the float→int conversion (the conversion is UB out of range;
// std::lround was merely unspecified there). For every quotient below the
// clamp bound — all real data — results are identical.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cachegen {

// symbols[i] = clamp(round((double(x[i]) - offset[i]) / sigma[i] / bin),
//                    ±max_sym) + max_sym
// Covers both delta mode (offset = reconstructed reference row) and raw mode
// (offset = per-channel mean), mirroring the seed's DeltaSymbol.
void QuantizeRow(const float* x, const double* offset, const double* sigma,
                 double bin, uint32_t max_sym, size_t n, uint32_t* symbols);

// Anchor row: symbols[i] = clamp(round(double(x[i]) / scale[i]), ±max_sym)
// + max_sym, and ref[i] = (double(symbols[i]) - max_sym) * scale[i] — the
// reconstructed anchor the decoder will also compute.
void QuantizeAnchorRow(const float* x, const double* scale, uint32_t max_sym,
                       size_t n, uint32_t* symbols, double* ref);

// out[i] = float(ref[i] + (double(symbols[i]) - max_sym) * bin * sigma[i]).
// With advance_ref, the double value is stored back into ref (consecutive
// anchor mode, where the reference tracks the reconstructed previous token).
// The encoder calls this too, so its reference and its closed-loop
// reconstruction are the decoder's to the bit.
void ReconstructRow(const uint32_t* symbols, const double* sigma, double bin,
                    uint32_t max_sym, bool advance_ref, size_t n, double* ref,
                    float* out);

// ref[i] = (double(symbols[i]) - max_sym) * scale[i]; out[i] = float(ref[i]).
void ReconstructAnchorRow(const uint32_t* symbols, const double* scale,
                          uint32_t max_sym, size_t n, double* ref, float* out);

// Scalar clamp(std::lround(v), -lim, lim) without the libm call, for the
// per-element paths outside the batch kernels (profile histograms, the
// layered residual walk). Unlike the kernels it does not saturate: where
// lround cannot represent the result, NaN and v >= 2^63, it keeps what glibc
// on x86-64 returns there (LONG_MIN), so those clamp to -lim exactly as the
// lround form did.
inline long ClampedLround(double v, long lim) {
  const double bound = static_cast<double>(lim);
  if (v > -bound && v < bound) {
    const long t = static_cast<long>(v);  // truncation toward zero
    const double frac = v - static_cast<double>(t);  // exact (Sterbenz)
    return t + (frac >= 0.5 ? 1 : 0) - (frac <= -0.5 ? 1 : 0);
  }
  return v >= bound && v < 0x1p63 ? lim : -lim;
}

}  // namespace cachegen

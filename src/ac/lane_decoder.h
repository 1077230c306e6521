// Interleaved multi-stream range decoding.
//
// A single range-decoder chain is latency-bound: each symbol's division and
// table walk depend on the previous symbol's state update, so the core sits
// mostly idle between dependent instructions. The codec's token-group
// streams are independent, and all *full* groups decode under exactly the
// same table sequence — so k streams can be decoded in lockstep, one symbol
// position at a time: k independent dependency chains interleaved in one
// scalar loop keep the pipeline full (the CPU analogue of the paper's
// one-CUDA-thread-per-token decode kernels, §6, applied at instruction
// level).
//
// Two details matter as much as the interleaving itself (measured on one
// Ice Lake core against the codec's per-channel-layer tables):
//   - call LaneDecode only from small call-free leaf loops (see KVDecoder's
//     DecodeSymbolBlock); embedded in a large function with calls around
//     it, throughput roughly halved. The leaf does not keep the lanes in
//     registers either: GCC 12 -O3 holds them in a stack array and runs the
//     lane loop as a runtime loop, one `div` in its body, not unrolled.
//   - symbol resolution uses FreqTable's bucket index, not the 2^16 direct
//     array: with thousands of live tables the direct arrays thrash every
//     cache level (measured 5x slower than even binary search), while all
//     bucket indices together stay cache-resident. The symbol's frequency is
//     recovered as cum[s+1] - cum[s] — the scan already touches cum[s+1] —
//     so the freq array never enters the hot working set at all.
//
// Lanes reproduce RangeDecoder::Decode symbol-for-symbol on well-formed
// input. Past the end of a stream they read zero bytes (the seed decoder's
// trailing-zeros convention, bounds-checked): a truncated or desynchronized
// group stream yields in-range garbage confined to that stream, and must not
// throw — callers decode k groups at once, and a corrupt group must not
// poison its batch-mates (KVDecoder's contained-damage convention). The
// strict-error path for single streams is RangeDecoder, which throws on
// truncation instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "ac/freq_table.h"

namespace cachegen {

struct DecodeLane {
  const uint8_t* p = nullptr;
  const uint8_t* end = nullptr;
  uint32_t code = 0;
  uint32_t range = 0xFFFFFFFFu;

  // Prime from a stream's bytes (the encoder's zero cache byte + 4 payload
  // bytes); shorter streams zero-fill.
  void Init(std::span<const uint8_t> bytes) {
    p = bytes.data();
    end = p + bytes.size();
    code = 0;
    range = 0xFFFFFFFFu;
    for (int i = 0; i < 5; ++i) {
      const bool avail = p < end;
      code = (code << 8) | (avail ? *p : 0u);
      p += avail ? 1 : 0;
    }
  }

};

// Decode the next symbol of `lane` under the table described by its raw
// arrays (cum/bucket as returned by CumData/BucketIndex). The symbol's
// frequency is cum[s+1] - cum[s], and the scan already touches cum[s+1], so
// the freq array never enters the hot working set.
inline uint32_t LaneDecode(DecodeLane& lane, const uint32_t* cum,
                           const uint16_t* bucket) {
  lane.range >>= FreqTable::kTotalBits;
  uint32_t target = lane.code / lane.range;
  if (target >= FreqTable::kTotal) target = FreqTable::kTotal - 1;
  uint32_t symbol =
      bucket[target >> (FreqTable::kTotalBits - FreqTable::kBucketBits)];
  while (cum[symbol + 1] <= target) ++symbol;
  const uint32_t lo = cum[symbol];
  lane.code -= lo * lane.range;
  lane.range *= cum[symbol + 1] - lo;
  while (lane.range < (1u << 24)) {
    const uint32_t avail = lane.p < lane.end;
    lane.code = (lane.code << 8) | (avail ? *lane.p : 0u);
    lane.p += avail;
    lane.range <<= 8;
  }
  return symbol;
}

}  // namespace cachegen

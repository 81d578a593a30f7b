#include "pagerank/simd.h"

#include <cstdint>

#include "pagerank/simd_sweep_body.h"

namespace spammass::pagerank::simd {

// Vector backend, defined in simd_avx2.cc when compiled for x86-64. It
// returns nullptr for widths it does not vectorize; this TU then falls
// back to ScalarSweepRange.
#if defined(__x86_64__) || defined(_M_X64)
SweepRangeFn PickAvx2SweepF64(uint32_t k);
bool Avx2HostSupported();
#endif

const char* LevelToString(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool IsSupported(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return Avx2HostSupported();
#else
      return false;
#endif
  }
  return false;
}

Level Best() {
  return IsSupported(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
}

namespace {

/// Scalar instantiation table: compile-time widths for the batch sizes
/// the solver produces (1/2/4/8/16), with the runtime-k body covering
/// compacted in-between widths.
SweepRangeFn PickScalarSweep(uint32_t k) {
  switch (k) {
    case 1:
      return ScalarSweepRange<1>;
    case 2:
      return ScalarSweepRange<2>;
    case 4:
      return ScalarSweepRange<4>;
    case 8:
      return ScalarSweepRange<8>;
    case 16:
      return ScalarSweepRange<16>;
    default:
      return ScalarSweepRange<0>;
  }
}

}  // namespace

SweepRangeFn PickSweepF64(Level level, uint32_t k) {
#if defined(__x86_64__) || defined(_M_X64)
  if (level == Level::kAvx2 && Avx2HostSupported()) {
    if (SweepRangeFn fn = PickAvx2SweepF64(k)) return fn;
  }
#endif
  (void)level;
  return PickScalarSweep(k);
}

}  // namespace spammass::pagerank::simd

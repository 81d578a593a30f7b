#include "pagerank/simd.h"

#include <cstdint>

#include "pagerank/simd_sweep_body.h"

namespace spammass::pagerank::simd {

// Vector backend, defined in simd_avx2.cc when compiled for x86-64. It
// returns nullptr for widths it does not vectorize; this TU then falls
// back to ScalarSweepRange.
#if defined(__x86_64__) || defined(_M_X64)
SweepRangeFn<double> PickAvx2SweepF64(uint32_t k);
SweepRangeFn<float> PickAvx2SweepF32(uint32_t k);
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

/// Scalar instantiation table: the same compile-time widths the fused
/// kernel specializes (1/2/4/8/16), with the runtime-k body covering
/// compacted in-between widths.
template <typename Real>
SweepRangeFn<Real> PickScalarSweep(uint32_t k) {
  switch (k) {
    case 1:
      return ScalarSweepRange<Real, 1>;
    case 2:
      return ScalarSweepRange<Real, 2>;
    case 4:
      return ScalarSweepRange<Real, 4>;
    case 8:
      return ScalarSweepRange<Real, 8>;
    case 16:
      return ScalarSweepRange<Real, 16>;
    default:
      return ScalarSweepRange<Real, 0>;
  }
}

}  // namespace

SweepRangeFn<double> PickSweepF64(Level level, uint32_t k) {
#if defined(__x86_64__) || defined(_M_X64)
  if (level == Level::kAvx2 && Avx2HostSupported()) {
    if (SweepRangeFn<double> fn = PickAvx2SweepF64(k)) return fn;
  }
#endif
  (void)level;
  return PickScalarSweep<double>(k);
}

SweepRangeFn<float> PickSweepF32(Level level, uint32_t k) {
#if defined(__x86_64__) || defined(_M_X64)
  if (level == Level::kAvx2 && Avx2HostSupported()) {
    if (SweepRangeFn<float> fn = PickAvx2SweepF32(k)) return fn;
  }
#endif
  (void)level;
  return PickScalarSweep<float>(k);
}

}  // namespace spammass::pagerank::simd

// AVX2 + FMA sweep-range backends. This is the only x86 translation unit
// allowed to use vector intrinsics (spammass_lint.py `simd-isolation`); it
// is compiled with -mavx2 -mfma and entered only after the runtime check
// in Avx2HostSupported(), so no AVX2 instruction can execute on an
// unsupporting host.
//
// Every routine is element-wise per lane: a 256-bit accumulator holds 4
// double lanes of ONE node, and edge contributions add in exactly the
// scalar body's order. The only numeric difference from ScalarSweepRange
// is FMA contraction in the output expression `c·in_sum + v·m`;
// equivalence is asserted by pagerank_sweep_variant_test.cc under
// tolerance, while the default scalar path keeps the bit-exact guarantee.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstdint>

#include "pagerank/simd_sweep_body.h"

namespace spammass::pagerank::simd {

bool Avx2HostSupported() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

namespace {

// Gathered `scaled` rows are the sweep's only hard-to-predict loads;
// issuing a software prefetch this many edges ahead hides most of the
// DRAM latency the hardware prefetcher cannot (the source IDs are
// data-dependent). Cross-node prefetches are fine — the guard only keeps
// the *index* load in bounds.
constexpr uint64_t kPrefetchDistance = 16;

/// K doubles (K ∈ {4, 8, 16}) of one node accumulate in K/4 ymm registers.
template <uint32_t K>
void Avx2SweepF64(const SweepArgs& args, double* diff_slot,
                  graph::NodeId begin, graph::NodeId end) {
  static_assert(K % 4 == 0 && K <= kMaxSweepLanes);
  constexpr uint32_t kBlocks = K / 4;
  const uint64_t* in_offsets = args.in_offsets;
  const graph::NodeId* sources = args.sources;
  const __m256d c = _mm256_set1_pd(args.c);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d mv[kBlocks];
  for (uint32_t b = 0; b < kBlocks; ++b) {
    mv[b] = _mm256_loadu_pd(args.m + b * 4);
  }
  __m256d diff[kBlocks];
  for (uint32_t b = 0; b < kBlocks; ++b) diff[b] = _mm256_setzero_pd();
  const uint64_t edge_limit = in_offsets[end];
  for (graph::NodeId y = begin; y < end; ++y) {
    __m256d acc[kBlocks];
    for (uint32_t b = 0; b < kBlocks; ++b) acc[b] = _mm256_setzero_pd();
    for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
      if (e + kPrefetchDistance < edge_limit) {
        _mm_prefetch(reinterpret_cast<const char*>(
                         args.scaled +
                         static_cast<uint64_t>(sources[e + kPrefetchDistance]) *
                             K),
                     _MM_HINT_T0);
      }
      const double* row = args.scaled + static_cast<uint64_t>(sources[e]) * K;
      for (uint32_t b = 0; b < kBlocks; ++b) {
        acc[b] = _mm256_add_pd(acc[b], _mm256_loadu_pd(row + b * 4));
      }
    }
    const uint64_t base = static_cast<uint64_t>(y) * K;
    const double* vrow = args.v + base;
    const double* prow = args.p + base;
    double* nrow = args.next + base;
    const __m256d w =
        args.next_scaled != nullptr ? _mm256_set1_pd(args.inv[y])
                                    : _mm256_setzero_pd();
    for (uint32_t b = 0; b < kBlocks; ++b) {
      const __m256d vy = _mm256_loadu_pd(vrow + b * 4);
      const __m256d py = _mm256_loadu_pd(prow + b * 4);
      const __m256d out =
          _mm256_fmadd_pd(vy, mv[b], _mm256_mul_pd(c, acc[b]));
      diff[b] = _mm256_add_pd(
          diff[b],
          _mm256_andnot_pd(sign_mask, _mm256_sub_pd(out, py)));
      _mm256_storeu_pd(nrow + b * 4, out);
      if (args.next_scaled != nullptr) {
        _mm256_storeu_pd(args.next_scaled + base + b * 4,
                         _mm256_mul_pd(out, w));
      }
    }
  }
  for (uint32_t b = 0; b < kBlocks; ++b) {
    _mm256_storeu_pd(diff_slot + b * 4, diff[b]);
  }
}

}  // namespace

SweepRangeFn PickAvx2SweepF64(uint32_t k) {
  switch (k) {
    case 4:
      return Avx2SweepF64<4>;
    case 8:
      return Avx2SweepF64<8>;
    case 16:
      return Avx2SweepF64<16>;
    default:
      return nullptr;
  }
}

}  // namespace spammass::pagerank::simd

#endif  // defined(__x86_64__) || defined(_M_X64)

// Shared sweep-loop body for every (precision, lane-width) variant of the
// multi-RHS Jacobi sweep. kernel.cc instantiates the scalar template for
// the default bit-exact path; simd.cc instantiates the scalar fallbacks for
// the non-default variants; simd_avx2.cc provides hand-vectorized
// overrides registered through simd.h. Keeping the loop in one header
// guarantees every scalar variant computes the exact expressions
// documented in kernel.h — specializations only unroll or vectorize
// element-wise, never reassociate a lane's accumulation order.
//
// No intrinsics live here (spammass_lint.py `simd-isolation` enforces
// that); this header is pure portable C++.

#ifndef SPAMMASS_PAGERANK_SIMD_SWEEP_BODY_H_
#define SPAMMASS_PAGERANK_SIMD_SWEEP_BODY_H_

#include <cmath>
#include <cstdint>

#include "graph/web_graph.h"

namespace spammass::pagerank::simd {

using graph::NodeId;

/// Lane cap shared with kernel.h (static_assert-matched against
/// kernel::kMaxVectorsPerSweep in kernel.cc; redeclared here so the sweep
/// bodies do not need the full kernel header).
inline constexpr uint32_t kMaxSweepLanes = 16;

/// Everything one sweep range needs, precomputed by the kernel entry point
/// so every variant sees identical inputs. Lane j of node x lives at
/// x·k + j in each interleaved array.
template <typename Real>
struct SweepArgs {
  uint32_t k = 1;
  /// In-CSR offsets and source ids.
  const uint64_t* in_offsets = nullptr;
  const NodeId* sources = nullptr;
  /// Inverse out-degrees in the sweep precision (0 for dangling nodes).
  const Real* inv = nullptr;
  /// Jump vectors, interleaved.
  const Real* v = nullptr;
  /// Damping factor c.
  Real c = Real(0);
  /// Hoisted per-lane jump multiplier m[j] = (1−c) + c·dangling[j].
  const Real* m = nullptr;
  const Real* p = nullptr;
  const Real* scaled = nullptr;
  Real* next = nullptr;
  /// Nullable: when set, receives next · inv (the pre-scaled iterate).
  Real* next_scaled = nullptr;
};

/// L1-difference term in double regardless of sweep precision: float
/// variants widen BEFORE subtracting, so the residual the solver compares
/// against the tolerance is a true float64 measurement of the float32
/// iterate (the "float64 residual check" of ROADMAP item 4).
inline double AbsDiff(double a, double b) { return std::abs(a - b); }
inline double AbsDiff(float a, float b) {
  return std::abs(static_cast<double>(a) - static_cast<double>(b));
}

/// Portable sweep over node range [begin, end). K is the compile-time lane
/// count (0 = use args.k for compacted in-between widths). diff_slot[j]
/// receives the range's L1 difference for lane j, accumulated in double.
template <typename Real, uint32_t K>
void ScalarSweepRange(const SweepArgs<Real>& args, double* diff_slot,
                      NodeId begin, NodeId end) {
  const uint32_t lanes = K == 0 ? args.k : K;
  const uint64_t* in_offsets = args.in_offsets;
  const Real c = args.c;
  double diff[kMaxSweepLanes] = {0.0};
  for (NodeId y = begin; y < end; ++y) {
    Real in_sum[kMaxSweepLanes];
    for (uint32_t j = 0; j < lanes; ++j) in_sum[j] = Real(0);
    for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
      const Real* row =
          args.scaled + static_cast<uint64_t>(args.sources[e]) * lanes;
      for (uint32_t j = 0; j < lanes; ++j) in_sum[j] += row[j];
    }
    const Real* vrow = args.v + static_cast<uint64_t>(y) * lanes;
    const Real* prow = args.p + static_cast<uint64_t>(y) * lanes;
    Real* nrow = args.next + static_cast<uint64_t>(y) * lanes;
    if (args.next_scaled != nullptr) {
      const Real w = args.inv[y];
      Real* srow = args.next_scaled + static_cast<uint64_t>(y) * lanes;
      for (uint32_t j = 0; j < lanes; ++j) {
        const Real out = c * in_sum[j] + vrow[j] * args.m[j];
        diff[j] += AbsDiff(out, prow[j]);
        nrow[j] = out;
        srow[j] = out * w;
      }
    } else {
      for (uint32_t j = 0; j < lanes; ++j) {
        const Real out = c * in_sum[j] + vrow[j] * args.m[j];
        diff[j] += AbsDiff(out, prow[j]);
        nrow[j] = out;
      }
    }
  }
  for (uint32_t j = 0; j < lanes; ++j) diff_slot[j] = diff[j];
}

/// Signature every sweep-range implementation (scalar or vectorized)
/// satisfies.
template <typename Real>
using SweepRangeFn = void (*)(const SweepArgs<Real>&, double*, NodeId,
                              NodeId);

}  // namespace spammass::pagerank::simd

#endif  // SPAMMASS_PAGERANK_SIMD_SWEEP_BODY_H_

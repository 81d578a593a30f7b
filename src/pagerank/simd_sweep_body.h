// Shared sweep-loop body for every lane width of the multi-RHS Jacobi
// sweep. simd.cc instantiates the scalar template — the bit-exact
// reference every kernel call without a vector backend runs; simd_avx2.cc
// provides hand-vectorized overrides registered through simd.h. Keeping
// the loop in one header guarantees every scalar width computes the exact
// expressions documented in kernel.h — specializations only unroll or
// vectorize element-wise, never reassociate a lane's accumulation order.
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
struct SweepArgs {
  uint32_t k = 1;
  /// In-CSR offsets and source ids.
  const uint64_t* in_offsets = nullptr;
  const NodeId* sources = nullptr;
  /// Inverse out-degrees (0 for dangling nodes).
  const double* inv = nullptr;
  /// Jump vectors, interleaved.
  const double* v = nullptr;
  /// Damping factor c.
  double c = 0;
  /// Hoisted per-lane jump multiplier m[j] = (1−c) + c·dangling[j].
  const double* m = nullptr;
  const double* p = nullptr;
  const double* scaled = nullptr;
  double* next = nullptr;
  /// Nullable: when set, receives next · inv (the pre-scaled iterate).
  double* next_scaled = nullptr;
};

/// Portable sweep over node range [begin, end). K is the compile-time lane
/// count (0 = use args.k for compacted in-between widths). diff_slot[j]
/// receives the range's L1 difference for lane j.
template <uint32_t K>
void ScalarSweepRange(const SweepArgs& args, double* diff_slot, NodeId begin,
                      NodeId end) {
  const uint32_t lanes = K == 0 ? args.k : K;
  const uint64_t* in_offsets = args.in_offsets;
  const NodeId* sources = args.sources;
  const double* scaled = args.scaled;
  const double c = args.c;
  // Private copy of the jump multipliers: the output stores below could
  // alias args.m, and every worker would otherwise keep re-reading the
  // caller's array.
  double m[kMaxSweepLanes];
  for (uint32_t j = 0; j < lanes; ++j) m[j] = args.m[j];
  double diff[kMaxSweepLanes] = {0.0};
  for (NodeId y = begin; y < end; ++y) {
    double in_sum[kMaxSweepLanes];
    for (uint32_t j = 0; j < lanes; ++j) in_sum[j] = 0.0;
    for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
      const double* row = scaled + static_cast<uint64_t>(sources[e]) * lanes;
      for (uint32_t j = 0; j < lanes; ++j) in_sum[j] += row[j];
    }
    const double* vrow = args.v + static_cast<uint64_t>(y) * lanes;
    const double* prow = args.p + static_cast<uint64_t>(y) * lanes;
    double* nrow = args.next + static_cast<uint64_t>(y) * lanes;
    if (args.next_scaled != nullptr) {
      const double w = args.inv[y];
      double* srow = args.next_scaled + static_cast<uint64_t>(y) * lanes;
      for (uint32_t j = 0; j < lanes; ++j) {
        const double out = c * in_sum[j] + vrow[j] * m[j];
        diff[j] += std::abs(out - prow[j]);
        nrow[j] = out;
        srow[j] = out * w;
      }
    } else {
      for (uint32_t j = 0; j < lanes; ++j) {
        const double out = c * in_sum[j] + vrow[j] * m[j];
        diff[j] += std::abs(out - prow[j]);
        nrow[j] = out;
      }
    }
  }
  for (uint32_t j = 0; j < lanes; ++j) diff_slot[j] = diff[j];
}

/// Signature every sweep-range implementation (scalar or vectorized)
/// satisfies.
using SweepRangeFn = void (*)(const SweepArgs&, double*, NodeId, NodeId);

}  // namespace spammass::pagerank::simd

#endif  // SPAMMASS_PAGERANK_SIMD_SWEEP_BODY_H_

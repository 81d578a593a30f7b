#include "pagerank/kernel.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace spammass::pagerank::kernel {

using graph::NodeId;
using graph::WebGraph;

namespace {

/// Everything one sweep range needs, precomputed by the kernel entry point.
/// Lane j of node x lives at x·k + j in each interleaved array.
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

/// Sweep over node range [begin, end). K is the compile-time lane count
/// (0 = use args.k for compacted in-between widths); every width computes
/// the same per-lane expressions in the same order, so a lane's output
/// never depends on K. diff_slot[j] receives the range's L1 difference for
/// lane j.
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
  double m[kMaxVectorsPerSweep];
  for (uint32_t j = 0; j < lanes; ++j) m[j] = args.m[j];
  double diff[kMaxVectorsPerSweep] = {0.0};
  for (NodeId y = begin; y < end; ++y) {
    double in_sum[kMaxVectorsPerSweep];
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

using SweepRangeFn = void (*)(const SweepArgs&, double*, NodeId, NodeId);

/// Compile-time widths for the batch sizes the solver produces
/// (1/2/4/8/16), with the runtime-k body covering compacted in-between
/// widths.
SweepRangeFn PickSweep(uint32_t k) {
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

uint64_t ChunkSize(uint64_t total) {
  const uint64_t spread = (total + kMaxChunks - 1) / kMaxChunks;
  return std::max(kMinChunkSize, spread);
}

uint64_t NumChunks(uint64_t total) {
  if (total == 0) return 0;
  const uint64_t chunk = ChunkSize(total);
  return (total + chunk - 1) / chunk;
}

void ForEachChunk(
    util::ThreadPool* pool, uint64_t total,
    const std::function<void(uint64_t, uint64_t, uint64_t)>& body) {
  if (total == 0) return;
  const uint64_t chunk = ChunkSize(total);
  if (pool != nullptr) {
    pool->ParallelForChunked(total, chunk, body);
    return;
  }
  const uint64_t chunks = (total + chunk - 1) / chunk;
  for (uint64_t c = 0; c < chunks; ++c) {
    body(c, c * chunk, std::min((c + 1) * chunk, total));
  }
}

double DeterministicSum(
    util::ThreadPool* pool, uint64_t total,
    const std::function<double(uint64_t, uint64_t)>& range_sum,
    std::vector<double>* partials) {
  if (total == 0) return 0.0;
  partials->assign(NumChunks(total), 0.0);
  ForEachChunk(pool, total, [&](uint64_t c, uint64_t begin, uint64_t end) {
    (*partials)[c] = range_sum(begin, end);
  });
  double sum = 0.0;
  for (double partial : *partials) sum += partial;
  return sum;
}

void ScaleByInvOutDegree(const WebGraph& graph, uint32_t k, const double* p,
                         double* scaled, util::ThreadPool* pool) {
  CHECK_GE(k, 1u);
  const double* inv = graph.InvOutDegrees().data();
  ForEachChunk(pool, graph.num_nodes(),
               [&](uint64_t, uint64_t begin, uint64_t end) {
                 for (uint64_t x = begin; x < end; ++x) {
                   const double w = inv[x];
                   const double* in = p + x * k;
                   double* out = scaled + x * k;
                   for (uint32_t j = 0; j < k; ++j) out[j] = in[j] * w;
                 }
               });
}

void DanglingSums(const WebGraph& graph, uint32_t k, const double* p,
                  std::vector<double>* partials, double* sums,
                  util::ThreadPool* pool) {
  CHECK_GE(k, 1u);
  CHECK_LE(k, kMaxVectorsPerSweep);
  const auto dangling = graph.DanglingNodes();
  const uint64_t total = dangling.size();
  for (uint32_t j = 0; j < k; ++j) sums[j] = 0.0;
  if (total == 0) return;
  const uint64_t chunks = NumChunks(total);
  partials->assign(chunks * k, 0.0);
  ForEachChunk(pool, total, [&](uint64_t c, uint64_t begin, uint64_t end) {
    double acc[kMaxVectorsPerSweep] = {0.0};
    for (uint64_t i = begin; i < end; ++i) {
      const double* row = p + static_cast<uint64_t>(dangling[i]) * k;
      for (uint32_t j = 0; j < k; ++j) acc[j] += row[j];
    }
    double* slot = partials->data() + c * k;
    for (uint32_t j = 0; j < k; ++j) slot[j] = acc[j];
  });
  for (uint64_t c = 0; c < chunks; ++c) {
    const double* slot = partials->data() + c * k;
    for (uint32_t j = 0; j < k; ++j) sums[j] += slot[j];
  }
}

void WeightedJacobiSweepMulti(const WebGraph& graph, uint32_t k,
                              const double* v, double damping,
                              const double* dangling, const double* p,
                              const double* scaled, double* next,
                              double* next_scaled,
                              std::vector<double>* partials, double* diffs,
                              util::ThreadPool* pool) {
  CHECK_GE(k, 1u);
  CHECK_LE(k, kMaxVectorsPerSweep);
  // Per-lane jump multiplier, hoisted out of the node loop:
  //   c·(in_sum + vy·d) + (1−c)·vy  =  c·in_sum + vy·((1−c) + c·d).
  // Computed once per call and shared by every chunk, so the
  // reassociation cannot introduce cross-configuration divergence.
  double m[kMaxVectorsPerSweep];
  for (uint32_t j = 0; j < k; ++j) {
    m[j] = (1.0 - damping) + damping * dangling[j];
  }
  SweepArgs args;
  args.k = k;
  args.in_offsets = graph.InOffsets().data();
  args.sources = graph.Sources().data();
  args.inv = graph.InvOutDegrees().data();
  args.v = v;
  args.c = damping;
  args.m = m;
  args.p = p;
  args.scaled = scaled;
  args.next = next;
  args.next_scaled = next_scaled;
  const SweepRangeFn sweep = PickSweep(k);

  const NodeId n = graph.num_nodes();
  const uint64_t chunks = NumChunks(n);
  partials->assign(chunks * k, 0.0);
  ForEachChunk(pool, n, [&](uint64_t c, uint64_t begin, uint64_t end) {
    sweep(args, partials->data() + c * k, static_cast<NodeId>(begin),
          static_cast<NodeId>(end));
  });
  for (uint32_t j = 0; j < k; ++j) diffs[j] = 0.0;
  for (uint64_t c = 0; c < chunks; ++c) {
    const double* slot = partials->data() + c * k;
    for (uint32_t j = 0; j < k; ++j) diffs[j] += slot[j];
  }
}

}  // namespace spammass::pagerank::kernel

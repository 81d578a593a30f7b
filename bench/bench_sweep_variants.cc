// Bandwidth-variant matrix for the multi-RHS sweep: every combination of
// instruction set (scalar vs. the best vector backend) and lane precision
// (f64 vs. mixed f32) at the k=4 lane count the two-solve mass
// estimation plus TrustRank batch actually issues — on a power-law web
// whose working set defeats the last-level cache, so the sweep is
// memory-bound and byte savings translate to wall-clock. Also times the
// locality reorderings (degree-descending, BFS) both as a preprocessing
// cost and as a sweep-speed effect.
//
// Every variant entry carries a `bytes_per_edge` counter: the traffic
// model documented in docs/performance.md (4 successor-id bytes per edge
// plus k lane reads at the storage width).
// tools/bench_to_json.py pairs the entries into speedup ratios and a
// bytes-per-edge reduction for BENCH_solver.json.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_json_main.h"
#include "graph/graph_builder.h"
#include "graph/reorder.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/simd.h"
#include "pagerank/solver.h"
#include "pagerank/workspace.h"
#include "util/logging.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::NodeId;
using graph::ReorderKind;
using graph::WebGraph;
using pagerank::JumpVector;
using pagerank::SimdPolicy;
using pagerank::SweepPrecision;
namespace simd = pagerank::simd;

constexpr uint32_t kLanes = 4;

/// Power-law out-degrees (Zipf-ish source sampling over a shuffled rank
/// order) with uniform targets: a few hub rows with thousands of
/// successors and a long tail of near-dangling nodes, the shape crawls
/// produce.
WebGraph BuildVariantGraph() {
  constexpr uint32_t n = 300'000;
  constexpr uint32_t m = 3'000'000;
  util::Rng rng(4242);
  graph::GraphBuilder b(n);
  for (uint32_t e = 0; e < m; ++e) {
    // Inverse-CDF-style skew: u^5 piles sources onto the high ranks,
    // giving a heavy hub head and a long near-dangling tail.
    const double u = rng.Uniform01();
    const double rank = (n - 1) * (1.0 - u * u * u * u * u);
    auto src = static_cast<NodeId>(rank);
    auto dst = static_cast<NodeId>(rng.UniformIndex(n));
    if (src != dst) b.AddEdge(src, dst);
  }
  return b.Build();
}

const WebGraph& VariantGraph() {
  static WebGraph* graph = new WebGraph(BuildVariantGraph());
  return *graph;
}

/// The k=4 jump batch of a full detection pass: uniform PageRank, the
/// γ-scaled good-core jump, and two alternative-core lanes.
const std::vector<JumpVector>& VariantJumps() {
  static std::vector<JumpVector>* jumps = [] {
    const WebGraph& g = VariantGraph();
    const NodeId n = g.num_nodes();
    auto* v = new std::vector<JumpVector>();
    v->push_back(JumpVector::Uniform(n));
    for (uint32_t j = 0; j < kLanes - 1; ++j) {
      std::vector<NodeId> core;
      for (NodeId x = j; x < n; x += 5 + j) core.push_back(x);
      v->push_back(JumpVector::ScaledCore(n, core, 0.85));
    }
    return v;
  }();
  return *jumps;
}

pagerank::SolverOptions VariantOptions(SimdPolicy simd_policy,
                                       SweepPrecision precision) {
  pagerank::SolverOptions opt;
  opt.method = pagerank::Method::kJacobi;
  opt.tolerance = 1e-10;
  opt.max_iterations = 500;
  opt.simd = simd_policy;
  opt.precision = precision;
  return opt;
}

/// Modelled sweep traffic per edge (docs/performance.md): the successor
/// id plus k lane-value reads at the storage width.
double BytesPerEdge(SweepPrecision precision) {
  const double lane_width =
      precision == SweepPrecision::kMixedF32 ? sizeof(float) : sizeof(double);
  return sizeof(NodeId) + static_cast<double>(kLanes) * lane_width;
}

void RunVariant(benchmark::State& state, SimdPolicy simd_policy,
                SweepPrecision precision) {
  if (simd_policy == SimdPolicy::kAuto &&
      simd::Best() == simd::Level::kScalar) {
    state.SkipWithError("no vector backend on this host");
    return;
  }
  const WebGraph& g = VariantGraph();
  const auto& jumps = VariantJumps();
  const auto opt = VariantOptions(simd_policy, precision);
  pagerank::SolverWorkspace ws;
  int sweeps = 0;
  for (auto _ : state) {
    auto r = pagerank::ComputePageRankMulti(g, jumps, opt, &ws);
    CHECK_OK(r.status());
    sweeps = r.value()[0].iterations;
    benchmark::DoNotOptimize(r.value());
  }
  state.counters["sweeps"] = sweeps;
  state.counters["lanes"] = kLanes;
  state.counters["bytes_per_edge"] = BytesPerEdge(precision);
}

void BM_SweepScalarF64Plain(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kScalar, SweepPrecision::kFloat64);
}
BENCHMARK(BM_SweepScalarF64Plain)->Unit(benchmark::kMillisecond);

void BM_SweepSimdF64Plain(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kAuto, SweepPrecision::kFloat64);
}
BENCHMARK(BM_SweepSimdF64Plain)->Unit(benchmark::kMillisecond);

void BM_SweepScalarF32Plain(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kScalar, SweepPrecision::kMixedF32);
}
BENCHMARK(BM_SweepScalarF32Plain)->Unit(benchmark::kMillisecond);

void BM_SweepSimdF32Plain(benchmark::State& state) {
  RunVariant(state, SimdPolicy::kAuto, SweepPrecision::kMixedF32);
}
BENCHMARK(BM_SweepSimdF32Plain)->Unit(benchmark::kMillisecond);

// ---- Locality reordering: preprocessing cost and sweep effect. ----

void BM_ReorderCompute(benchmark::State& state) {
  const WebGraph& g = VariantGraph();
  const auto kind =
      state.range(0) == 0 ? ReorderKind::kDegreeDesc : ReorderKind::kBfs;
  for (auto _ : state) {
    graph::Reordering r = graph::ComputeReordering(g, kind);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(graph::ReorderKindToString(kind));
}
BENCHMARK(BM_ReorderCompute)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void RunReorderedSweep(benchmark::State& state, ReorderKind kind) {
  static WebGraph* degree_graph = nullptr;
  static WebGraph* bfs_graph = nullptr;
  WebGraph** slot =
      kind == ReorderKind::kDegreeDesc ? &degree_graph : &bfs_graph;
  if (*slot == nullptr) {
    graph::Reordering r = graph::ComputeReordering(VariantGraph(), kind);
    *slot = new WebGraph(graph::ApplyReordering(VariantGraph(), r));
  }
  const WebGraph& g = **slot;
  const auto& jumps = VariantJumps();  // equivariant: timing only
  const auto opt =
      VariantOptions(SimdPolicy::kScalar, SweepPrecision::kFloat64);
  pagerank::SolverWorkspace ws;
  for (auto _ : state) {
    auto r = pagerank::ComputePageRankMulti(g, jumps, opt, &ws);
    CHECK_OK(r.status());
    benchmark::DoNotOptimize(r.value());
  }
  state.SetLabel(graph::ReorderKindToString(kind));
}

void BM_SweepReorderedDegree(benchmark::State& state) {
  RunReorderedSweep(state, ReorderKind::kDegreeDesc);
}
BENCHMARK(BM_SweepReorderedDegree)->Unit(benchmark::kMillisecond);

void BM_SweepReorderedBfs(benchmark::State& state) {
  RunReorderedSweep(state, ReorderKind::kBfs);
}
BENCHMARK(BM_SweepReorderedBfs)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace spammass

SPAMMASS_BENCHMARK_MAIN();

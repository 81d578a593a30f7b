// Node relabelings for the permutation property tests. PageRank, spam mass
// and the verdicts built on them are properties of the graph, not of its
// node numbering: solving a relabeled graph and reading node x's result at
// its new id perm[x] must give back the original answer, up to the change
// in floating-point addition order a different CSR traversal brings.

#ifndef SPAMMASS_TESTS_GRAPH_PERMUTE_TEST_UTIL_H_
#define SPAMMASS_TESTS_GRAPH_PERMUTE_TEST_UTIL_H_

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "util/random.h"

namespace spammass::testutil {

/// A seeded Fisher-Yates shuffle of 0..n-1: perm[old] = new.
inline std::vector<graph::NodeId> SeededPermutation(uint32_t n,
                                                    uint64_t seed) {
  std::vector<graph::NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  util::Rng rng(seed);
  for (uint32_t x = n; x > 1; --x) {
    std::swap(perm[x - 1], perm[rng.UniformIndex(x)]);
  }
  return perm;
}

/// The reversed order: perm[old] = n − 1 − old.
inline std::vector<graph::NodeId> ReversedPermutation(uint32_t n) {
  std::vector<graph::NodeId> perm(n);
  for (uint32_t x = 0; x < n; ++x) perm[x] = n - 1 - x;
  return perm;
}

/// `graph` with node x renamed perm[x], rebuilt through GraphBuilder.
inline graph::WebGraph PermuteGraph(const graph::WebGraph& graph,
                                    const std::vector<graph::NodeId>& perm) {
  graph::GraphBuilder builder(graph.num_nodes());
  for (graph::NodeId x = 0; x < graph.num_nodes(); ++x) {
    for (graph::NodeId y : graph.OutNeighbors(x)) {
      builder.AddEdge(perm[x], perm[y]);
    }
  }
  return builder.Build();
}

}  // namespace spammass::testutil

#endif  // SPAMMASS_TESTS_GRAPH_PERMUTE_TEST_UTIL_H_

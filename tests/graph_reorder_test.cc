// Vertex reordering: permutation/inverse consistency for every kind,
// structural equivalence of the reordered graph (edges relabeled, nothing
// created or lost), host-name carry-over, and the
// property the whole feature rests on — PageRank scores are
// permutation-equivariant, so solving on the reordered graph and mapping
// back through the inverse changes nothing.

#include "graph/reorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_validate.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/solver.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::Reordering;
using graph::ReorderKind;
using graph::WebGraph;

WebGraph MakeGraph(uint32_t n, uint32_t edges, uint64_t seed) {
  util::Rng rng(seed);
  GraphBuilder b(n);
  for (uint32_t e = 0; e < edges; ++e) {
    // Skewed sources so the degree ordering has real work to do.
    auto u = static_cast<NodeId>(rng.UniformIndex(n / 2));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u != v) b.AddEdge(u, v);
  }
  return b.Build();
}

void ExpectValidPermutation(const Reordering& r, uint32_t n) {
  ASSERT_EQ(r.perm.size(), n);
  ASSERT_EQ(r.inverse.size(), n);
  std::vector<bool> seen(n, false);
  for (NodeId x = 0; x < n; ++x) {
    ASSERT_LT(r.perm[x], n);
    EXPECT_FALSE(seen[r.perm[x]]) << "duplicate image " << r.perm[x];
    seen[r.perm[x]] = true;
    EXPECT_EQ(r.inverse[r.perm[x]], x) << "inverse mismatch at " << x;
  }
}

/// The edge set as (old-id, old-id) pairs, from a graph whose IDs are
/// translated through `to_old` (identity for the original graph).
std::set<std::pair<NodeId, NodeId>> EdgeSet(const WebGraph& g,
                                            const std::vector<NodeId>& to_old) {
  std::set<std::pair<NodeId, NodeId>> edges;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    for (NodeId y : g.OutNeighbors(x)) {
      edges.insert({to_old[x], to_old[y]});
    }
  }
  return edges;
}

TEST(ReorderTest, KindStringsRoundTrip) {
  for (ReorderKind kind : {ReorderKind::kNone, ReorderKind::kDegreeDesc,
                           ReorderKind::kBfs, ReorderKind::kRcm}) {
    auto parsed =
        graph::ReorderKindFromString(graph::ReorderKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(graph::ReorderKindFromString("hilbert").ok());
}

TEST(ReorderTest, ComputesValidPermutations) {
  WebGraph g = MakeGraph(400, 2500, /*seed=*/7);
  for (ReorderKind kind : {ReorderKind::kNone, ReorderKind::kDegreeDesc,
                           ReorderKind::kBfs, ReorderKind::kRcm}) {
    Reordering r = graph::ComputeReordering(g, kind);
    ExpectValidPermutation(r, g.num_nodes());
  }
  // kNone is the identity.
  Reordering identity = graph::ComputeReordering(g, ReorderKind::kNone);
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    EXPECT_EQ(identity.perm[x], x);
  }
}

TEST(ReorderTest, DegreeDescSortsByTotalDegree) {
  WebGraph g = MakeGraph(300, 1800, /*seed=*/11);
  Reordering r = graph::ComputeReordering(g, ReorderKind::kDegreeDesc);
  auto total_degree = [&g](NodeId x) {
    return g.OutDegree(x) + g.InDegree(x);
  };
  // inverse is the degree-sorted order: new id 0 holds the hottest node.
  for (NodeId x = 0; x + 1 < g.num_nodes(); ++x) {
    const uint64_t a = total_degree(r.inverse[x]);
    const uint64_t b = total_degree(r.inverse[x + 1]);
    EXPECT_GE(a, b) << "positions " << x << ", " << x + 1;
    if (a == b) {
      // Equal degrees keep ascending original-ID order (determinism).
      EXPECT_LT(r.inverse[x], r.inverse[x + 1]);
    }
  }
}

TEST(ReorderTest, ApplyPreservesStructure) {
  WebGraph g = MakeGraph(350, 2000, /*seed=*/13);
  std::vector<std::string> names(g.num_nodes());
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    names[x] = "host-" + std::to_string(x);
  }
  g.set_host_names(std::move(names));

  std::vector<NodeId> identity(g.num_nodes());
  for (NodeId x = 0; x < g.num_nodes(); ++x) identity[x] = x;

  for (ReorderKind kind :
       {ReorderKind::kDegreeDesc, ReorderKind::kBfs, ReorderKind::kRcm}) {
    Reordering r = graph::ComputeReordering(g, kind);
    WebGraph permuted = graph::ApplyReordering(g, r);
    ASSERT_EQ(permuted.num_nodes(), g.num_nodes());
    ASSERT_EQ(permuted.num_edges(), g.num_edges());
    EXPECT_EQ(EdgeSet(permuted, r.inverse), EdgeSet(g, identity));
    // Names travel with their nodes; the rebuilt graph is well-formed.
    for (NodeId x = 0; x < g.num_nodes(); ++x) {
      EXPECT_EQ(permuted.HostName(x), g.HostName(r.inverse[x]));
    }
    EXPECT_TRUE(graph::ValidateGraph(permuted).ok());
  }
}

TEST(ReorderTest, MapNodeIdsTranslatesBothWays) {
  WebGraph g = MakeGraph(100, 500, /*seed=*/17);
  Reordering r = graph::ComputeReordering(g, ReorderKind::kDegreeDesc);
  std::vector<NodeId> nodes = {0, 13, 50, 99};
  std::vector<NodeId> mapped = graph::MapNodeIds(nodes, r.perm);
  std::vector<NodeId> back = graph::MapNodeIds(mapped, r.inverse);
  EXPECT_EQ(back, nodes);
}

TEST(ReorderTest, PageRankIsPermutationEquivariant) {
  WebGraph g = MakeGraph(500, 3000, /*seed=*/19);
  pagerank::SolverOptions opt;
  opt.method = pagerank::Method::kJacobi;
  opt.tolerance = 1e-12;

  auto base = pagerank::ComputeUniformPageRank(g, opt);
  ASSERT_TRUE(base.ok());

  for (ReorderKind kind :
       {ReorderKind::kDegreeDesc, ReorderKind::kBfs, ReorderKind::kRcm}) {
    Reordering r = graph::ComputeReordering(g, kind);
    WebGraph permuted = graph::ApplyReordering(g, r);
    auto reordered = pagerank::ComputeUniformPageRank(permuted, opt);
    ASSERT_TRUE(reordered.ok());
    for (NodeId x = 0; x < g.num_nodes(); ++x) {
      // Same mathematical system under relabeling; only the CSR traversal
      // order (and hence fp addition order) changes, so near-equality.
      EXPECT_NEAR(base.value().scores[x],
                  reordered.value().scores[r.perm[x]], 1e-10)
          << "node " << x << " kind " << graph::ReorderKindToString(kind);
    }
  }
}

TEST(ReorderTest, BfsKeepsNeighborsClose) {
  // A long path: BFS from the highest-degree node must label the path in
  // contiguous runs, far tighter than crawl order reversed.
  GraphBuilder b(64);
  for (NodeId x = 0; x + 1 < 64; ++x) {
    b.AddEdge(63 - x, 62 - x);  // reversed path, worst-case locality
    b.AddEdge(62 - x, 63 - x);
  }
  WebGraph g = b.Build();
  Reordering r = graph::ComputeReordering(g, ReorderKind::kBfs);
  ExpectValidPermutation(r, g.num_nodes());
  uint64_t total_jump = 0;
  uint64_t edges = 0;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    for (NodeId y : g.OutNeighbors(x)) {
      const auto a = static_cast<int64_t>(r.perm[x]);
      const auto bb = static_cast<int64_t>(r.perm[y]);
      total_jump += static_cast<uint64_t>(a > bb ? a - bb : bb - a);
      ++edges;
    }
  }
  // A BFS order of a path keeps every edge within distance 2.
  EXPECT_LE(total_jump, edges * 2);
}

/// Max |perm[x] − perm[y]| over the (undirected) edges — the bandwidth
/// RCM exists to minimize.
uint64_t Bandwidth(const WebGraph& g, const Reordering& r) {
  uint64_t bandwidth = 0;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    for (NodeId y : g.OutNeighbors(x)) {
      const auto a = static_cast<int64_t>(r.perm[x]);
      const auto b = static_cast<int64_t>(r.perm[y]);
      bandwidth = std::max(
          bandwidth, static_cast<uint64_t>(a > b ? a - b : b - a));
    }
  }
  return bandwidth;
}

TEST(ReorderTest, RcmMinimizesPathBandwidth) {
  // The classic RCM showcase: a path graph presented in scrambled order.
  // Crawl order leaves edges spanning nearly the whole id range; RCM must
  // recover a contiguous labeling (bandwidth 1).
  constexpr NodeId kN = 128;
  GraphBuilder b(kN);
  for (NodeId x = 0; x + 1 < kN; ++x) {
    // Interleave low/high ids along the path for worst-case crawl order.
    const NodeId u = (x % 2 == 0) ? x / 2 : kN - 1 - x / 2;
    const NodeId v = (x % 2 == 0) ? kN - 1 - x / 2 : x / 2 + 1;
    b.AddEdge(u, v);
    b.AddEdge(v, u);
  }
  WebGraph g = b.Build();
  Reordering identity;
  identity.perm.resize(kN);
  identity.inverse.resize(kN);
  for (NodeId x = 0; x < kN; ++x) identity.perm[x] = identity.inverse[x] = x;
  ASSERT_GT(Bandwidth(g, identity), kN / 2);

  Reordering r = graph::ComputeReordering(g, ReorderKind::kRcm);
  ExpectValidPermutation(r, kN);
  EXPECT_EQ(Bandwidth(g, r), 1u);
}

TEST(ReorderTest, RcmImprovesBandwidthOnRandomGraphs) {
  WebGraph g = MakeGraph(500, 1500, /*seed=*/23);
  Reordering identity;
  identity.perm.resize(g.num_nodes());
  identity.inverse.resize(g.num_nodes());
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    identity.perm[x] = identity.inverse[x] = x;
  }
  Reordering r = graph::ComputeReordering(g, ReorderKind::kRcm);
  ExpectValidPermutation(r, g.num_nodes());
  // Sparse random graphs are not band matrices, but RCM should never make
  // the envelope wider than the raw crawl order.
  EXPECT_LE(Bandwidth(g, r), Bandwidth(g, identity));
}

TEST(ReorderTest, RcmIsDeterministicAndCoversAllComponents) {
  // Several disconnected components plus isolated nodes: every node gets
  // exactly one slot, and rebuilding yields the identical permutation.
  GraphBuilder b(60);
  for (NodeId x = 0; x + 1 < 20; ++x) b.AddEdge(x, x + 1);
  for (NodeId x = 25; x + 1 < 40; ++x) b.AddEdge(x + 1, x);
  // Nodes 40..59 isolated.
  WebGraph g = b.Build();
  Reordering a = graph::ComputeReordering(g, ReorderKind::kRcm);
  Reordering b2 = graph::ComputeReordering(g, ReorderKind::kRcm);
  ExpectValidPermutation(a, g.num_nodes());
  EXPECT_EQ(a.perm, b2.perm);
  EXPECT_EQ(a.inverse, b2.inverse);
}

}  // namespace
}  // namespace spammass

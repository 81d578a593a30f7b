// Locality-aware vertex reordering (ROADMAP items 3-4). Crawl-order node
// IDs scatter a sweep's gather stream across the whole score array; both
// orderings here cluster high-traffic nodes so the gathered cache lines
// stay hot. PageRank scores are permutation-equivariant, so
// solving on the reordered graph and mapping IDs back through the inverse
// permutation changes nothing observable (asserted by
// graph_reorder_test.cc / pipeline_variant_equivalence_test.cc).

#ifndef SPAMMASS_GRAPH_REORDER_H_
#define SPAMMASS_GRAPH_REORDER_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/web_graph.h"
#include "util/status.h"

namespace spammass::util {
class ThreadPool;
}  // namespace spammass::util

namespace spammass::graph {

/// Which permutation to apply before solving.
enum class ReorderKind {
  kNone = 0,
  /// Descending total degree (in + out), id-ascending tie-break: hubs —
  /// the nodes every gather touches — pack into the first cache lines.
  kDegreeDesc,
  /// BFS from the highest-degree node over the union adjacency (restarted
  /// per weakly connected component): neighbors land near each other.
  kBfs,
  /// Reverse Cuthill–McKee over the union adjacency: Cuthill–McKee visits
  /// each component from a minimum-degree start, expanding neighbors in
  /// ascending-degree order, and the whole order is reversed — the classic
  /// bandwidth-minimizing permutation. Narrow bandwidth means a sweep's
  /// gather window is a short, mostly-resident slice of the score array.
  kRcm,
};

/// Stable lowercase name ("none", "degree", "bfs", "rcm").
const char* ReorderKindToString(ReorderKind kind);

/// Inverse of ReorderKindToString. Fails with InvalidArgument on unknown
/// names.
util::Result<ReorderKind> ReorderKindFromString(std::string_view name);

/// A node permutation and its inverse. perm[old] = new maps original IDs
/// into the reordered graph; inverse[new] = old maps solver/detector
/// output back to the IDs the host-facing layers report.
struct Reordering {
  std::vector<NodeId> perm;
  std::vector<NodeId> inverse;

  NodeId num_nodes() const { return static_cast<NodeId>(perm.size()); }
};

/// Computes the permutation for `kind` (kNone yields identity). The result
/// is deterministic: no randomness, ties broken by ascending original ID.
Reordering ComputeReordering(const WebGraph& graph, ReorderKind kind);

/// Applies `reordering` to `graph`: node x of the result is node
/// inverse[x] of the input, every adjacency relabeled and re-sorted. Host
/// names follow the permutation. `pool` parallelizes the transpose
/// rebuild.
WebGraph ApplyReordering(const WebGraph& graph, const Reordering& reordering,
                         util::ThreadPool* pool = nullptr);

/// Maps a node list through perm (old IDs -> reordered IDs), preserving
/// order. Also used with `inverse` to translate back.
std::vector<NodeId> MapNodeIds(std::span<const NodeId> nodes,
                               const std::vector<NodeId>& mapping);

}  // namespace spammass::graph

#endif  // SPAMMASS_GRAPH_REORDER_H_

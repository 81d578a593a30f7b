#include "graph/reorder.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_validate.h"
#include "util/debug.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace spammass::graph {

const char* ReorderKindToString(ReorderKind kind) {
  switch (kind) {
    case ReorderKind::kNone:
      return "none";
    case ReorderKind::kDegreeDesc:
      return "degree";
    case ReorderKind::kBfs:
      return "bfs";
    case ReorderKind::kRcm:
      return "rcm";
  }
  return "none";
}

util::Result<ReorderKind> ReorderKindFromString(std::string_view name) {
  if (name == "none") return ReorderKind::kNone;
  if (name == "degree") return ReorderKind::kDegreeDesc;
  if (name == "bfs") return ReorderKind::kBfs;
  if (name == "rcm") return ReorderKind::kRcm;
  return util::Status::InvalidArgument(util::StringPrintf(
      "unknown reordering '%.*s' (want none | degree | bfs | rcm)",
      static_cast<int>(name.size()), name.data()));
}

namespace {

Reordering IdentityReordering(NodeId n) {
  Reordering r;
  r.perm.resize(n);
  r.inverse.resize(n);
  for (NodeId x = 0; x < n; ++x) {
    r.perm[x] = x;
    r.inverse[x] = x;
  }
  return r;
}

Reordering FromInverse(std::vector<NodeId> inverse) {
  Reordering r;
  r.perm.resize(inverse.size());
  for (NodeId pos = 0; pos < inverse.size(); ++pos) {
    r.perm[inverse[pos]] = pos;
  }
  r.inverse = std::move(inverse);
  return r;
}

Reordering DegreeDescReordering(const WebGraph& graph) {
  const NodeId n = graph.num_nodes();
  std::vector<NodeId> order(n);
  for (NodeId x = 0; x < n; ++x) order[x] = x;
  // stable_sort + ascending-id input gives the documented tie-break.
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const uint64_t da =
        static_cast<uint64_t>(graph.OutDegree(a)) + graph.InDegree(a);
    const uint64_t db =
        static_cast<uint64_t>(graph.OutDegree(b)) + graph.InDegree(b);
    return da > db;
  });
  return FromInverse(std::move(order));
}

Reordering BfsReordering(const WebGraph& graph) {
  const NodeId n = graph.num_nodes();
  // Visit order: BFS over the union (out + in) adjacency so link direction
  // does not hide locality; neighbors enqueue in ascending original ID for
  // determinism. Unreached components restart from their highest-degree
  // unvisited node, scanned in one degree-sorted pass.
  const Reordering by_degree = DegreeDescReordering(graph);
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  std::vector<NodeId> queue;
  std::vector<NodeId> merged;
  size_t restart_scan = 0;
  while (order.size() < n) {
    while (restart_scan < n && visited[by_degree.inverse[restart_scan]]) {
      ++restart_scan;
    }
    CHECK_LT(restart_scan, static_cast<size_t>(n));
    const NodeId start = by_degree.inverse[restart_scan];
    visited[start] = true;
    queue.clear();
    queue.push_back(start);
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId x = queue[head];
      order.push_back(x);
      const auto outs = graph.OutNeighbors(x);
      const auto ins = graph.InNeighbors(x);
      merged.clear();
      merged.reserve(outs.size() + ins.size());
      std::merge(outs.begin(), outs.end(), ins.begin(), ins.end(),
                 std::back_inserter(merged));
      for (const NodeId y : merged) {
        if (!visited[y]) {
          visited[y] = true;
          queue.push_back(y);
        }
      }
    }
  }
  return FromInverse(std::move(order));
}

Reordering RcmReordering(const WebGraph& graph) {
  const NodeId n = graph.num_nodes();
  std::vector<uint64_t> degree(n);
  for (NodeId x = 0; x < n; ++x) {
    degree[x] = static_cast<uint64_t>(graph.OutDegree(x)) + graph.InDegree(x);
  }
  // Component starts: minimum-degree unvisited node (lowest ID on ties —
  // stable_sort over ascending-id input), scanned in one sorted pass like
  // BfsReordering's restart scan.
  std::vector<NodeId> restart(n);
  for (NodeId x = 0; x < n; ++x) restart[x] = x;
  std::stable_sort(restart.begin(), restart.end(),
                   [&](NodeId a, NodeId b) { return degree[a] < degree[b]; });

  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  std::vector<NodeId> queue;
  std::vector<NodeId> merged;
  std::vector<NodeId> frontier;
  size_t restart_scan = 0;
  while (order.size() < n) {
    while (restart_scan < n && visited[restart[restart_scan]]) {
      ++restart_scan;
    }
    CHECK_LT(restart_scan, static_cast<size_t>(n));
    const NodeId start = restart[restart_scan];
    visited[start] = true;
    queue.clear();
    queue.push_back(start);
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId x = queue[head];
      order.push_back(x);
      const auto outs = graph.OutNeighbors(x);
      const auto ins = graph.InNeighbors(x);
      merged.clear();
      merged.reserve(outs.size() + ins.size());
      std::merge(outs.begin(), outs.end(), ins.begin(), ins.end(),
                 std::back_inserter(merged));
      // Cuthill–McKee expansion: the unvisited union-neighbors of x enqueue
      // in ascending-degree order, lowest ID on ties (merged is
      // id-ascending and the sort is stable).
      frontier.clear();
      for (const NodeId y : merged) {
        if (!visited[y]) {
          visited[y] = true;
          frontier.push_back(y);
        }
      }
      std::stable_sort(
          frontier.begin(), frontier.end(),
          [&](NodeId a, NodeId b) { return degree[a] < degree[b]; });
      queue.insert(queue.end(), frontier.begin(), frontier.end());
    }
  }
  std::reverse(order.begin(), order.end());
  return FromInverse(std::move(order));
}

}  // namespace

Reordering ComputeReordering(const WebGraph& graph, ReorderKind kind) {
  switch (kind) {
    case ReorderKind::kNone:
      return IdentityReordering(graph.num_nodes());
    case ReorderKind::kDegreeDesc:
      return DegreeDescReordering(graph);
    case ReorderKind::kBfs:
      return BfsReordering(graph);
    case ReorderKind::kRcm:
      return RcmReordering(graph);
  }
  return IdentityReordering(graph.num_nodes());
}

WebGraph ApplyReordering(const WebGraph& graph, const Reordering& reordering,
                         util::ThreadPool* pool) {
  const NodeId n = graph.num_nodes();
  CHECK_EQ(reordering.perm.size(), static_cast<size_t>(n));
  CHECK_EQ(reordering.inverse.size(), static_cast<size_t>(n));
  std::vector<uint64_t> out_offsets(static_cast<size_t>(n) + 1, 0);
  std::vector<NodeId> targets;
  targets.reserve(graph.num_edges());
  std::vector<NodeId> row;
  for (NodeId x = 0; x < n; ++x) {
    const NodeId old = reordering.inverse[x];
    const auto nbrs = graph.OutNeighbors(old);
    row.clear();
    row.reserve(nbrs.size());
    for (const NodeId y : nbrs) row.push_back(reordering.perm[y]);
    std::sort(row.begin(), row.end());
    targets.insert(targets.end(), row.begin(), row.end());
    out_offsets[x + 1] = targets.size();
  }
  WebGraph result =
      WebGraph::FromCsr(n, std::move(out_offsets), std::move(targets), pool);
  if (!graph.host_names().empty()) {
    std::vector<std::string> names(n);
    for (NodeId x = 0; x < n; ++x) {
      names[x] = graph.host_names()[reordering.inverse[x]];
    }
    result.set_host_names(std::move(names));
  }
  DCHECK_OK(ValidateGraph(result));
  return result;
}

std::vector<NodeId> MapNodeIds(std::span<const NodeId> nodes,
                               const std::vector<NodeId>& mapping) {
  std::vector<NodeId> out;
  out.reserve(nodes.size());
  for (const NodeId x : nodes) out.push_back(mapping[x]);
  return out;
}

}  // namespace spammass::graph

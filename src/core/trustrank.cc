#include "core/trustrank.h"

#include <algorithm>
#include <numeric>

#include "pagerank/jump_vector.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace spammass::core {

using graph::NodeId;
using graph::WebGraph;
using pagerank::JumpVector;
using util::Result;
using util::Status;

Result<SeedSelection> SelectTrustRankSeeds(
    const WebGraph& graph, const TrustRankOptions& options,
    const LabelStore* oracle, pagerank::SolverWorkspace* workspace) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  if (oracle != nullptr && oracle->num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument("label store does not match the graph");
  }
  WebGraph reversed = graph.Transposed();
  auto pr = pagerank::ComputeUniformPageRank(reversed, options.solver,
                                             workspace);
  if (!pr.ok()) return pr.status();
  const std::vector<double>& scores = pr.value().scores;
  const auto by_inverse_pagerank = [&scores](NodeId a, NodeId b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };
  std::vector<NodeId> order(graph.num_nodes());
  std::iota(order.begin(), order.end(), 0u);
  const uint32_t take =
      std::min<uint32_t>(options.seed_candidates, graph.num_nodes());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    by_inverse_pagerank);

  SeedSelection selection;
  selection.inverse_solve = pagerank::SolveStats::FromResult(pr.value());
  const bool filter = oracle != nullptr && options.filter_seeds_by_oracle;
  for (uint32_t i = 0; i < take; ++i) {
    if (!filter || oracle->IsGood(order[i])) {
      selection.seeds.push_back(order[i]);
    }
  }
  if (!selection.seeds.empty()) return selection;

  // Every candidate was rejected: walk on down the same order. Only this
  // path sorts past the top `take`, so a successful selection costs
  // nothing extra.
  const uint32_t budget = static_cast<uint32_t>(std::min<uint64_t>(
      uint64_t{kOracleBudgetFactor} * take, graph.num_nodes()));
  std::partial_sort(order.begin() + take, order.begin() + budget,
                    order.end(), by_inverse_pagerank);
  for (uint32_t i = take; i < budget; ++i) {
    if (filter && oracle->IsGood(order[i])) {
      selection.seeds.push_back(order[i]);
      return selection;
    }
  }
  return Status::FailedPrecondition(util::StringPrintf(
      "oracle rejected all %u hosts examined in inverse-PageRank order "
      "(budget %u x seed_candidates); enlarge seed_candidates",
      budget, kOracleBudgetFactor));
}

Result<std::vector<double>> ComputeTrustRank(
    const WebGraph& graph, const std::vector<NodeId>& seeds,
    const pagerank::SolverOptions& solver,
    pagerank::SolverWorkspace* workspace) {
  if (seeds.empty()) {
    return Status::InvalidArgument("TrustRank needs a non-empty seed set");
  }
  for (NodeId s : seeds) {
    if (s >= graph.num_nodes()) {
      return Status::InvalidArgument("seed node id out of range");
    }
  }
  // Uniform jump over the seeds with total mass 1.
  JumpVector v = JumpVector::ScaledCore(graph.num_nodes(), seeds, 1.0);
  auto pr = pagerank::ComputePageRank(graph, v, solver, workspace);
  if (!pr.ok()) return pr.status();
  return std::move(pr.value().scores);
}

Result<TrustRankResult> RunTrustRank(const WebGraph& graph,
                                     const LabelStore& labels,
                                     const TrustRankOptions& options,
                                     pagerank::SolverWorkspace* workspace) {
  if (labels.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument("label store does not match the graph");
  }
  // One workspace (pool + scratch) backs both the inverse-PageRank seed
  // solve and the forward trust solve; workspaces are graph-agnostic, so
  // the transposed and forward graphs can share it.
  pagerank::SolverWorkspace local;
  pagerank::SolverWorkspace* ws = workspace != nullptr ? workspace : &local;
  auto selection = SelectTrustRankSeeds(graph, options, &labels, ws);
  if (!selection.ok()) return selection.status();

  TrustRankResult result;
  result.seeds = std::move(selection.value().seeds);
  auto trust = ComputeTrustRank(graph, result.seeds, options.solver, ws);
  if (!trust.ok()) return trust.status();
  result.trust = std::move(trust.value());
  return result;
}

std::vector<NodeId> RankByTrust(const std::vector<double>& trust) {
  std::vector<NodeId> order(trust.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&trust](NodeId a, NodeId b) {
    return trust[a] > trust[b];
  });
  return order;
}

}  // namespace spammass::core

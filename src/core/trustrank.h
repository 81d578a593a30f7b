// TrustRank (Gyöngyi, Garcia-Molina, Pedersen, VLDB 2004) — the paper's
// predecessor and the natural baseline (Section 5 discusses how spam mass
// complements it). TrustRank propagates trust from a small, high-quality
// seed of good pages via a biased PageRank; pages with low trust relative
// to their PageRank are *demoted*, but — unlike spam mass — spam is never
// explicitly *detected*.

#ifndef SPAMMASS_CORE_TRUSTRANK_H_
#define SPAMMASS_CORE_TRUSTRANK_H_

#include <vector>

#include "core/labels.h"
#include "graph/web_graph.h"
#include "pagerank/solver.h"
#include "util/status.h"

namespace spammass::core {

/// TrustRank configuration.
struct TrustRankOptions {
  pagerank::SolverOptions solver;
  /// Size of the seed set selected by inverse PageRank.
  uint32_t seed_candidates = 50;
  /// Seeds whose oracle label is not good are discarded (the TrustRank
  /// paper has a human oracle inspect the candidate seeds).
  bool filter_seeds_by_oracle = true;
};

/// Result of a TrustRank computation.
struct TrustRankResult {
  /// Seeds that survived oracle filtering (the jump targets).
  std::vector<graph::NodeId> seeds;
  /// Trust scores t = PR(v_seed) with ‖v_seed‖ = 1 over the seeds.
  std::vector<double> trust;
};

/// How far past the top `seed_candidates` the oracle may look when it
/// rejects all of them, as a multiple of `seed_candidates`.
inline constexpr uint32_t kOracleBudgetFactor = 20;

/// Seeds picked by SelectTrustRankSeeds, plus the telemetry of the
/// inverse-PageRank solve that ranked them.
struct SeedSelection {
  std::vector<graph::NodeId> seeds;
  pagerank::SolveStats inverse_solve;
};

/// The one TrustRank seed selector. Ranks nodes by inverse PageRank —
/// PageRank on the transposed graph, so that seeds are pages from which
/// many pages are quickly reachable — in score-descending, id-ascending
/// order, and takes the top `options.seed_candidates` (clamped to n).
/// With a non-null `oracle` and `options.filter_seeds_by_oracle`, the
/// candidates the oracle does not label good are dropped. If it rejects
/// all of them, the oracle keeps inspecting hosts in the same order (as in
/// the TrustRank paper) and the first good one becomes the only seed; the
/// walk stops after kOracleBudgetFactor × seed_candidates hosts in all,
/// and fails with FailedPrecondition naming how many were examined. A
/// null `oracle` keeps every candidate.
util::Result<SeedSelection> SelectTrustRankSeeds(
    const graph::WebGraph& graph, const TrustRankOptions& options,
    const LabelStore* oracle, pagerank::SolverWorkspace* workspace = nullptr);

/// Computes TrustRank with the given explicit seed set: a biased PageRank
/// whose random jump is uniform over the seeds with total mass 1.
util::Result<std::vector<double>> ComputeTrustRank(
    const graph::WebGraph& graph, const std::vector<graph::NodeId>& seeds,
    const pagerank::SolverOptions& solver,
    pagerank::SolverWorkspace* workspace = nullptr);

/// Full pipeline: inverse-PageRank seed selection, oracle filtering against
/// `labels`, then trust propagation. The two PageRank solves (inverse and
/// forward) share one solver workspace — pass `workspace` to extend the
/// reuse across repeated TrustRank runs.
util::Result<TrustRankResult> RunTrustRank(const graph::WebGraph& graph,
                                           const LabelStore& labels,
                                           const TrustRankOptions& options,
                                           pagerank::SolverWorkspace* workspace = nullptr);

/// Demotion-style ranking signal: orders nodes by trust (descending).
/// Spam-mass detection can be compared against "everything below trust
/// percentile q is demoted".
std::vector<graph::NodeId> RankByTrust(const std::vector<double>& trust);

}  // namespace spammass::core

#endif  // SPAMMASS_CORE_TRUSTRANK_H_

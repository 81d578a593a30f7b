// Tests of the TrustRank baseline.

#include "core/trustrank.h"

#include <gtest/gtest.h>

#include <string>

#include "graph/graph_builder.h"
#include "synth/paper_graphs.h"

namespace spammass {
namespace {

using core::ComputeTrustRank;
using core::RankByTrust;
using core::RunTrustRank;
using core::SelectTrustRankSeeds;
using core::TrustRankOptions;
using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;
using pagerank::SolverOptions;

SolverOptions Precise() {
  SolverOptions opt;
  opt.tolerance = 1e-14;
  opt.max_iterations = 5000;
  return opt;
}

TEST(TrustRankTest, TrustFlowsOnlyFromSeeds) {
  auto fig = synth::MakeFigure2Graph();
  auto trust = ComputeTrustRank(fig.graph, {fig.g1}, Precise());
  ASSERT_TRUE(trust.ok());
  // g1 -> g0 -> x is the only trust path.
  EXPECT_GT(trust.value()[fig.g1], 0.0);
  EXPECT_GT(trust.value()[fig.g0], 0.0);
  EXPECT_GT(trust.value()[fig.x], 0.0);
  EXPECT_EQ(trust.value()[fig.s0], 0.0);
  EXPECT_EQ(trust.value()[fig.g2], 0.0);
}

TEST(TrustRankTest, SpamFarmGetsNoTrust) {
  auto fig = synth::MakeFigure2Graph();
  auto trust = ComputeTrustRank(fig.graph, fig.good_core, Precise());
  ASSERT_TRUE(trust.ok());
  for (NodeId s : {fig.s0, fig.s1, fig.s5, fig.s6}) {
    EXPECT_EQ(trust.value()[s], 0.0);
  }
}

TEST(TrustRankTest, EmptySeedsRejected) {
  auto fig = synth::MakeFigure2Graph();
  EXPECT_FALSE(ComputeTrustRank(fig.graph, {}, Precise()).ok());
}

TEST(TrustRankTest, OutOfRangeSeedRejected) {
  auto fig = synth::MakeFigure2Graph();
  EXPECT_FALSE(ComputeTrustRank(fig.graph, {999}, Precise()).ok());
}

TEST(TrustRankTest, InversePageRankPrefersBroadReach) {
  // Star: node 0 links to everyone; on the transposed graph every node
  // links to 0, so 0 dominates inverse PageRank.
  GraphBuilder b(6);
  for (NodeId i = 1; i < 6; ++i) b.AddEdge(0, i);
  WebGraph g = b.Build();
  TrustRankOptions options;
  options.solver = Precise();
  options.seed_candidates = 2;
  auto selection = SelectTrustRankSeeds(g, options, nullptr);
  ASSERT_TRUE(selection.ok());
  ASSERT_EQ(selection.value().seeds.size(), 2u);
  EXPECT_EQ(selection.value().seeds[0], 0u);
}

TEST(TrustRankTest, SeedCountClampedToGraph) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  WebGraph g = b.Build();
  TrustRankOptions options;
  options.solver = Precise();
  options.seed_candidates = 100;
  auto selection = SelectTrustRankSeeds(g, options, nullptr);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection.value().seeds.size(), 3u);
}

TEST(TrustRankTest, OracleFiltersSpamSeeds) {
  auto fig = synth::MakeFigure1Graph(30);
  TrustRankOptions options;
  options.solver = Precise();
  options.seed_candidates = 4;
  auto result = RunTrustRank(fig.graph, fig.labels, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (NodeId s : result.value().seeds) {
    EXPECT_TRUE(fig.labels.IsGood(s)) << "seed " << s;
  }
}

// 25 spam hubs (0..24) each link to the 30 leaves 30..59, so on the
// transposed graph they outrank everything; the one good host, 25, links
// to three leaves and ranks 26th. Every other node is spam.
struct AllSpamTopWeb {
  WebGraph graph;
  core::LabelStore labels;
};

AllSpamTopWeb MakeAllSpamTopWeb() {
  GraphBuilder b(60);
  for (NodeId hub = 0; hub < 25; ++hub) {
    for (NodeId leaf = 30; leaf < 60; ++leaf) b.AddEdge(hub, leaf);
  }
  for (NodeId leaf = 30; leaf < 33; ++leaf) b.AddEdge(25, leaf);
  AllSpamTopWeb web{b.Build(), core::LabelStore(60)};
  for (NodeId x = 0; x < 60; ++x) {
    if (x != 25) web.labels.Set(x, core::NodeLabel::kSpam);
  }
  return web;
}

TEST(TrustRankTest, OracleWalksPastAllSpamCandidates) {
  AllSpamTopWeb web = MakeAllSpamTopWeb();
  TrustRankOptions options;
  options.solver = Precise();
  options.seed_candidates = 2;  // budget 40 reaches rank 26
  auto selection = SelectTrustRankSeeds(web.graph, options, &web.labels);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  EXPECT_EQ(selection.value().seeds, (std::vector<NodeId>{25}));
  EXPECT_TRUE(selection.value().inverse_solve.converged);

  auto result = RunTrustRank(web.graph, web.labels, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().seeds, (std::vector<NodeId>{25}));

  // Without an oracle the top candidates are kept as they are.
  auto unfiltered = SelectTrustRankSeeds(web.graph, options, nullptr);
  ASSERT_TRUE(unfiltered.ok());
  EXPECT_EQ(unfiltered.value().seeds, (std::vector<NodeId>{0, 1}));
}

TEST(TrustRankTest, OracleBudgetExhaustedNamesHostsExamined) {
  AllSpamTopWeb web = MakeAllSpamTopWeb();
  TrustRankOptions options;
  options.solver = Precise();
  options.seed_candidates = 1;  // budget 20 stops short of rank 26
  auto selection = SelectTrustRankSeeds(web.graph, options, &web.labels);
  ASSERT_FALSE(selection.ok());
  EXPECT_EQ(selection.status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_NE(selection.status().ToString().find("all 20 hosts examined"),
            std::string::npos)
      << selection.status().ToString();
  EXPECT_FALSE(RunTrustRank(web.graph, web.labels, options).ok());
}

TEST(TrustRankTest, RankByTrustDescending) {
  auto order = RankByTrust({0.1, 0.5, 0.3});
  EXPECT_EQ(order, (std::vector<NodeId>{1, 2, 0}));
}

TEST(TrustRankTest, DemotionVsDetectionOnFigure2) {
  // TrustRank demotes the farm (low trust) but cannot *detect* it: good
  // nodes outside the trust flow (g2's subtree when only g1 seeds) look
  // identical to spam. Spam mass separates them (Section 5).
  auto fig = synth::MakeFigure2Graph();
  auto trust = ComputeTrustRank(fig.graph, {fig.g1}, Precise());
  ASSERT_TRUE(trust.ok());
  EXPECT_EQ(trust.value()[fig.s0], trust.value()[fig.g3]);  // both zero
}

}  // namespace
}  // namespace spammass

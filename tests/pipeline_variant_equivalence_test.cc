// End-to-end solver equivalence: the Figure-4-style detection outcome —
// who is flagged, which candidates surface, their ordering — must be
// identical for Gauss-Seidel and for Jacobi at any thread count, because
// the solver is a numerical choice, not a model change. Also the
// permutation-invariance property test: spam mass, relative mass and the
// Algorithm 2 verdicts are invariant under a seeded shuffle and the
// reversal of the node order for Jacobi and Gauss-Seidel at 1 and 4
// threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/spam_mass.h"
#include "graph_permute_test_util.h"
#include "pagerank/solver.h"
#include "pipeline/context.h"
#include "pipeline/graph_source.h"
#include "pipeline/pipeline.h"

namespace spammass {
namespace {

using graph::NodeId;
using graph::WebGraph;

pipeline::PipelineConfig BaseConfig() {
  pipeline::PipelineConfig config;
  config.solver.method = pagerank::Method::kJacobi;
  config.solver.tolerance = 1e-12;
  config.solver.max_iterations = 500;
  return config;
}

util::Result<pipeline::PipelineRun> RunScenario(
    const pipeline::PipelineConfig& config) {
  pipeline::GraphSource source = pipeline::GraphSource::Scenario(0.03, 17);
  // spam_mass only: its verdicts are threshold tests with a margin this
  // suite asserts, so exact equality across variants is well-defined.
  // Rank-cutoff detectors (TrustRank demotion) can legitimately flip on
  // tolerance-level score differences and are out of scope here.
  return pipeline::RunDetectors(source, config, {"spam_mass"});
}

void ExpectSameVerdicts(const pipeline::PipelineRun& want,
                        const pipeline::PipelineRun& got,
                        const std::string& label) {
  ASSERT_EQ(want.detectors.size(), got.detectors.size()) << label;
  for (size_t d = 0; d < want.detectors.size(); ++d) {
    const pipeline::DetectorOutput& a = want.detectors[d];
    const pipeline::DetectorOutput& b = got.detectors[d];
    EXPECT_EQ(a.detector, b.detector) << label;
    EXPECT_EQ(a.flagged_count, b.flagged_count) << label;
    ASSERT_EQ(a.flagged.size(), b.flagged.size()) << label;
    for (size_t x = 0; x < a.flagged.size(); ++x) {
      EXPECT_EQ(a.flagged[x], b.flagged[x])
          << label << " detector " << a.detector << " node " << x;
    }
    ASSERT_EQ(a.candidates.size(), b.candidates.size()) << label;
    for (size_t i = 0; i < a.candidates.size(); ++i) {
      EXPECT_EQ(a.candidates[i].node, b.candidates[i].node)
          << label << " candidate " << i;
      EXPECT_NEAR(a.candidates[i].relative_mass,
                  b.candidates[i].relative_mass, 1e-6)
          << label << " candidate " << i;
    }
  }
}

TEST(PipelineVariantEquivalenceTest, BaselineVerdictMarginsAreRobust) {
  // Guard for this whole suite: every candidate's relative mass must sit a
  // safe distance from the τ threshold, so tolerance-level perturbations
  // (solver method, fp addition order) cannot flip a
  // verdict and the exact-equality assertions below are meaningful.
  pipeline::PipelineConfig config = BaseConfig();
  auto run = RunScenario(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const double tau = config.detection.relative_mass_threshold;
  const double rho = config.detection.scaled_pagerank_threshold;
  double min_tau_margin = 1.0;
  double min_rho_margin = 1.0;
  size_t counted = 0;
  for (const auto& detector : run.value().detectors) {
    for (const auto& candidate : detector.candidates) {
      min_tau_margin = std::min(min_tau_margin,
                                std::abs(candidate.relative_mass - tau));
      min_rho_margin = std::min(
          min_rho_margin, std::abs(candidate.scaled_pagerank - rho));
      ++counted;
    }
  }
  ASSERT_GT(counted, 0u);
  EXPECT_GT(min_tau_margin, 1e-6) << "verdicts too close to tau for the "
                                     "variant-equality assertions to be "
                                     "sound";
  EXPECT_GT(min_rho_margin, 1e-5) << "candidates too close to rho";
}

TEST(PipelineVariantEquivalenceTest, SweepVariantsPreserveDetection) {
  // Gauss-Seidel (the CLI default) is the reference; Jacobi on 1 and 4
  // threads must flag the same hosts.
  pipeline::PipelineConfig gauss_seidel = BaseConfig();
  gauss_seidel.solver.method = pagerank::Method::kGaussSeidel;
  auto baseline = RunScenario(gauss_seidel);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (uint32_t threads : {1u, 4u}) {
    pipeline::PipelineConfig config = BaseConfig();
    config.solver.num_threads = threads;
    auto run = RunScenario(config);
    const std::string label =
        "jacobi, " + std::to_string(threads) + " threads";
    ASSERT_TRUE(run.ok()) << label << ": " << run.status().ToString();
    ExpectSameVerdicts(baseline.value(), run.value(), label);
  }
}

TEST(PipelineVariantEquivalenceTest, ManifestEchoesVariantConfig) {
  pipeline::PipelineConfig config = BaseConfig();
  config.solver.num_threads = 3;
  auto run = RunScenario(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string& json = run.value().manifest_json;
  for (const char* needle : {"\"method\":\"jacobi\"", "\"num_threads\":3"}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "manifest missing " << needle << "\n" << json;
  }
  // The sweep has no instruction-set option any more.
  EXPECT_EQ(json.find("\"simd\""), std::string::npos) << json;
}

// ---- Permutation-invariance property test (core level) ------------------

struct PermCase {
  pagerank::Method method;
  uint32_t threads;
};

class MassPermutationInvarianceTest
    : public ::testing::TestWithParam<PermCase> {};

TEST_P(MassPermutationInvarianceTest, MassAndVerdictsInvariant) {
  pipeline::GraphSource source = pipeline::GraphSource::Scenario(0.03, 23);
  auto loaded = source.Load();
  ASSERT_TRUE(loaded.ok());
  const WebGraph& g = loaded.value().graph();
  const uint32_t n = g.num_nodes();

  core::SpamMassOptions options;
  options.solver.method = GetParam().method;
  options.solver.num_threads = GetParam().threads;
  options.solver.tolerance = 1e-12;
  options.solver.max_iterations = 500;
  options.gamma = 0.8;
  auto base =
      core::EstimateSpamMass(g, loaded.value().good_core, options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const core::DetectorConfig detection;
  const std::vector<core::SpamCandidate> base_flagged =
      core::DetectSpamCandidates(base.value(), detection);
  ASSERT_FALSE(base_flagged.empty());

  const std::pair<std::string, std::vector<NodeId>> permutations[] = {
      {"random", testutil::SeededPermutation(n, /*seed=*/99)},
      {"reversed", testutil::ReversedPermutation(n)},
  };
  for (const auto& [label, perm] : permutations) {
    WebGraph permuted = testutil::PermuteGraph(g, perm);
    std::vector<NodeId> permuted_core;
    for (NodeId x : loaded.value().good_core) permuted_core.push_back(perm[x]);
    std::sort(permuted_core.begin(), permuted_core.end());
    auto got = core::EstimateSpamMass(permuted, permuted_core, options);
    ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
    for (NodeId x = 0; x < n; ++x) {
      const NodeId y = perm[x];
      EXPECT_NEAR(base.value().relative_mass[x],
                  got.value().relative_mass[y], 1e-6)
          << label << " node " << x;
      EXPECT_NEAR(base.value().absolute_mass[x],
                  got.value().absolute_mass[y], 1e-10)
          << label << " node " << x;
    }
    // Algorithm 2 flags the same hosts, up to the relabelling.
    std::vector<NodeId> want;
    for (const core::SpamCandidate& c : base_flagged) {
      want.push_back(perm[c.node]);
    }
    std::vector<NodeId> flagged;
    for (const core::SpamCandidate& c :
         core::DetectSpamCandidates(got.value(), detection)) {
      flagged.push_back(c.node);
    }
    std::sort(want.begin(), want.end());
    std::sort(flagged.begin(), flagged.end());
    EXPECT_EQ(want, flagged) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndThreads, MassPermutationInvarianceTest,
    ::testing::Values(PermCase{pagerank::Method::kJacobi, 1},
                      PermCase{pagerank::Method::kJacobi, 4},
                      PermCase{pagerank::Method::kGaussSeidel, 1},
                      PermCase{pagerank::Method::kGaussSeidel, 4}),
    [](const ::testing::TestParamInfo<PermCase>& info) {
      return std::string(info.param.method == pagerank::Method::kJacobi
                             ? "Jacobi"
                             : "GaussSeidel") +
             std::to_string(info.param.threads) + "Threads";
    });

}  // namespace
}  // namespace spammass

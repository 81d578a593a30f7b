// Sweep determinism checks for the one float64 Jacobi sweep:
//   * the fused multi-RHS solve is bit-identical across thread counts
//     (the deterministic chunked reductions never depend on the pool),
//   * repeated solves with the same options are bitwise reproducible.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/solver.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;
using pagerank::JumpVector;
using pagerank::Method;
using pagerank::SolverOptions;

WebGraph MakeGraph(uint32_t n, uint32_t edges, uint64_t seed) {
  util::Rng rng(seed);
  GraphBuilder b(n);
  for (uint32_t e = 0; e < edges; ++e) {
    auto u = static_cast<NodeId>(rng.UniformIndex(n * 3 / 4));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u != v) b.AddEdge(u, v);
  }
  return b.Build();
}

std::vector<JumpVector> MakeJumps(uint32_t n, uint32_t k, uint64_t seed) {
  std::vector<JumpVector> jumps;
  jumps.push_back(JumpVector::Uniform(n));
  util::Rng rng(seed);
  for (uint32_t j = 1; j < k; ++j) {
    std::vector<double> v(n);
    double norm = 0;
    for (double& x : v) {
      x = rng.Uniform01();
      norm += x;
    }
    for (double& x : v) x /= norm;
    jumps.push_back(JumpVector::FromDense(std::move(v)));
  }
  return jumps;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

class SweepVariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = MakeGraph(900, 5400, /*seed=*/101);
    jumps_ = MakeJumps(graph_.num_nodes(), 4, /*seed=*/5);
  }

  SolverOptions BaseOptions() {
    SolverOptions opt;
    opt.method = Method::kJacobi;
    opt.tolerance = 1e-12;
    opt.max_iterations = 300;
    return opt;
  }

  std::vector<std::vector<double>> Solve(const WebGraph& g,
                                         const SolverOptions& opt) {
    auto results = pagerank::ComputePageRankMulti(g, jumps_, opt);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    std::vector<std::vector<double>> scores;
    for (auto& r : results.value()) {
      EXPECT_TRUE(r.converged);
      scores.push_back(std::move(r.scores));
    }
    return scores;
  }

  WebGraph graph_;
  std::vector<JumpVector> jumps_;
};

TEST_F(SweepVariantTest, EveryVariantThreadCountDeterministic) {
  SolverOptions opt = BaseOptions();
  opt.num_threads = 1;
  auto serial = Solve(graph_, opt);
  for (uint32_t threads : {2u, 4u, 8u}) {
    opt.num_threads = threads;
    auto parallel = Solve(graph_, opt);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t j = 0; j < serial.size(); ++j) {
      EXPECT_TRUE(BitIdentical(serial[j], parallel[j]))
          << "lane " << j << " threads " << threads;
    }
  }
}

TEST_F(SweepVariantTest, DefaultOptionsUnchangedByVariantMachinery) {
  // A solve through the default options must be bitwise reproducible
  // call over call (no hidden state carried between solves).
  SolverOptions opt = BaseOptions();
  auto a = Solve(graph_, opt);
  auto b = Solve(graph_, opt);
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_TRUE(BitIdentical(a[j], b[j])) << "lane " << j;
  }
}

}  // namespace
}  // namespace spammass

// Sweep-variant validation matrix. The default configuration (scalar
// instruction set) is the bit-exact reference; this suite pins the
// vectorized sweep against it:
//   * vectorized sweeps preserve per-lane accumulation order and may
//     differ only by FMA contraction — near-equality with a tight bound,
//   * every variant stays bit-identical to ITSELF across thread counts
//     (the deterministic chunked reductions are variant-independent),
//   * invalid option combinations fail validation up front.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "pagerank/jump_vector.h"
#include "pagerank/kernel.h"
#include "pagerank/simd.h"
#include "pagerank/solver.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;
using pagerank::JumpVector;
using pagerank::Method;
using pagerank::SimdPolicy;
using pagerank::SolverOptions;
namespace simd = pagerank::simd;

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

TEST_F(SweepVariantTest, SimdMatchesScalarWithinFmaTolerance) {
  if (simd::Best() == simd::Level::kScalar) {
    GTEST_SKIP() << "host has no vector backend";
  }
  SolverOptions ref = BaseOptions();
  auto want = Solve(graph_, ref);
  SolverOptions vec = BaseOptions();
  vec.simd = SimdPolicy::kAuto;
  auto got = Solve(graph_, vec);
  ASSERT_EQ(want.size(), got.size());
  for (size_t j = 0; j < want.size(); ++j) {
    for (size_t x = 0; x < want[j].size(); ++x) {
      // Same accumulation order; only FMA contraction differs.
      EXPECT_NEAR(got[j][x], want[j][x], 1e-9)
          << "lane " << j << " node " << x;
    }
  }
}

TEST_F(SweepVariantTest, EveryVariantThreadCountDeterministic) {
  for (SimdPolicy policy : {SimdPolicy::kScalar, SimdPolicy::kAuto}) {
    SolverOptions opt = BaseOptions();
    opt.simd = policy;
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
}

TEST_F(SweepVariantTest, DefaultOptionsUnchangedByVariantMachinery) {
  // The default-constructed options ARE the reference variant; a solve
  // through them must be bitwise reproducible call over call (no hidden
  // state from the variant plumbing).
  SolverOptions opt = BaseOptions();
  auto a = Solve(graph_, opt);
  auto b = Solve(graph_, opt);
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_TRUE(BitIdentical(a[j], b[j])) << "lane " << j;
  }
}

TEST_F(SweepVariantTest, PowerIterationSupportsVariants) {
  SolverOptions ref = BaseOptions();
  ref.method = Method::kPowerIteration;
  ref.tolerance = 1e-12;
  auto want = pagerank::ComputeUniformPageRank(graph_, ref);
  ASSERT_TRUE(want.ok());

  if (simd::Best() != simd::Level::kScalar) {
    SolverOptions vec = ref;
    vec.simd = SimdPolicy::kAuto;
    auto vec_got = pagerank::ComputeUniformPageRank(graph_, vec);
    ASSERT_TRUE(vec_got.ok());
    for (size_t x = 0; x < want.value().scores.size(); ++x) {
      EXPECT_NEAR(vec_got.value().scores[x], want.value().scores[x], 1e-9);
    }
  }
}

TEST_F(SweepVariantTest, InvalidCombinationsRejected) {
  JumpVector v = JumpVector::Uniform(graph_.num_nodes());

  // Forcing a level the host lacks fails; kAuto never does. AVX2 is the
  // only forcible vector level, so the check runs only where it is absent.
  if (!simd::IsSupported(simd::Level::kAvx2)) {
    SolverOptions forced = BaseOptions();
    forced.simd = SimdPolicy::kAvx2;
    auto rejected = pagerank::ComputePageRank(graph_, v, forced);
    EXPECT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);
  }

  SolverOptions auto_ok = BaseOptions();
  auto_ok.simd = SimdPolicy::kAuto;
  EXPECT_TRUE(pagerank::ComputePageRank(graph_, v, auto_ok).ok());
}

TEST_F(SweepVariantTest, StringConversionsRoundTrip) {
  for (SimdPolicy policy :
       {SimdPolicy::kScalar, SimdPolicy::kAuto, SimdPolicy::kAvx2}) {
    auto parsed =
        pagerank::SimdPolicyFromString(pagerank::SimdPolicyToString(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), policy);
  }
  EXPECT_FALSE(pagerank::SimdPolicyFromString("avx512").ok());
  EXPECT_FALSE(pagerank::SimdPolicyFromString("neon").ok());
}

}  // namespace
}  // namespace spammass

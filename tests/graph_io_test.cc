// Round-trip and error-path tests of graph (de)serialization, including
// v1 -> v2 binary migration and corruption handling of the v2 container.

#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "graph/graph_builder.h"
#include "temp_dir_test_util.h"
#include "util/checksum.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testutil::TestTempPath(name);
  }

  WebGraph SampleGraph() {
    GraphBuilder b(5);
    b.AddEdge(0, 1);
    b.AddEdge(0, 2);
    b.AddEdge(2, 3);
    b.AddEdge(3, 0);
    // Node 4 is isolated — round trips must preserve it.
    return b.Build();
  }

  void ExpectSameStructure(const WebGraph& a, const WebGraph& b) {
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    ASSERT_EQ(a.num_edges(), b.num_edges());
    for (NodeId x = 0; x < a.num_nodes(); ++x) {
      auto na = a.OutNeighbors(x);
      auto nb = b.OutNeighbors(x);
      ASSERT_EQ(na.size(), nb.size()) << "node " << x;
      EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin()));
    }
  }
};

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  WebGraph g = SampleGraph();
  std::string path = TempPath("edges.txt");
  ASSERT_TRUE(graph::WriteEdgeListText(g, path).ok());
  auto loaded = graph::ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameStructure(g, loaded.value());
}

TEST_F(GraphIoTest, BinaryRoundTrip) {
  WebGraph g = SampleGraph();
  std::string path = TempPath("graph.bin");
  ASSERT_TRUE(graph::WriteBinary(g, path).ok());
  auto loaded = graph::ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameStructure(g, loaded.value());
}

TEST_F(GraphIoTest, EdgeListSkipsCommentsAndBlankLines) {
  std::string path = TempPath("comments.txt");
  {
    std::ofstream f(path);
    f << "# a comment\n\n0 1\n\n# another\n1 2\n";
  }
  auto loaded = graph::ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), 3u);
  EXPECT_EQ(loaded.value().num_edges(), 2u);
}

TEST_F(GraphIoTest, EdgeListNormalizesDuplicatesAndSelfLoops) {
  std::string path = TempPath("dirty.txt");
  {
    std::ofstream f(path);
    f << "0 1\n0 1\n1 1\n1 0\n";
  }
  auto loaded = graph::ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_edges(), 2u);  // 0->1 and 1->0
}

TEST_F(GraphIoTest, EdgeListRejectsMalformedLines) {
  std::string path = TempPath("bad.txt");
  {
    std::ofstream f(path);
    f << "0 1 2\n";
  }
  EXPECT_FALSE(graph::ReadEdgeListText(path).ok());

  {
    std::ofstream f(path);
    f << "zero one\n";
  }
  EXPECT_FALSE(graph::ReadEdgeListText(path).ok());
}

TEST_F(GraphIoTest, MissingFileReported) {
  auto r = graph::ReadEdgeListText(TempPath("does-not-exist.txt"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kIoError);
}

TEST_F(GraphIoTest, BinaryRejectsCorruptMagic) {
  std::string path = TempPath("corrupt.bin");
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOPE-not-a-graph";
  }
  EXPECT_FALSE(graph::ReadBinary(path).ok());
}

TEST_F(GraphIoTest, BinaryRejectsTruncation) {
  WebGraph g = SampleGraph();
  std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(graph::WriteBinary(g, path).ok());
  // Chop the tail off.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 6));
  }
  EXPECT_FALSE(graph::ReadBinary(path).ok());
}

TEST_F(GraphIoTest, HostNamesRoundTrip) {
  GraphBuilder b;
  NodeId a = b.AddNode("alpha.example.com");
  NodeId c = b.AddNode("beta.example.org");
  b.AddEdge(a, c);
  WebGraph g = b.Build();
  std::string path = TempPath("hosts.tsv");
  ASSERT_TRUE(graph::WriteHostNames(g, path).ok());

  GraphBuilder b2(2);
  b2.AddEdge(0, 1);
  WebGraph g2 = b2.Build();
  ASSERT_TRUE(graph::ReadHostNames(path, &g2).ok());
  EXPECT_EQ(g2.HostName(0), "alpha.example.com");
  EXPECT_EQ(g2.HostName(1), "beta.example.org");
}

TEST_F(GraphIoTest, BinaryV1MigrationStillReadable) {
  WebGraph g = SampleGraph();
  std::string path = TempPath("graph_v1.bin");
  ASSERT_TRUE(graph::WriteBinaryV1(g, path).ok());
  auto loaded = graph::ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameStructure(g, loaded.value());
}

TEST_F(GraphIoTest, BinaryV1V2Equivalence) {
  WebGraph g = SampleGraph();
  std::string v1_path = TempPath("equiv_v1.bin");
  std::string v2_path = TempPath("equiv_v2.bin");
  ASSERT_TRUE(graph::WriteBinaryV1(g, v1_path).ok());
  ASSERT_TRUE(graph::WriteBinary(g, v2_path).ok());
  auto from_v1 = graph::ReadBinary(v1_path);
  auto from_v2 = graph::ReadBinary(v2_path);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  ExpectSameStructure(from_v1.value(), from_v2.value());
  ExpectSameStructure(g, from_v2.value());
}

TEST_F(GraphIoTest, BinaryV2HostNamesRoundTrip) {
  GraphBuilder b;
  NodeId x = b.AddNode("alpha.example.com");
  NodeId y = b.AddNode("");  // Empty names must survive the blob encoding.
  NodeId z = b.AddNode("gamma.example.org");
  b.AddEdge(x, y);
  b.AddEdge(y, z);
  WebGraph g = b.Build();
  std::string path = TempPath("named_v2.bin");
  ASSERT_TRUE(graph::WriteBinary(g, path).ok());
  auto loaded = graph::ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameStructure(g, loaded.value());
  EXPECT_EQ(loaded.value().HostName(x), "alpha.example.com");
  EXPECT_EQ(loaded.value().HostName(y), "");
  EXPECT_EQ(loaded.value().HostName(z), "gamma.example.org");
}

TEST_F(GraphIoTest, BinaryV2ParallelLoadMatchesSerial) {
  util::Rng rng(123);
  GraphBuilder b(5000);
  for (int e = 0; e < 40000; ++e) {
    auto u = static_cast<NodeId>(rng.UniformIndex(5000));
    auto v = static_cast<NodeId>(rng.UniformIndex(5000));
    if (u != v) b.AddEdge(u, v);
  }
  WebGraph g = b.Build();
  std::string path = TempPath("parallel_load.bin");
  ASSERT_TRUE(graph::WriteBinary(g, path).ok());
  auto serial = graph::ReadBinary(path);
  util::ThreadPool pool(4);
  auto parallel = graph::ReadBinary(path, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectSameStructure(serial.value(), parallel.value());
  ASSERT_EQ(serial.value().InOffsets().size(),
            parallel.value().InOffsets().size());
  EXPECT_TRUE(std::equal(serial.value().Sources().begin(),
                         serial.value().Sources().end(),
                         parallel.value().Sources().begin()));
}

TEST_F(GraphIoTest, BinaryV2RandomGraphRoundTripProperty) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed);
    const NodeId n = static_cast<NodeId>(20 + rng.UniformIndex(200));
    GraphBuilder b(n);
    const uint64_t edges = rng.UniformIndex(4 * n);
    for (uint64_t e = 0; e < edges; ++e) {
      auto u = static_cast<NodeId>(rng.UniformIndex(n));
      auto v = static_cast<NodeId>(rng.UniformIndex(n));
      if (u != v) b.AddEdge(u, v);
    }
    WebGraph g = b.Build();
    std::string path = TempPath("prop.bin");
    ASSERT_TRUE(graph::WriteBinary(g, path).ok());
    auto loaded = graph::ReadBinary(path);
    ASSERT_TRUE(loaded.ok()) << "seed " << seed << ": "
                             << loaded.status().ToString();
    ExpectSameStructure(g, loaded.value());
  }
}

class GraphIoCorruptionTest : public GraphIoTest {
 protected:
  // Writes SampleGraph as v2 and returns the raw bytes.
  std::string WriteSampleV2(const std::string& path) {
    WebGraph g = SampleGraph();
    EXPECT_TRUE(graph::WriteBinary(g, path).ok());
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void WriteBytes(const std::string& path, const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Recomputes the trailing whole-file checksum so structural corruption
  // is exercised separately from checksum detection.
  void FixChecksum(std::string* bytes) {
    ASSERT_GE(bytes->size(), 8u);
    uint64_t digest =
        util::Fnv1a64x8Digest(bytes->data(), bytes->size() - 8);
    std::memcpy(bytes->data() + bytes->size() - 8, &digest, sizeof(digest));
  }
};

TEST_F(GraphIoCorruptionTest, TruncationAtEveryRegionRejected) {
  std::string path = TempPath("trunc_v2.bin");
  std::string bytes = WriteSampleV2(path);
  ASSERT_GT(bytes.size(), 40u);
  // Cut inside the header, the offsets array, the targets array, and the
  // checksum trailer.
  const std::vector<size_t> cuts = {3,  9,  20, 40, bytes.size() - 9,
                                    bytes.size() - 1};
  for (size_t keep : cuts) {
    WriteBytes(path, bytes.substr(0, keep));
    EXPECT_FALSE(graph::ReadBinary(path).ok()) << "kept " << keep << " bytes";
  }
}

TEST_F(GraphIoCorruptionTest, BadMagicRejected) {
  std::string path = TempPath("magic_v2.bin");
  std::string bytes = WriteSampleV2(path);
  bytes[0] = 'X';
  WriteBytes(path, bytes);
  auto r = graph::ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("not a spammass binary"),
            std::string::npos);
}

TEST_F(GraphIoCorruptionTest, UnsupportedVersionRejected) {
  std::string path = TempPath("version_v2.bin");
  std::string bytes = WriteSampleV2(path);
  bytes[4] = 99;
  WriteBytes(path, bytes);
  auto r = graph::ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unsupported version"),
            std::string::npos);
}

TEST_F(GraphIoCorruptionTest, FlippedPayloadByteFailsChecksum) {
  std::string path = TempPath("flip_v2.bin");
  std::string bytes = WriteSampleV2(path);
  // Flip one bit inside the targets array (after the 32-byte header and
  // the six uint64 offsets of the 5-node sample graph).
  const size_t target_region = 32 + 6 * 8;
  ASSERT_LT(target_region, bytes.size() - 8);
  bytes[target_region] = static_cast<char>(bytes[target_region] ^ 0x10);
  WriteBytes(path, bytes);
  auto r = graph::ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST_F(GraphIoCorruptionTest, OutOfRangeTargetWithValidChecksumRejected) {
  std::string path = TempPath("range_v2.bin");
  std::string bytes = WriteSampleV2(path);
  // Overwrite the first target with an id far beyond num_nodes, then
  // recompute the checksum — the structural validation must catch it.
  const size_t target_region = 32 + 6 * 8;
  const uint32_t bogus = 0xfffffff0u;
  std::memcpy(bytes.data() + target_region, &bogus, sizeof(bogus));
  FixChecksum(&bytes);
  WriteBytes(path, bytes);
  auto r = graph::ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kFailedPrecondition)
      << r.status().ToString();
}

TEST_F(GraphIoCorruptionTest, UnsortedRowWithValidChecksumRejected) {
  // Node 0 of the sample graph has out-neighbors {1, 2}; swapping them
  // breaks the strictly-ascending row invariant.
  std::string path = TempPath("unsorted_v2.bin");
  std::string bytes = WriteSampleV2(path);
  const size_t target_region = 32 + 6 * 8;
  uint32_t first = 0, second = 0;
  std::memcpy(&first, bytes.data() + target_region, sizeof(first));
  std::memcpy(&second, bytes.data() + target_region + 4, sizeof(second));
  ASSERT_LT(first, second);
  std::memcpy(bytes.data() + target_region, &second, sizeof(second));
  std::memcpy(bytes.data() + target_region + 4, &first, sizeof(first));
  FixChecksum(&bytes);
  WriteBytes(path, bytes);
  EXPECT_FALSE(graph::ReadBinary(path).ok());
}

TEST_F(GraphIoCorruptionTest, TrailingGarbageRejected) {
  std::string path = TempPath("trailing_v2.bin");
  std::string bytes = WriteSampleV2(path);
  bytes += "extra";
  WriteBytes(path, bytes);
  EXPECT_FALSE(graph::ReadBinary(path).ok());
}

TEST_F(GraphIoCorruptionTest, FormatV21RejectedWithReconvertHint) {
  // Format 2.1 marked its (since removed) compressed in-adjacency section
  // with header flag bit 1 and minor version 1. Either mark alone is
  // enough to reject the file before any payload is read. The header is
  // hand-written: magic, version 2, flags, minor, node and edge counts,
  // then padding standing in for the payload.
  struct Mark {
    uint32_t flags;
    uint32_t minor;
  };
  for (const Mark mark : {Mark{2, 1}, Mark{2, 0}, Mark{0, 1}, Mark{3, 1}}) {
    std::string bytes = "SMWG";
    const uint32_t version = 2;
    const uint64_t nodes = 5, edges = 4;
    bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
    bytes.append(reinterpret_cast<const char*>(&mark.flags),
                 sizeof(mark.flags));
    bytes.append(reinterpret_cast<const char*>(&mark.minor),
                 sizeof(mark.minor));
    bytes.append(reinterpret_cast<const char*>(&nodes), sizeof(nodes));
    bytes.append(reinterpret_cast<const char*>(&edges), sizeof(edges));
    bytes.append(256, '\0');
    const std::string path = TempPath("v21.bin");
    WriteBytes(path, bytes);
    auto r = graph::ReadBinary(path);
    ASSERT_FALSE(r.ok()) << "flags " << mark.flags << " minor " << mark.minor;
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
    const std::string& message = r.status().message();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find("re-convert from the edge list"),
              std::string::npos)
        << message;
  }
}

TEST_F(GraphIoTest, HostNamesMustCoverAllNodes) {
  std::string path = TempPath("partial.tsv");
  {
    std::ofstream f(path);
    f << "0\tonly.example.com\n";
  }
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  WebGraph g = b.Build();
  EXPECT_FALSE(graph::ReadHostNames(path, &g).ok());
}

}  // namespace
}  // namespace spammass

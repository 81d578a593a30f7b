// The v2.2 container and its two readers: round trips (with and without
// host names), heap loading, solver equivalence between the mmap and heap
// load paths, and — the part the trust model rests on — the failure paths.
// Every corruption test byte-patches a real file (or hand-writes an older
// format's header) and demands a clean error Status: truncation, a bad
// magic or version, a misaligned section table entry, flipped payload
// bytes, structural damage under repaired checksums, trailing bytes, and a
// header that claims more data than the file holds must all be caught
// during validation, never surface as a SIGBUS from a later array access.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/web_graph.h"
#include "pagerank/solver.h"
#include "temp_dir_test_util.h"
#include "util/checksum.h"
#include "util/debug.h"
#include "util/random.h"
#include "util/status.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;

// v2.2 geometry constants, mirrored from graph_io.cc so the corruption
// tests can patch real files. A layout change that breaks these breaks
// the format compatibility promise, so the duplication is the point.
constexpr uint64_t kPageSize = 4096;
constexpr uint64_t kSampleBytes = 64 * 1024;
constexpr uint64_t kHeaderChecksumOffset = kPageSize - 8;
constexpr uint64_t kSectionTableOffset = 40;
constexpr uint64_t kSectionEntryBytes = 40;

class GraphMmapTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testutil::TestTempPath(name);
  }

  /// A graph big enough that every section exists and dangling nodes are
  /// plentiful: edges originate from the lower half only, so the upper
  /// half is dangling unless targeted by chance.
  static WebGraph SampleGraph(uint32_t n = 600, uint32_t edges = 4000,
                              bool with_names = false) {
    util::Rng rng(/*seed=*/29);
    GraphBuilder b(n);
    for (uint32_t e = 0; e < edges; ++e) {
      auto u = static_cast<NodeId>(rng.UniformIndex(n / 2));
      auto v = static_cast<NodeId>(rng.UniformIndex(n));
      if (u != v) b.AddEdge(u, v);
    }
    WebGraph g = b.Build();
    if (with_names) {
      std::vector<std::string> names(n);
      for (NodeId x = 0; x < n; ++x) {
        names[x] = "host-" + std::to_string(x) + ".example";
      }
      g.set_host_names(std::move(names));
    }
    return g;
  }

  static void ExpectSameGraph(const WebGraph& a, const WebGraph& b) {
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    ASSERT_EQ(a.num_edges(), b.num_edges());
    for (NodeId x = 0; x < a.num_nodes(); ++x) {
      auto ao = a.OutNeighbors(x);
      auto bo = b.OutNeighbors(x);
      ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()))
          << "out-neighbors differ at node " << x;
      auto ai = a.InNeighbors(x);
      auto bi = b.InNeighbors(x);
      ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()))
          << "in-neighbors differ at node " << x;
      EXPECT_EQ(a.InvOutDegree(x), b.InvOutDegree(x)) << "node " << x;
    }
    auto ad = a.DanglingNodes();
    auto bd = b.DanglingNodes();
    EXPECT_TRUE(std::equal(ad.begin(), ad.end(), bd.begin(), bd.end()));
  }

  static std::vector<uint8_t> ReadFileBytes(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << path;
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                               std::istreambuf_iterator<char>());
    return bytes;
  }

  static void WriteFileBytes(const std::string& path,
                             const std::vector<uint8_t>& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(f.is_open()) << path;
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }

  /// Recomputes the header-page checksum after a deliberate header patch,
  /// so the test reaches the validation step it targets instead of
  /// tripping the header-checksum gate first.
  static void RepairHeaderChecksum(std::vector<uint8_t>* bytes) {
    util::Fnv1a64x8 hasher;
    hasher.Update(bytes->data(), kHeaderChecksumOffset);
    const uint64_t digest = hasher.digest();
    std::memcpy(bytes->data() + kHeaderChecksumOffset, &digest, 8);
  }

  /// Recomputes section `i`'s full and sample checksums (and then the
  /// header checksum over the updated table) after a deliberate payload
  /// patch, so only the structural validators can catch the damage.
  static void RepairSectionChecksums(std::vector<uint8_t>* bytes,
                                     uint32_t i) {
    const auto [offset, length] = SectionGeometry(*bytes, i);
    const uint8_t* body = bytes->data() + offset;
    util::Fnv1a64x8 full, sample;
    full.Update(body, length);
    sample.Update(body, std::min(length, kSampleBytes));
    if (length > kSampleBytes) {
      sample.Update(body + (length - kSampleBytes), kSampleBytes);
    }
    const uint64_t digests[2] = {full.digest(), sample.digest()};
    uint8_t* entry =
        bytes->data() + kSectionTableOffset + i * kSectionEntryBytes;
    std::memcpy(entry + 24, digests, sizeof(digests));
    RepairHeaderChecksum(bytes);
  }

  /// Reads section-table entry `i`'s (offset, length) out of raw bytes.
  static std::pair<uint64_t, uint64_t> SectionGeometry(
      const std::vector<uint8_t>& bytes, uint32_t i) {
    uint64_t offset = 0, length = 0;
    const uint8_t* entry =
        bytes.data() + kSectionTableOffset + i * kSectionEntryBytes;
    std::memcpy(&offset, entry + 8, 8);
    std::memcpy(&length, entry + 16, 8);
    return {offset, length};
  }
};

TEST_F(GraphMmapTest, PagedRoundTripZeroCopy) {
  WebGraph g = SampleGraph();
  const std::string path = TempPath("paged_roundtrip.smwg");
  auto status = graph::WriteBinaryV22(g, path);
  ASSERT_TRUE(status.ok()) << status.ToString();

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().is_mapped());
  EXPECT_GT(loaded.value().mapped_bytes(), 0u);
  ExpectSameGraph(g, loaded.value());
}

TEST_F(GraphMmapTest, PagedRoundTripCarriesHostNames) {
  WebGraph g = SampleGraph(300, 1500, /*with_names=*/true);
  const std::string path = TempPath("paged_names.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameGraph(g, loaded.value());
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    EXPECT_EQ(loaded.value().HostName(x), g.HostName(x)) << "node " << x;
  }
}

TEST_F(GraphMmapTest, HeapReaderLoadsPagedFiles) {
  // ReadBinary accepts v2.2 too (full validation, arrays copied out), so
  // a paged file is still consumable where mmap is unwanted.
  WebGraph g = SampleGraph();
  const std::string path = TempPath("paged_heap.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  auto loaded = graph::ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().is_mapped());
  EXPECT_EQ(loaded.value().mapped_bytes(), 0u);
  ExpectSameGraph(g, loaded.value());
}

TEST_F(GraphMmapTest, SolverScoresBitIdenticalToHeapLoad) {
  // The whole point of the mapped representation: the solver cannot tell.
  WebGraph g = SampleGraph();
  const std::string path = TempPath("paged_solver.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  auto mapped = graph::ReadBinaryMmap(path);
  ASSERT_TRUE(mapped.ok());
  auto heap = graph::ReadBinary(path);
  ASSERT_TRUE(heap.ok());

  pagerank::SolverOptions opt;
  opt.method = pagerank::Method::kJacobi;
  opt.tolerance = 1e-12;
  auto from_mapped = pagerank::ComputeUniformPageRank(mapped.value(), opt);
  auto from_heap = pagerank::ComputeUniformPageRank(heap.value(), opt);
  ASSERT_TRUE(from_mapped.ok());
  ASSERT_TRUE(from_heap.ok());
  EXPECT_EQ(from_mapped.value().iterations, from_heap.value().iterations);
  ASSERT_EQ(from_mapped.value().scores.size(), from_heap.value().scores.size());
  for (size_t i = 0; i < from_heap.value().scores.size(); ++i) {
    EXPECT_EQ(from_mapped.value().scores[i], from_heap.value().scores[i])
        << "node " << i;
  }
}

TEST_F(GraphMmapTest, MmapRejectsNonPagedFiles) {
  // A v2.0 file has no header page: version 2, no flags, minor 0, then the
  // node and edge counts and the CSR arrays straight after. Whatever bytes
  // sit at the header-checksum offset, the rejection must be a clean
  // InvalidArgument, never a misparse.
  const uint32_t words[3] = {2, 0, 0};
  const uint64_t counts[2] = {100, 400};
  std::vector<uint8_t> bytes(2 * kPageSize);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7);
  }
  std::memcpy(bytes.data(), "SMWG", 4);
  std::memcpy(bytes.data() + 4, words, sizeof(words));
  std::memcpy(bytes.data() + 16, counts, sizeof(counts));
  const std::string path = TempPath("plain_v2.smwg");
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsFileTruncatedBelowHeader) {
  WebGraph g = SampleGraph(100, 400);
  const std::string path = TempPath("trunc_header.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  std::filesystem::resize_file(path, 100);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("truncated"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsFileTruncatedMidSection) {
  // Header page intact, payload gone: the geometry pass must notice that
  // the advertised sections run past EOF before any array is touched.
  WebGraph g = SampleGraph();
  const std::string path = TempPath("trunc_body.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  ASSERT_GT(std::filesystem::file_size(path), 2 * kPageSize);
  std::filesystem::resize_file(path, 2 * kPageSize);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("shorter than header claims"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsMisalignedSection) {
  WebGraph g = SampleGraph();
  const std::string path = TempPath("misaligned.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  // Knock the targets section (entry 1) off its page boundary.
  auto [offset, length] = SectionGeometry(bytes, 1);
  ASSERT_EQ(offset % kPageSize, 0u);
  const uint64_t skewed = offset + 8;
  std::memcpy(bytes.data() + kSectionTableOffset + 1 * kSectionEntryBytes + 8,
              &skewed, 8);
  RepairHeaderChecksum(&bytes);
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("misaligned section"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsCorruptSectionPayload) {
  WebGraph g = SampleGraph();
  const std::string path = TempPath("bitflip.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  // Flip one payload byte in the middle of the targets section. Test
  // sections are smaller than the 64 KiB sample window, so the bounded
  // sample checksum — the one release mmap loads always verify — covers
  // every byte and must catch it.
  auto [offset, length] = SectionGeometry(bytes, 1);
  ASSERT_GT(length, 0u);
  bytes[offset + length / 2] ^= 0x40;
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsCorruptHeaderPage) {
  WebGraph g = SampleGraph();
  const std::string path = TempPath("bad_header.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes[16] ^= 0x01;  // num_nodes field, checksum left stale
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("header page checksum"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsHeaderClaimingMoreDataThanFileHolds) {
  WebGraph g = SampleGraph();
  const std::string path = TempPath("oversize_claim.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  // Claim an edge count no section in this file could hold; with the
  // header checksum repaired, the size sanity gate is the one that fires.
  const uint64_t absurd_edges = bytes.size();
  std::memcpy(bytes.data() + 24, &absurd_edges, 8);
  RepairHeaderChecksum(&bytes);
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("shorter than header claims"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, HeapReaderAlsoRejectsCorruptPagedFiles) {
  // The heap path runs full validation; it must reject the same damage.
  WebGraph g = SampleGraph();
  const std::string path = TempPath("bitflip_heap.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  auto [offset, length] = SectionGeometry(bytes, 3);  // sources
  ASSERT_GT(length, 0u);
  bytes[offset + length / 3] ^= 0x10;
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
}

// ---- Both readers against damaged or outdated files ------------------------

class GraphIoCorruptionTest : public GraphMmapTest {
 protected:
  /// Writes SampleGraph() as v2.2 to `path` and returns the bytes.
  std::vector<uint8_t> WriteSample(const std::string& path) {
    EXPECT_TRUE(graph::WriteBinaryV22(SampleGraph(), path).ok());
    return ReadFileBytes(path);
  }

  /// Both readers must reject `path`; each message names the path and
  /// contains `needle`. Returns the heap and the mmap reader's statuses.
  static std::vector<util::Status> ExpectBothReject(
      const std::string& path, const std::string& needle) {
    std::vector<util::Status> statuses = {graph::ReadBinary(path).status(),
                                          graph::ReadBinaryMmap(path).status()};
    for (const util::Status& status : statuses) {
      EXPECT_FALSE(status.ok());
      EXPECT_NE(status.message().find(path), std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find(needle), std::string::npos)
          << status.ToString();
    }
    return statuses;
  }
};

TEST_F(GraphIoCorruptionTest, TruncationAtEveryRegionRejected) {
  const std::string path = TempPath("trunc.smwg");
  const std::vector<uint8_t> bytes = WriteSample(path);
  const auto [targets_offset, targets_length] = SectionGeometry(bytes, 1);
  // Cut inside the magic, the version/flags prefix, the fixed header, the
  // section table, the header checksum, the first section, the middle of
  // the targets section, and the padding of the last section.
  const std::vector<size_t> cuts = {3,
                                    9,
                                    20,
                                    kSectionTableOffset + 10,
                                    kHeaderChecksumOffset + 4,
                                    kPageSize + 8,
                                    targets_offset + targets_length / 2,
                                    bytes.size() - 1};
  for (size_t keep : cuts) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
    WriteFileBytes(path, {bytes.begin(), bytes.begin() + keep});
    ExpectBothReject(path, "");
  }
}

TEST_F(GraphIoCorruptionTest, BadMagicRejected) {
  const std::string path = TempPath("magic.smwg");
  std::vector<uint8_t> bytes = WriteSample(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  ExpectBothReject(path, "not a spammass binary");
}

TEST_F(GraphIoCorruptionTest, UnsupportedVersionRejected) {
  const std::string path = TempPath("version.smwg");
  std::vector<uint8_t> bytes = WriteSample(path);
  bytes[4] = 99;
  WriteFileBytes(path, bytes);
  ExpectBothReject(path, "unsupported version");
}

TEST_F(GraphIoCorruptionTest, FlippedPayloadByteFailsChecksum) {
  // One flipped bit in the middle of any section, checksums left stale.
  // The sample graph's sections are smaller than the 64 KiB sample
  // window, so even the release mmap load covers every byte.
  const std::string path = TempPath("flip.smwg");
  const std::vector<uint8_t> clean = WriteSample(path);
  for (uint32_t i = 0; i < 6; ++i) {
    SCOPED_TRACE("section " + std::to_string(i));
    std::vector<uint8_t> bytes = clean;
    const auto [offset, length] = SectionGeometry(bytes, i);
    ASSERT_GT(length, 0u);
    ASSERT_LE(length, kSampleBytes);
    bytes[offset + length / 2] ^= 0x10;
    WriteFileBytes(path, bytes);
    ExpectBothReject(path, "checksum mismatch");
  }
}

TEST_F(GraphIoCorruptionTest, OutOfRangeTargetWithValidChecksumRejected) {
  // Overwrite the first target with an id far beyond num_nodes and repair
  // the checksums: the structural validation must catch it. The heap load
  // always validates structure; a release mmap load trusts section
  // interiors past their checksums (docs/graph_format.md, "Trust model"),
  // so only debug builds reject it there.
  const std::string path = TempPath("range.smwg");
  std::vector<uint8_t> bytes = WriteSample(path);
  const uint32_t bogus = 0xfffffff0u;
  std::memcpy(bytes.data() + SectionGeometry(bytes, 1).first, &bogus,
              sizeof(bogus));
  RepairSectionChecksums(&bytes, 1);
  WriteFileBytes(path, bytes);
  auto r = graph::ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kFailedPrecondition)
      << r.status().ToString();
  if (util::kDebugBuild) {
    EXPECT_FALSE(graph::ReadBinaryMmap(path).ok());
  }
}

TEST_F(GraphIoCorruptionTest, UnsortedRowWithValidChecksumRejected) {
  // Swapping the first two targets of a row with two or more out-links
  // breaks the strictly-ascending row invariant.
  const std::string path = TempPath("unsorted.smwg");
  std::vector<uint8_t> bytes = WriteSample(path);
  const WebGraph g = SampleGraph();
  NodeId row = 0;
  while (g.OutDegree(row) < 2) ++row;
  const auto first = bytes.begin() + SectionGeometry(bytes, 1).first +
                     g.OutOffsets()[row] * sizeof(NodeId);
  std::swap_ranges(first, first + sizeof(NodeId), first + sizeof(NodeId));
  RepairSectionChecksums(&bytes, 1);
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(graph::ReadBinary(path).ok());
  if (util::kDebugBuild) {
    EXPECT_FALSE(graph::ReadBinaryMmap(path).ok());
  }
}

TEST_F(GraphIoCorruptionTest, TrailingGarbageRejected) {
  const std::string path = TempPath("trailing.smwg");
  std::vector<uint8_t> bytes = WriteSample(path);
  bytes.insert(bytes.end(), {'e', 'x', 't', 'r', 'a'});
  WriteFileBytes(path, bytes);
  ExpectBothReject(path, "trailing bytes");
}

TEST_F(GraphIoCorruptionTest, FormatV21RejectedWithReconvertHint) {
  // Every format older than 2.2, by hand-written header: format 1
  // (version 1, then u64 node and edge counts — the node count fills the
  // flags and minor words), 2.0 plain and with host names, and the marks
  // of 2.1 (flags bit 1, minor 1; either alone).
  // The body is two pages of filler, so a reader that trusted the v2.2
  // header-page checksum first would report a checksum mismatch instead
  // of naming the outdated format.
  struct Header {
    const char* name;
    uint32_t version;
    uint32_t flags;
    uint32_t minor;
  };
  const Header headers[] = {
      {"format 1", 1, 5, 0},          {"2.0 plain", 2, 0, 0},
      {"2.0 with names", 2, 1, 0},    {"2.1", 2, 2, 1},
      {"2.1 flag only", 2, 2, 0},     {"2.1 minor only", 2, 0, 1},
      {"2.1 with names", 2, 3, 1}};
  for (const Header& h : headers) {
    SCOPED_TRACE(h.name);
    std::vector<uint8_t> bytes(2 * kPageSize, 0x5a);
    const uint32_t words[3] = {h.version, h.flags, h.minor};
    const uint64_t edges = 4;
    std::memcpy(bytes.data(), "SMWG", 4);
    std::memcpy(bytes.data() + 4, words, sizeof(words));
    std::memcpy(bytes.data() + 16, &edges, sizeof(edges));
    const std::string path = TempPath("legacy.smwg");
    WriteFileBytes(path, bytes);
    for (const util::Status& status :
         ExpectBothReject(path, "re-convert from the edge list")) {
      EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace spammass

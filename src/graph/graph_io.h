// Graph (de)serialization. Two formats:
//   * Text edge list — one "source target" pair per line, '#' comments,
//     interoperable with common web-graph dumps (e.g. WebGraph/SNAP style).
//   * Binary — the page-aligned SMWG container, format 2.2 (magic "SMWG"):
//     a 4 KiB header page holding a checksummed section table, then both
//     CSR directions, the derived solver arrays and the optional host-name
//     blob, each 4 KiB-aligned with per-section checksums. ReadBinaryMmap
//     backs a WebGraph zero-copy by the mapped file and loads in O(1);
//     ReadBinary fully validates and copies onto the heap. It is the only
//     binary format: format 1, 2.0 and 2.1 files are rejected with a
//     request to re-convert from the edge list. See docs/graph_format.md
//     for the byte layout.
// Host names travel inside the binary when present; the companion
// "<id>\t<host>" text map remains available for the text format.

#ifndef SPAMMASS_GRAPH_GRAPH_IO_H_
#define SPAMMASS_GRAPH_GRAPH_IO_H_

#include <string>

#include "graph/web_graph.h"
#include "util/status.h"

namespace spammass::util {
class ThreadPool;
}  // namespace spammass::util

namespace spammass::graph {

/// Writes "u v" lines (plus a size header comment). Output is assembled in
/// a large buffer via std::to_chars and flushed in ~1 MiB slabs.
util::Status WriteEdgeListText(const WebGraph& graph, const std::string& path);

/// Parses an edge list. Lines starting with '#' and blank lines are skipped;
/// node count is max id + 1 unless a "# nodes: N" header raises it.
/// Duplicate edges and self-loops in the file are normalized away. `pool`
/// parallelizes the final sort/dedup/CSR build for large inputs.
util::Result<WebGraph> ReadEdgeListText(const std::string& path,
                                        util::ThreadPool* pool = nullptr);

/// Writes the page-aligned v2.2 container: a 4 KiB header page holding a
/// checksummed section table, then every array — both CSR directions plus
/// the derived solver arrays (inverse out-degrees, dangling list) and the
/// optional host-name sections — at a 4 KiB-aligned offset with full and
/// bounded-sample FNV checksums per section; see docs/graph_format.md for
/// the layout and the trust model.
util::Status WriteBinaryV22(const WebGraph& graph, const std::string& path);

/// Maps a v2.2 file and returns a WebGraph whose arrays are zero-copy
/// views into the mapping (WebGraph::is_mapped()). Load cost is O(1) in
/// the graph size: the header page is validated (magic, section table,
/// header checksum, all section bounds — so no access can fault past EOF),
/// each section's bounded head/tail sample checksum is verified, and the
/// small dangling section is fully validated; debug builds additionally
/// verify every full-section checksum and run the O(n+m) structural
/// validators. Host names (when present) are copied to the heap.
util::Result<WebGraph> ReadBinaryMmap(const std::string& path);

/// Reads a v2.2 file into heap-owned storage: every section checksum is
/// verified and both CSR directions validated, then the arrays are copied
/// out of a temporary mapping; only the cheap derived solver arrays are
/// rebuilt — in parallel when `pool` is non-null. Both readers reject a
/// file that is not format 2.2 with InvalidArgument naming the path;
/// format 1, 2.0 and 2.1 files are told to re-convert from the edge list.
util::Result<WebGraph> ReadBinary(const std::string& path,
                                  util::ThreadPool* pool = nullptr);

/// Writes "<id>\t<host_name>" lines for every node.
util::Status WriteHostNames(const WebGraph& graph, const std::string& path);

/// Reads a host-name map written by WriteHostNames and attaches it to
/// `graph`. Every node must be covered.
util::Status ReadHostNames(const std::string& path, WebGraph* graph);

}  // namespace spammass::graph

#endif  // SPAMMASS_GRAPH_GRAPH_IO_H_

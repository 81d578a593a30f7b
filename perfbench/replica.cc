// perfbench_replica — the traced half of the end-to-end benchmark. It
// replays, call by call through the libraries' public functions, what one
// `spammass_cli` invocation does, and times each call from outside:
//
//   run        `spammass_cli run`: graph load, side files, TrustRank seed
//              selection (transpose + inverse-PageRank solve), the fused
//              forward solve, the detectors, and the manifest
//   setup      `spammass_cli generate` (+ `convert --format paged`): scenario
//              generation and the writers
//   copy       a STREAM-style copy-bandwidth probe
//   calibrate  the reference kernel run.py divides operation times by
//
// Each mode prints one JSON object on stdout. run.py checks that the replica
// reproduced the untraced CLI operation exactly (flagged counts, per-solve
// sweep counts, generated file bytes) and that its spans agree with the
// program's own stage timings before it trusts any span.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/degree_outlier.h"
#include "core/detector.h"
#include "core/label_io.h"
#include "core/naive_schemes.h"
#include "core/spam_mass.h"
#include "graph/graph_io.h"
#include "pagerank/jump_vector.h"
#include "pagerank/solver.h"
#include "pagerank/workspace.h"
#include "spans.h"
#include "pipeline/context.h"
#include "pipeline/detector.h"
#include "pipeline/graph_source.h"
#include "pipeline/manifest.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "util/file_util.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/string_util.h"

using namespace spammass;
using graph::NodeId;
using perfbench::Spans;

namespace {

int Fail(const util::Status& status) {
  std::fprintf(stderr, "perfbench_replica: %s\n", status.ToString().c_str());
  return 1;
}

#define RETURN_IF_FAILED(expr)              \
  do {                                      \
    const util::Status _status = (expr);    \
    if (!_status.ok()) return Fail(_status); \
  } while (false)

uint64_t FileBytes(const std::string& path) {
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<uint64_t>(size);
}

uint64_t CountFlagged(const std::vector<bool>& flagged) {
  return static_cast<uint64_t>(
      std::count(flagged.begin(), flagged.end(), true));
}

/// TrustRank demotion verdict, as the registered "trustrank" detector
/// computes it: within T = {x : p̂_x ≥ ρ}, flag the demote fraction with
/// the lowest trust/PageRank ratio.
std::vector<bool> TrustRankDemotion(const std::vector<double>& p,
                                    const std::vector<double>& trust,
                                    const pipeline::PipelineConfig& cfg,
                                    uint64_t* population_size) {
  const double scale =
      static_cast<double>(p.size()) / (1.0 - cfg.solver.damping);
  std::vector<NodeId> population;
  for (NodeId x = 0; x < p.size(); ++x) {
    if (p[x] * scale >= cfg.detection.scaled_pagerank_threshold) {
      population.push_back(x);
    }
  }
  std::sort(population.begin(), population.end(), [&](NodeId a, NodeId b) {
    const double ra = trust[a] / p[a];
    const double rb = trust[b] / p[b];
    if (ra != rb) return ra < rb;
    return a < b;
  });
  const size_t demoted = static_cast<size_t>(
      cfg.trustrank.demote_fraction * static_cast<double>(population.size()));
  std::vector<bool> flagged(p.size(), false);
  for (size_t i = 0; i < demoted; ++i) flagged[population[i]] = true;
  *population_size = population.size();
  return flagged;
}

/// Precision and recall against the loaded labels, as the pipeline's
/// detectors record them in the manifest.
void AddGroundTruthMetrics(const pipeline::LoadedGraph& loaded,
                           pipeline::DetectorOutput* out) {
  if (!loaded.has_labels) return;
  uint64_t true_positives = 0;
  uint64_t spam_total = 0;
  for (NodeId x = 0; x < loaded.graph().num_nodes(); ++x) {
    const bool is_spam = loaded.labels().IsSpam(x);
    spam_total += is_spam;
    if (out->flagged[x]) true_positives += is_spam;
  }
  out->metrics.emplace_back(
      "precision", out->flagged_count > 0
                       ? static_cast<double>(true_positives) /
                             static_cast<double>(out->flagged_count)
                       : 0.0);
  out->metrics.emplace_back(
      "recall", spam_total > 0 ? static_cast<double>(true_positives) /
                                     static_cast<double>(spam_total)
                               : 0.0);
}

int CmdRun(int argc, const char* const* argv) {
  util::FlagParser flags;
  flags.Define("graph", "", "graph input (text edge list or SMWG binary)");
  flags.Define("detectors", "spam_mass,trustrank", "detector names");
  flags.Define("core", "", "good-core node list");
  flags.Define("labels", "", "ground-truth labels");
  flags.Define("hosts", "", "host-name map");
  flags.Define("threads", "1", "solver threads");
  flags.Define("manifest", "run_manifest.json", "manifest output path");
  flags.Define("flagged-out", "", "per-detector flagged node ids output");
  flags.DefineBool("mmap", "map the v2.2 graph zero-copy");
  RETURN_IF_FAILED(flags.Parse(argc, argv));

  Spans spans(/*enabled=*/true);
  const std::string path = flags.GetString("graph");
  const bool mmap = flags.GetBool("mmap");

  // The CLI's configuration: solver preset plus --threads, CLI thresholds.
  pipeline::PipelineConfig config;
  config.solver.num_threads = static_cast<uint32_t>(flags.GetInt("threads"));
  std::vector<std::string> detectors;
  for (const std::string& name : util::Split(flags.GetString("detectors"),
                                             ',')) {
    if (!name.empty()) detectors.push_back(name);
  }
  for (const std::string& name : detectors) {
    if (name != "spam_mass" && name != "trustrank" &&
        name != "degree_outlier" && name != "naive_scheme1") {
      return Fail(util::Status::InvalidArgument(
          "replica covers spam_mass, trustrank, degree_outlier and "
          "naive_scheme1 only, not " + name));
    }
  }
  auto wants = [&detectors](const char* name) {
    return std::find(detectors.begin(), detectors.end(), name) !=
           detectors.end();
  };

  // graph: the load GraphSource::Load would make, then the side files.
  pipeline::LoadedGraph loaded;
  loaded.description = path;
  auto format = pipeline::SniffGraphFormat(path);
  if (!format.ok()) return Fail(format.status());
  loaded.format = format.value();
  auto read = spans.Time("graph.load", [&] {
    return loaded.format != pipeline::GraphFormat::kBinary
               ? graph::ReadEdgeListText(path, nullptr)
               : (mmap ? graph::ReadBinaryMmap(path)
                       : graph::ReadBinary(path, nullptr));
  });
  if (!read.ok()) return Fail(read.status());
  loaded.web.graph = std::move(read.value());
  const uint32_t n = loaded.graph().num_nodes();
  util::Status side = spans.Time("graph.side_files", [&]() -> util::Status {
    if (!flags.GetString("hosts").empty()) {
      util::Status status =
          graph::ReadHostNames(flags.GetString("hosts"), &loaded.web.graph);
      if (!status.ok()) return status;
    }
    if (!flags.GetString("labels").empty()) {
      auto labels = core::ReadLabels(flags.GetString("labels"), n);
      if (!labels.ok()) return labels.status();
      loaded.web.labels = std::move(labels.value());
      loaded.has_labels = true;
    }
    if (!flags.GetString("core").empty()) {
      auto core = core::ReadNodeList(flags.GetString("core"), n);
      if (!core.ok()) return core.status();
      loaded.good_core = std::move(core.value());
    }
    return util::Status::OK();
  });
  RETURN_IF_FAILED(side);
  loaded.load_seconds =
      spans.Get("graph.load") + spans.Get("graph.side_files");
  const graph::WebGraph& web = loaded.graph();

  const bool need_mass = wants("spam_mass");
  const bool need_trust = wants("trustrank");
  const bool need_base = need_mass || need_trust;
  pagerank::SolverWorkspace workspace;
  std::vector<std::pair<std::string, pagerank::SolveStats>> solve_stats;
  uint64_t lane_sweeps = 0;
  double solve_cpu = 0;

  // TrustRank seed selection: inverse PageRank over the transpose, top-L
  // candidates, oracle filter (PipelineContext::Prepare).
  std::vector<NodeId> trust_seeds;
  if (need_trust) {
    graph::WebGraph reversed =
        spans.Time("graph.transpose", [&] { return web.Transposed(); });
    pagerank::SolverOptions seed_solver = config.solver;
    seed_solver.compressed_gather = false;
    const double cpu0 = perfbench::ProcessCpuSeconds();
    auto inverse = spans.Time("pagerank.seed_solve", [&] {
      return pagerank::ComputeUniformPageRank(reversed, seed_solver,
                                              &workspace);
    });
    solve_cpu += perfbench::ProcessCpuSeconds() - cpu0;
    if (!inverse.ok()) return Fail(inverse.status());
    spans.Time("core.seed_select", [&] {
      const std::vector<double>& scores = inverse.value().scores;
      std::vector<NodeId> order(n);
      std::iota(order.begin(), order.end(), 0u);
      const uint32_t take =
          std::min<uint32_t>(config.trustrank.seed_candidates, n);
      std::partial_sort(order.begin(), order.begin() + take, order.end(),
                        [&scores](NodeId a, NodeId b) {
                          if (scores[a] != scores[b]) {
                            return scores[a] > scores[b];
                          }
                          return a < b;
                        });
      order.resize(take);
      const bool filter =
          config.trustrank.filter_seeds_by_oracle && loaded.has_labels;
      for (NodeId s : order) {
        if (!filter || loaded.labels().IsGood(s)) trust_seeds.push_back(s);
      }
    });
    if (trust_seeds.empty()) {
      return Fail(util::Status::FailedPrecondition(
          "oracle rejected every seed candidate; enlarge seed_candidates"));
    }
    solve_stats.emplace_back(
        "trustrank_seed_selection",
        pagerank::SolveStats::FromResult(inverse.value()));
    lane_sweeps += static_cast<uint64_t>(inverse.value().iterations);
  }

  // The fused forward solve: base, core and trust lanes.
  std::vector<pagerank::PageRankResult> lanes;
  int base_lane = -1, core_lane = -1, trust_lane = -1;
  if (need_base) {
    const double cpu0 = perfbench::ProcessCpuSeconds();
    auto solves = spans.Time("pagerank.forward_solve", [&] {
      std::vector<pagerank::JumpVector> jumps;
      base_lane = static_cast<int>(jumps.size());
      jumps.push_back(pagerank::JumpVector::Uniform(n));
      if (need_mass) {
        core_lane = static_cast<int>(jumps.size());
        jumps.push_back(pagerank::JumpVector::ScaledCore(
            n, loaded.good_core, config.gamma));
      }
      if (need_trust) {
        trust_lane = static_cast<int>(jumps.size());
        jumps.push_back(pagerank::JumpVector::ScaledCore(n, trust_seeds, 1.0));
      }
      return pagerank::ComputePageRankMulti(web, jumps, config.solver,
                                            &workspace);
    });
    solve_cpu += perfbench::ProcessCpuSeconds() - cpu0;
    if (!solves.ok()) return Fail(solves.status());
    lanes = std::move(solves.value());
    const char* names[] = {"base_pagerank", "core_pagerank", "trustrank"};
    const int ids[] = {base_lane, core_lane, trust_lane};
    for (int i = 0; i < 3; ++i) {
      if (ids[i] < 0) continue;
      const pagerank::PageRankResult& lane =
          lanes[static_cast<size_t>(ids[i])];
      solve_stats.emplace_back(names[i],
                               pagerank::SolveStats::FromResult(lane));
      lane_sweeps += static_cast<uint64_t>(lane.iterations);
    }
  }

  // core: Definition 3, Algorithm 2 and the other verdicts.
  std::vector<pipeline::DetectorOutput> outputs;
  spans.Time("core.detect", [&] {
    core::MassEstimates estimates;
    if (need_mass) {
      estimates = core::MassEstimatesFromScores(
          lanes[static_cast<size_t>(base_lane)].scores,
          std::move(lanes[static_cast<size_t>(core_lane)].scores),
          config.solver.damping);
    }
    for (const std::string& name : detectors) {
      pipeline::DetectorOutput out;
      out.detector = name;
      if (name == "spam_mass") {
        out.candidates =
            core::DetectSpamCandidates(estimates, config.detection);
        out.flagged.assign(n, false);
        for (const core::SpamCandidate& c : out.candidates) {
          out.flagged[c.node] = true;
        }
      } else if (name == "trustrank") {
        uint64_t population = 0;
        out.flagged = TrustRankDemotion(
            lanes[static_cast<size_t>(base_lane)].scores,
            lanes[static_cast<size_t>(trust_lane)].scores, config,
            &population);
        out.metrics.emplace_back("seeds",
                                 static_cast<double>(trust_seeds.size()));
        out.metrics.emplace_back("population",
                                 static_cast<double>(population));
      } else if (name == "degree_outlier") {
        core::DegreeOutlierResult result =
            core::DetectDegreeOutliers(web, config.degree_outlier);
        out.flagged = std::move(result.suspected);
        out.metrics.emplace_back("degree_spikes",
                                 static_cast<double>(result.spikes.size()));
      } else {  // naive_scheme1
        out.flagged = core::FirstLabelingSchemeAll(web, loaded.labels());
      }
      out.flagged_count = CountFlagged(out.flagged);
      AddGroundTruthMetrics(loaded, &out);
      outputs.push_back(std::move(out));
    }
  });

  // pipeline: the run manifest, wrapped and written as the CLI does.
  util::Status written = spans.Time("pipeline.manifest", [&] {
    pipeline::ManifestInputs inputs;
    inputs.source = &loaded;
    inputs.config = &config;
    inputs.base_pagerank_solves = need_base ? 1 : 0;
    inputs.total_solves = workspace.solve_count();
    inputs.solve_stats = solve_stats;
    inputs.detectors = &outputs;
    util::JsonWriter manifest;
    manifest.BeginObject();
    manifest.KV("schema_version", 3);
    manifest.KV("tool", "perfbench_replica run");
    manifest.Key("runs").BeginArray();
    manifest.RawValue(pipeline::BuildManifestJson(inputs));
    manifest.EndArray();
    manifest.EndObject();
    return pipeline::WriteManifestFile(manifest.TakeString(),
                                       flags.GetString("manifest"));
  });
  RETURN_IF_FAILED(written);

  if (!flags.GetString("flagged-out").empty()) {
    std::string ids;
    for (const pipeline::DetectorOutput& out : outputs) {
      for (NodeId x = 0; x < n; ++x) {
        if (out.flagged[x]) {
          ids += out.detector + " " + std::to_string(x) + "\n";
        }
      }
    }
    RETURN_IF_FAILED(
        util::WriteTextFile(flags.GetString("flagged-out"), ids));
  }

  uint64_t input_bytes = FileBytes(path);
  for (const char* side_flag : {"hosts", "labels", "core"}) {
    if (!flags.GetString(side_flag).empty()) {
      input_bytes += FileBytes(flags.GetString(side_flag));
    }
  }
  util::JsonWriter json;
  json.BeginObject();
  json.KV("build_type", perfbench::BuildType());
  json.KV("nodes", n);
  json.KV("edges", web.num_edges());
  json.KV("input_bytes", input_bytes);
  json.KV("lane_sweeps", lane_sweeps);
  json.KV("solve_cpu_s", solve_cpu);
  json.Key("iterations").BeginObject();
  for (const auto& [name, stats] : solve_stats) json.KV(name, stats.iterations);
  json.EndObject();
  json.Key("flagged").BeginObject();
  for (const pipeline::DetectorOutput& out : outputs) {
    json.KV(out.detector, out.flagged_count);
  }
  json.EndObject();
  json.Key("spans");
  spans.Write(&json);
  json.EndObject();
  std::printf("%s\n", json.TakeString().c_str());
  return 0;
}

int CmdSetup(int argc, const char* const* argv) {
  util::FlagParser flags;
  flags.Define("scale", "1", "scenario scale");
  flags.Define("seed", "42", "generator seed");
  flags.Define("dir", ".", "output directory");
  flags.DefineBool("hosts", "also write the host-name map");
  flags.DefineBool("paged", "also convert the edge list to paged v2.2");
  RETURN_IF_FAILED(flags.Parse(argc, argv));
  const std::string dir = flags.GetString("dir");

  Spans spans(/*enabled=*/true);
  // synth: the scenario `generate` builds, and the good core it assembles.
  auto web = spans.Time("synth.generate", [&] {
    return synth::GenerateWeb(synth::Yahoo2004Scenario(
        flags.GetDouble("scale"),
        static_cast<uint64_t>(flags.GetInt("seed"))));
  });
  if (!web.ok()) return Fail(web.status());
  const synth::SyntheticWeb& w = web.value();
  const std::vector<NodeId> good_core =
      spans.Time("synth.generate", [&] { return w.AssembledGoodCore(); });

  util::Status status = spans.Time("synth.write", [&]() -> util::Status {
    util::Status s = graph::WriteEdgeListText(w.graph, dir + "/web.edges");
    if (s.ok() && flags.GetBool("hosts")) {
      s = graph::WriteHostNames(w.graph, dir + "/web.hosts");
    }
    if (s.ok()) s = core::WriteLabels(w.labels, dir + "/web.labels");
    if (s.ok()) s = core::WriteNodeList(good_core, dir + "/good.core");
    return s;
  });
  RETURN_IF_FAILED(status);
  if (flags.GetBool("paged")) {
    // `convert --format paged`: re-read the text edge list, write v2.2.
    status = spans.Time("synth.convert", [&]() -> util::Status {
      auto text = graph::ReadEdgeListText(dir + "/web.edges", nullptr);
      if (!text.ok()) return text.status();
      return graph::WriteBinaryV22(text.value(), dir + "/web.smwg");
    });
    RETURN_IF_FAILED(status);
  }

  util::JsonWriter json;
  json.BeginObject();
  json.KV("build_type", perfbench::BuildType());
  json.KV("nodes", w.graph.num_nodes());
  json.KV("edges", w.graph.num_edges());
  json.Key("spans");
  spans.Write(&json);
  json.EndObject();
  std::printf("%s\n", json.TakeString().c_str());
  return 0;
}

/// STREAM "copy": b[i] = a[i] over two arrays of kCopyBytes each, far
/// larger than the 300 MiB LLC, split across kCopyThreads workers. Reports
/// the best of kCopyReps passes, counting the bytes read plus the bytes
/// written, as STREAM does. The sizes are fixed so that every run measures
/// the same probe.
constexpr size_t kCopyBytes = size_t{1280} << 20;
constexpr size_t kCopyThreads = 4;
constexpr int kCopyReps = 5;

int CmdCopy() {
  const size_t bytes = kCopyBytes;
  const size_t threads = kCopyThreads;
  // Value-initialized: every page is touched before the first timed pass.
  std::unique_ptr<char[]> a(new char[bytes]());
  std::unique_ptr<char[]> b(new char[bytes]());
  std::memset(a.get(), 1, bytes);

  const size_t chunk = bytes / threads;
  double best = 0;
  for (int rep = 0; rep < kCopyReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      const size_t begin = t * chunk;
      const size_t len = t + 1 == threads ? bytes - begin : chunk;
      workers.emplace_back([&a, &b, begin, len] {
        std::memcpy(b.get() + begin, a.get() + begin, len);
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    best = std::max(best, 2.0 * static_cast<double>(bytes) / seconds / 1e9);
  }
  if (b[bytes - 1] != 1) {
    return Fail(util::Status::Internal("copy probe produced wrong bytes"));
  }
  util::JsonWriter json;
  json.BeginObject();
  json.KV("array_bytes", static_cast<uint64_t>(bytes));
  json.KV("threads", static_cast<uint64_t>(threads));
  json.KV("copy_gbps", best);
  json.EndObject();
  std::printf("%s\n", json.TakeString().c_str());
  return 0;
}

/// Reference kernel for machine-speed calibration: PageRank-style gather
/// sweeps over a fixed pseudo-random graph built here, independent of the
/// library, so its time moves only with the host, never with a change to
/// the program under test. Its size is fixed, so its time compares across
/// runs. Prints the fastest of kRefReps timed passes.
constexpr uint32_t kRefNodes = 400000;
constexpr uint32_t kRefDegree = 5;
constexpr int kRefSweeps = 100;
constexpr int kRefReps = 3;

int CmdCalibrate() {
  const uint32_t n = kRefNodes;
  const uint32_t degree = kRefDegree;
  // splitmix64: a fixed stream, the same graph on every host and run.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<uint32_t> sources(static_cast<size_t>(n) * degree);
  for (uint32_t& u : sources) u = static_cast<uint32_t>(next() % n);
  std::vector<double> scaled(n, 1.0 / n), next_rank(n, 0.0);
  double best = 0;
  double checksum = 0;
  for (int rep = 0; rep < kRefReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int sweep = 0; sweep < kRefSweeps; ++sweep) {
      for (uint32_t v = 0; v < n; ++v) {
        double sum = 0;
        const uint32_t* in = &sources[static_cast<size_t>(v) * degree];
        for (uint32_t k = 0; k < degree; ++k) sum += scaled[in[k]];
        next_rank[v] = 0.15 / n + 0.85 * sum / degree;
      }
      scaled.swap(next_rank);
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    best = rep == 0 ? seconds : std::min(best, seconds);
    checksum += scaled[0];
  }
  util::JsonWriter json;
  json.BeginObject();
  json.KV("seconds", best);
  json.KV("checksum", checksum);
  json.EndObject();
  std::printf("%s\n", json.TakeString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "run") return CmdRun(argc - 2, argv + 2);
  if (mode == "setup") return CmdSetup(argc - 2, argv + 2);
  if (mode == "copy" && argc == 2) return CmdCopy();
  if (mode == "calibrate" && argc == 2) return CmdCalibrate();
  std::fprintf(stderr,
               "usage: perfbench_replica run|setup [flags]\n"
               "       perfbench_replica copy|calibrate\n");
  return 2;
}

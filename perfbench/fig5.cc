// perfbench_fig5 — the `reproduce_fig5` workload: the Figure 5 paper
// reproduction (precision for good cores of varying size and coverage),
// driven through eval's public functions exactly as bench/
// bench_figure5_core_size.cc drives them. One invocation is one operation.
//
// Prints one JSON object: a digest of every precision curve, the scenario
// shape, the Algorithm 2 verdicts of the full-core run (written to
// --flagged-out for run.py to score against its own ground truth), and,
// with --trace, the wall time of each layer call and the solver counters.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/good_core.h"
#include "eval/experiment.h"
#include "eval/grouping.h"
#include "eval/precision.h"
#include "obs/metrics.h"
#include "spans.h"
#include "util/file_util.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/random.h"

using namespace spammass;
using perfbench::Spans;

namespace {

int Fail(const util::Status& status) {
  std::fprintf(stderr, "perfbench_fig5: %s\n", status.ToString().c_str());
  return 1;
}

/// FNV-1a over the bytes of each value: a compact, exact fingerprint of
/// the curves, so two operations can be compared bit for bit.
uint64_t Fold(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ull;
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("scale", "2", "scenario scale");
  flags.Define("seed", "42", "scenario seed");
  flags.Define("flagged-out", "", "Algorithm 2 verdict node ids output");
  flags.DefineBool("trace", "time each layer call and report the spans");
  util::Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) return Fail(parsed);

  const bool trace = flags.GetBool("trace");
  Spans spans(trace);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  eval::PipelineOptions options;
  options.scale = flags.GetDouble("scale");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));

  auto run = spans.Time("eval.pipeline",
                        [&] { return eval::RunPipeline(options); });
  if (!run.ok()) return Fail(run.status());
  const eval::PipelineResult& r = run.value();
  const std::string pipeline_counters = trace ? registry.SnapshotJson() : "";

  auto thresholds = spans.Time("eval.precision", [&] {
    return eval::ThresholdsFromGroups(eval::SplitIntoGroups(r.sample, 20));
  });

  // The five cores of Figure 5, drawn as the paper bench draws them.
  util::Rng rng(options.seed + 17);
  std::vector<std::vector<graph::NodeId>> cores =
      spans.Time("core.cores", [&] {
        return std::vector<std::vector<graph::NodeId>>{
            r.good_core, core::SubsampleCore(r.good_core, 0.1, &rng),
            core::SubsampleCore(r.good_core, 0.01, &rng),
            core::SubsampleCore(r.good_core, 0.001, &rng),
            core::FilterCoreByRegion(r.good_core, r.web.region_of_node,
                                     r.web.RegionIndex("it"))};
      });

  const double reestimate_cpu0 = trace ? perfbench::ProcessCpuSeconds() : 0;
  uint64_t digest = 1469598103934665603ull;
  std::vector<double> top_precision;
  for (const std::vector<graph::NodeId>& core : cores) {
    if (core.empty()) {
      top_precision.push_back(-1);
      continue;
    }
    auto sample = spans.Time("eval.reestimate", [&] {
      return eval::ReestimateWithCore(r, core, options);
    });
    if (!sample.ok()) return Fail(sample.status());
    auto curve = spans.Time("eval.precision", [&] {
      return eval::ComputePrecisionCurve(sample.value().sample, thresholds);
    });
    for (const eval::PrecisionPoint& point : curve) {
      digest = Fold(digest, &point.threshold, sizeof(point.threshold));
      digest = Fold(digest, &point.precision_including_anomalous,
                    sizeof(double));
      digest = Fold(digest, &point.precision_excluding_anomalous,
                    sizeof(double));
    }
    top_precision.push_back(
        curve.empty() ? -1 : curve.front().precision_including_anomalous);
  }
  const double reestimate_cpu =
      trace ? perfbench::ProcessCpuSeconds() - reestimate_cpu0 : 0;
  const std::string final_counters = trace ? registry.SnapshotJson() : "";

  // Algorithm 2 over the full-core estimates: the workload's verdicts.
  core::DetectorConfig detection;
  detection.scaled_pagerank_threshold = options.scaled_rho;
  const std::vector<core::SpamCandidate> candidates = spans.Time(
      "core.detect",
      [&] { return core::DetectSpamCandidates(r.estimates, detection); });
  if (!flags.GetString("flagged-out").empty()) {
    std::string ids;
    for (const core::SpamCandidate& c : candidates) {
      ids += std::to_string(c.node) + "\n";
    }
    util::Status status =
        util::WriteTextFile(flags.GetString("flagged-out"), ids);
    if (!status.ok()) return Fail(status);
  }

  util::JsonWriter json;
  json.BeginObject();
  json.KV("build_type", perfbench::BuildType());
  json.KV("nodes", r.web.graph.num_nodes());
  json.KV("edges", r.web.graph.num_edges());
  json.KV("curve_digest", digest);
  json.KV("thresholds", static_cast<uint64_t>(thresholds.size()));
  json.Key("top_precision").BeginArray();
  for (double p : top_precision) json.Double(p);
  json.EndArray();
  json.KV("flagged", static_cast<uint64_t>(candidates.size()));
  if (trace) {
    json.Key("spans");
    spans.Write(&json);
    json.KV("reestimate_cpu_s", reestimate_cpu);
    json.Key("counters_after_pipeline").RawValue(pipeline_counters);
    json.Key("counters_final").RawValue(final_counters);
  }
  json.EndObject();
  std::printf("%s\n", json.TakeString().c_str());
  return 0;
}

#include "pipeline/pipeline.h"

#include <algorithm>
#include <memory>

#include "graph/reorder.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace spammass::pipeline {

using util::Result;

namespace {

/// Builds the permuted working copy the detectors run on when the config
/// requests a reordering: graph rows, labels and good core all move to the
/// new IDs together, so every artifact computed downstream is the same
/// mathematical object under a relabeling.
LoadedGraph PermuteLoadedGraph(const LoadedGraph& loaded,
                               const graph::Reordering& reordering) {
  const uint32_t n = loaded.web.graph.num_nodes();
  LoadedGraph permuted;
  permuted.web.graph = graph::ApplyReordering(loaded.web.graph, reordering);
  if (loaded.web.labels.num_nodes() == n) {
    permuted.web.labels = core::LabelStore(n);
    for (graph::NodeId x = 0; x < n; ++x) {
      permuted.web.labels.Set(reordering.perm[x], loaded.web.labels.Get(x));
    }
  }
  permuted.good_core = graph::MapNodeIds(loaded.good_core, reordering.perm);
  std::sort(permuted.good_core.begin(), permuted.good_core.end());
  permuted.format = loaded.format;
  permuted.has_labels = loaded.has_labels;
  permuted.description = loaded.description;
  return permuted;
}

}  // namespace

Result<PipelineRun> RunDetectors(
    LoadedGraph loaded, const PipelineConfig& config,
    const std::vector<std::string>& detector_names) {
  obs::ScopedStageTimer total_timer("pipeline.run", nullptr);

  // Resolve every name before any solve: an unknown detector fails the
  // run without wasting a PageRank.
  std::vector<std::unique_ptr<Detector>> detectors;
  detectors.reserve(detector_names.size());
  for (const std::string& name : detector_names) {
    auto detector = DetectorRegistry::Global().Create(name);
    if (!detector.ok()) return detector.status();
    detectors.push_back(std::move(detector.value()));
  }

  // Optional locality pass: detectors run over the permuted copy; every
  // node-indexed output is mapped back below, and run.source stays the
  // original-ID graph.
  const bool reordered = config.reorder != graph::ReorderKind::kNone;
  graph::Reordering reordering;
  LoadedGraph permuted;
  StageTiming reorder_timing{"reorder", 0, {}};
  if (reordered) {
    obs::ScopedStageTimer timer("reorder", nullptr);
    timer.span().Arg("kind", graph::ReorderKindToString(config.reorder));
    reordering = graph::ComputeReordering(loaded.web.graph, config.reorder);
    permuted = PermuteLoadedGraph(loaded, reordering);
    reorder_timing.seconds = timer.Seconds();
  }
  LoadedGraph& working = reordered ? permuted : loaded;

  PipelineContext context(working, config);
  ArtifactNeeds needs;
  for (const auto& detector : detectors) {
    needs = needs.Union(detector->Needs(context));
  }
  util::Status status = context.Prepare(needs);
  if (!status.ok()) return status;

  static obs::Counter* detector_runs_counter =
      obs::MetricsRegistry::Global().GetCounter("pipeline.detector_runs");
  PipelineRun run;
  for (const auto& detector : detectors) {
    obs::ScopedStageTimer timer("detector_run", nullptr);
    timer.span().Arg("detector", detector->name());
    detector_runs_counter->Increment();
    auto output = detector->Run(context);
    if (!output.ok()) return output.status();
    output.value().seconds = timer.Seconds();
    if (reordered) {
      // Back to original IDs: verdict x lives at permuted slot perm[x];
      // candidate nodes are permuted IDs, so they map through inverse.
      DetectorOutput& out = output.value();
      const uint32_t n = loaded.web.graph.num_nodes();
      if (out.flagged.size() == n) {
        std::vector<bool> flagged_orig(n);
        for (graph::NodeId x = 0; x < n; ++x) {
          flagged_orig[x] = out.flagged[reordering.perm[x]];
        }
        out.flagged = std::move(flagged_orig);
      }
      for (core::SpamCandidate& candidate : out.candidates) {
        candidate.node = reordering.inverse[candidate.node];
      }
    }
    run.detectors.push_back(std::move(output.value()));
  }

  // The load stage predates this function (the source was loaded by the
  // caller), so it carries wall time only — no hardware counts.
  run.stages.push_back({"load", loaded.load_seconds, {}});
  if (reordered) run.stages.push_back(reorder_timing);
  for (const StageTiming& stage : context.stage_timings()) {
    run.stages.push_back(stage);
  }
  run.base_pagerank_solves = context.base_pagerank_solves();
  run.total_solves = context.total_solves();
  run.solve_stats = context.solve_stats();
  run.total_seconds = total_timer.Seconds();

  ManifestInputs manifest;
  manifest.source = &loaded;
  manifest.config = &config;
  manifest.stages = run.stages;
  manifest.base_pagerank_solves = run.base_pagerank_solves;
  manifest.total_solves = run.total_solves;
  manifest.solve_stats = run.solve_stats;
  manifest.detectors = &run.detectors;
  manifest.total_seconds = run.total_seconds;
  run.manifest_json = BuildManifestJson(manifest);

  run.source = std::move(loaded);
  return run;
}

Result<PipelineRun> RunDetectors(
    GraphSource& source, const PipelineConfig& config,
    const std::vector<std::string>& detector_names,
    util::ThreadPool* load_pool) {
  auto loaded = source.Load(load_pool);
  if (!loaded.ok()) return loaded.status();
  return RunDetectors(std::move(loaded.value()), config, detector_names);
}

}  // namespace spammass::pipeline

// The benchmark's workloads and the traced pipeline they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "core/pipeline.h"

namespace perfbench {

Outcome RunBatchSwde(const Options& options);
Outcome RunBatchDist(const Options& options);
/// `recrawl` selects serve_recrawl's near-duplicate mix; otherwise every
/// page is fresh (serve_fresh).
Outcome RunServe(const Options& options, bool recrawl);
/// The benchmark's own tests; returns the number of failures.
int RunSelfTest(const std::string& work_dir);

/// Work counters the traced pipeline collects at each layer
/// boundary, summed over every site it drives.
struct LayerTally {
  int64_t sites = 0;
  int64_t pages_parsed = 0;
  int64_t parse_allocs = 0;
  int64_t clusters = 0;
  int64_t matched_pages = 0;
  int64_t mentions = 0;
  int64_t annotation_pages = 0;
  int64_t topics_accepted = 0;
  int64_t annotations = 0;
  int64_t models = 0;
  int64_t model_features = 0;
  double train_cpu_ms = 0;
  int64_t extraction_pages = 0;
  int64_t triples = 0;
};

/// What the traced pipeline produces for one site: RunPipeline's
/// extractions and models, reproduced stage by stage.
struct TracedSite {
  std::vector<ceres::Extraction> extractions;
  std::vector<ceres::ClusterModel> models;
};

/// Parses `pages` and runs cluster -> topic -> annotate -> train ->
/// extract serially on the calling thread, in pipeline.cc's order and with
/// RunPipeline's default configuration (clustering on, min cluster size 5,
/// the given annotation/extraction split), recording a span around every
/// public call. False when a page fails to parse.
bool TracedPipeline(const std::vector<ceres::synth::GeneratedPage>& pages,
                    const ceres::KnowledgeBase& kb,
                    const std::vector<ceres::PageIndex>& annotate,
                    const std::vector<ceres::PageIndex>& extract,
                    Tracer* tracer, LayerTally* tally, TracedSite* out);

/// Sets the per-layer metrics derived from a LayerTally and the tracer's
/// span totals (dom, cluster, kb.match, core).
void SetPipelineLayerMetrics(const LayerTally& tally, const Tracer& tracer,
                             Metrics* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

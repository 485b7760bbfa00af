#ifndef CERES_CORE_PIPELINE_H_
#define CERES_CORE_PIPELINE_H_

#include <string>
#include <vector>

#include "cluster/page_clustering.h"
#include "core/extractor.h"
#include "core/relation_annotator.h"
#include "core/topic_identification.h"
#include "core/training.h"
#include "core/types.h"
#include "kb/knowledge_base.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/status.h"

namespace ceres {

/// End-to-end configuration of the CERES pipeline (Figure 3):
/// page clustering -> topic identification -> relation annotation ->
/// training -> extraction.
struct PipelineConfig {
  /// Group pages into template clusters before annotating (§2.1). Disable
  /// when the caller guarantees single-template input.
  bool cluster_pages = true;
  /// Clusters smaller than this are skipped entirely.
  size_t min_cluster_size = 5;

  PageClusteringConfig clustering;
  TopicConfig topic;
  AnnotatorConfig annotator;
  FeatureConfig features;
  TrainingConfig training;
  ExtractionConfig extraction;

  /// Pages (global indices) eligible for annotation/training; empty = all.
  /// The paper's SWDE/IMDb protocol annotates one half and evaluates
  /// extraction on the other half.
  std::vector<PageIndex> annotation_pages;
  /// Pages to extract from; empty = all.
  std::vector<PageIndex> extraction_pages;

  /// Optional trace sink. When set, the run records stage spans
  /// ("pipeline" → "clustering" / "clusters" → "cluster" →
  /// "topic"/"annotate"/"train"/"extract") into this tree; per-cluster
  /// spans aggregate across the ParallelFor workers. Null = no tracing.
  /// The tree must outlive the RunPipeline call. See DESIGN.md
  /// "Observability".
  obs::TraceTree* trace = nullptr;

  /// Batch fan-out. Independent template clusters run concurrently; with a
  /// single cluster the budget moves to the per-page inner loops (entity
  /// matching, lexicon mining, extraction) instead. Workers write
  /// pre-sized per-cluster slots merged in cluster-id order, so the
  /// PipelineResult is identical at any thread count. Default Sequential()
  /// preserves the historical single-threaded behavior.
  ParallelConfig parallel = ParallelConfig::Sequential();
};

/// A model trained for one template cluster, reusable on later crawls of
/// the same site (persist with core/model_io.h).
struct ClusterModel {
  int cluster = 0;
  TrainedModel model;
};

/// Stages a cluster moves through, in order; used to type diagnostics.
enum class PipelineStage {
  kClustering = 0,
  kTopicIdentification,
  kAnnotation,
  kTraining,
  kExtraction,
};
inline constexpr int kNumPipelineStages = 5;

/// Human-readable stage name ("clustering", ...).
const char* PipelineStageName(PipelineStage stage);

/// A page excluded from the run, with the typed reason. Produced by
/// resilient crawl loading (robustness/resilient_loader.h) and carried in
/// the diagnostics so downstream accounting sees exactly which pages were
/// dropped and why. `page` indexes the caller's original page order.
struct QuarantinedPage {
  PageIndex page = 0;
  std::string url;
  Status reason;
};

/// A cluster the pipeline gave up on: at which stage and why. The reason
/// Status is typed (kFailedPrecondition for the size filter, kNotFound for
/// zero annotations, the trainer's own code for training failures).
struct ClusterSkip {
  int cluster = -1;
  PipelineStage stage = PipelineStage::kClustering;
  Status reason;
};

/// Per-stage outcome counters at cluster granularity.
struct StageCounts {
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t skipped = 0;
};

/// Structured record of everything a pipeline run dropped or skipped — the
/// machine-readable replacement for grepping log lines.
/// A run that degrades (quarantined pages, skipped clusters) still returns
/// OK; the diagnostics say what was lost.
struct PipelineDiagnostics {
  /// Pages quarantined before the pipeline saw them (resilient loading).
  std::vector<QuarantinedPage> quarantined_pages;
  /// Clusters abandoned mid-pipeline, in cluster order.
  std::vector<ClusterSkip> skipped_clusters;
  /// Outcome counts per stage, indexed by PipelineStage.
  StageCounts stages[kNumPipelineStages];
  /// KB name lookups made by entity matching: one per text field of every
  /// annotation page whose cluster reached topic identification.
  int64_t mention_lookups = 0;
  /// The lookups that matched at least one entity (<= mention_lookups).
  int64_t mention_hits = 0;

  StageCounts& counts(PipelineStage stage) {
    return stages[static_cast<int>(stage)];
  }
  const StageCounts& counts(PipelineStage stage) const {
    return stages[static_cast<int>(stage)];
  }
  /// Skips of one cluster (empty when it completed).
  std::vector<ClusterSkip> SkipsForCluster(int cluster) const;
  /// Multi-line human-readable rendering for logs and CLI tools.
  std::string Summary() const;
};

/// Everything the evaluation benches need from one pipeline run.
struct PipelineResult {
  /// Template cluster of each page (all pages; -1 only if clustering was
  /// skipped for size).
  std::vector<int> cluster_of_page;
  /// Identified topic entity per page (kInvalidEntity when none); covers
  /// annotation pages only.
  std::vector<EntityId> topic_of_page;
  /// Node carrying the topic name per page.
  std::vector<NodeId> topic_node_of_page;
  /// All (noisy) training annotations produced, incl. NAME labels.
  std::vector<Annotation> annotations;
  /// Pages that contributed training data.
  std::vector<PageIndex> annotated_pages;
  /// Final extractions across all requested pages.
  std::vector<Extraction> extractions;
  /// The trained per-cluster extractor models, largest cluster first.
  std::vector<ClusterModel> models;
  /// What the run dropped or skipped.
  PipelineDiagnostics diagnostics;
};

/// Runs the full CERES pipeline over the pages of one website.
///
/// Never fails outright for data reasons: clusters that produce no
/// annotations simply contribute no extractions (the correct outcome for
/// sites without usable detail pages, §5.5). Returns an error only for
/// malformed configuration.
Result<PipelineResult> RunPipeline(const std::vector<DomDocument>& pages,
                                   const KnowledgeBase& kb,
                                   const PipelineConfig& config = {});

/// Adds one run's batch counters to `registry`, read from the run's own
/// result: `ceres_pipeline_{runs,pages,clusters,cluster_skips}_total`,
/// `ceres_kb_mention_{lookups,hits}_total` from the diagnostics, and
/// `ceres_train_{fits,fits_capped,lbfgs_iterations,objective_evals}_total`
/// summed over `result.models[i].model.fit`. A fit is capped when it
/// stopped unconverged at kLogRegMaxIterations.
void AddPipelineCounters(const PipelineResult& result,
                         obs::MetricsRegistry* registry);

}  // namespace ceres

#endif  // CERES_CORE_PIPELINE_H_

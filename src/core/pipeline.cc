#include "core/pipeline.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "core/entity_matcher.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ceres {

namespace {

// Resolves the "empty means all" page-set convention.
std::vector<PageIndex> ResolvePageSet(const std::vector<PageIndex>& requested,
                                      size_t num_pages) {
  if (!requested.empty()) return requested;
  std::vector<PageIndex> all(num_pages);
  for (size_t i = 0; i < num_pages; ++i) all[i] = static_cast<PageIndex>(i);
  return all;
}

// Everything one cluster contributes to the merged PipelineResult. Workers
// fill disjoint, pre-sized slots; the merge below appends them in
// cluster-id order, so a parallel run reproduces the serial output byte
// for byte.
struct ClusterOutcome {
  StageCounts stages[kNumPipelineStages];
  std::vector<ClusterSkip> skips;
  int64_t mention_lookups = 0;
  int64_t mention_hits = 0;
  std::vector<Annotation> annotations;     // global page indices
  std::vector<PageIndex> annotated_pages;  // global page indices
  std::vector<Extraction> extractions;
  std::vector<ClusterModel> models;        // zero or one entry
};

Status ValidateConfig(const std::vector<DomDocument>& pages,
                      const KnowledgeBase& kb, const PipelineConfig& config) {
  if (!kb.frozen()) {
    return Status::FailedPrecondition("knowledge base must be frozen");
  }
  if (pages.empty()) {
    return Status::InvalidArgument("no pages given");
  }
  for (PageIndex page : config.annotation_pages) {
    if (page < 0 || static_cast<size_t>(page) >= pages.size()) {
      return Status::InvalidArgument(
          StrCat("annotation page out of range: ", page));
    }
  }
  for (PageIndex page : config.extraction_pages) {
    if (page < 0 || static_cast<size_t>(page) >= pages.size()) {
      return Status::InvalidArgument(
          StrCat("extraction page out of range: ", page));
    }
  }
  return Status::Ok();
}

}  // namespace

const char* PipelineStageName(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kClustering:
      return "clustering";
    case PipelineStage::kTopicIdentification:
      return "topic identification";
    case PipelineStage::kAnnotation:
      return "annotation";
    case PipelineStage::kTraining:
      return "training";
    case PipelineStage::kExtraction:
      return "extraction";
  }
  return "unknown";
}

std::vector<ClusterSkip> PipelineDiagnostics::SkipsForCluster(
    int cluster) const {
  std::vector<ClusterSkip> out;
  for (const ClusterSkip& skip : skipped_clusters) {
    if (skip.cluster == cluster) out.push_back(skip);
  }
  return out;
}

std::string PipelineDiagnostics::Summary() const {
  std::string out = "pipeline diagnostics:\n";
  out += StrCat("  quarantined pages: ", quarantined_pages.size(), "\n");
  for (int s = 0; s < kNumPipelineStages; ++s) {
    const StageCounts& c = stages[s];
    if (c.attempted == 0 && c.skipped == 0) continue;
    out += StrCat("  ", PipelineStageName(static_cast<PipelineStage>(s)),
                  ": attempted ", c.attempted, ", completed ", c.completed,
                  ", skipped ", c.skipped, "\n");
  }
  for (const ClusterSkip& skip : skipped_clusters) {
    out += StrCat("  cluster ", skip.cluster, " skipped at ",
                  PipelineStageName(skip.stage), ": ",
                  skip.reason.ToString(), "\n");
  }
  return out;
}

Result<PipelineResult> RunPipeline(const std::vector<DomDocument>& pages,
                                   const KnowledgeBase& kb,
                                   const PipelineConfig& config) {
  CERES_RETURN_IF_ERROR(
      PrependContext(ValidateConfig(pages, kb, config), "pipeline config"));

  PipelineResult result;
  PipelineDiagnostics& diag = result.diagnostics;
  result.topic_of_page.assign(pages.size(), kInvalidEntity);
  result.topic_node_of_page.assign(pages.size(), kInvalidNode);

  obs::TraceSpan run_span(config.trace, "pipeline");

  // 1. Template clustering.
  diag.counts(PipelineStage::kClustering).attempted = 1;
  {
    obs::TraceSpan clustering_span(run_span, "clustering");
    if (config.cluster_pages) {
      result.cluster_of_page = ClusterPages(pages, config.clustering);
    } else {
      result.cluster_of_page.assign(pages.size(), 0);
    }
  }
  ++diag.counts(PipelineStage::kClustering).completed;
  int num_clusters = 0;
  for (int cluster : result.cluster_of_page) {
    num_clusters = std::max(num_clusters, cluster + 1);
  }

  const std::vector<PageIndex> annotation_pages =
      ResolvePageSet(config.annotation_pages, pages.size());
  const std::vector<PageIndex> extraction_pages =
      ResolvePageSet(config.extraction_pages, pages.size());

  // Bucket the annotation/extraction page sets per cluster in one pass
  // over each set (the serial loop used to rescan every page per cluster).
  std::vector<std::vector<PageIndex>> cluster_annotation(
      static_cast<size_t>(num_clusters));
  std::vector<std::vector<PageIndex>> cluster_extraction(
      static_cast<size_t>(num_clusters));
  for (PageIndex page : annotation_pages) {
    int cluster = result.cluster_of_page[static_cast<size_t>(page)];
    if (cluster >= 0) {
      cluster_annotation[static_cast<size_t>(cluster)].push_back(page);
    }
  }
  for (PageIndex page : extraction_pages) {
    int cluster = result.cluster_of_page[static_cast<size_t>(page)];
    if (cluster >= 0) {
      cluster_extraction[static_cast<size_t>(cluster)].push_back(page);
    }
  }

  // Thread-budget placement: with several clusters the fan-out is across
  // clusters (the inner per-page loops run inline in each worker); with a
  // single cluster the per-page loops get the budget instead. Nested
  // fan-out is never used — it would oversubscribe without speeding
  // anything up.
  const bool single_cluster = num_clusters <= 1;
  const ParallelConfig outer_parallel =
      single_cluster ? ParallelConfig::Sequential() : config.parallel;
  const ParallelConfig inner_parallel =
      single_cluster ? config.parallel : ParallelConfig::Sequential();

  std::vector<ClusterOutcome> outcomes(static_cast<size_t>(num_clusters));
  obs::TraceSpan clusters_span(run_span, "clusters");
  ParallelFor(static_cast<size_t>(num_clusters), outer_parallel, [&](size_t c) {
    const int cluster = static_cast<int>(c);
    ClusterOutcome& out = outcomes[c];
    // Per-cluster spans from concurrent workers fold into shared
    // "clusters/cluster/<stage>" nodes (TraceTree is internally locked);
    // RAII ends them on every early return below.
    obs::TraceSpan cluster_span(clusters_span, "cluster");
    auto count = [&out](PipelineStage stage) -> StageCounts& {
      return out.stages[static_cast<int>(stage)];
    };
    auto skip_cluster = [&](PipelineStage stage, Status reason) {
      LogInfo(StrCat("cluster ", cluster, ": skipped at ",
                     PipelineStageName(stage), ": ", reason.ToString()));
      ++count(stage).skipped;
      out.skips.push_back(ClusterSkip{cluster, stage, std::move(reason)});
    };

    const std::vector<PageIndex>& annotation_set = cluster_annotation[c];
    const std::vector<PageIndex>& extraction_set = cluster_extraction[c];
    if (annotation_set.size() < config.min_cluster_size) {
      skip_cluster(PipelineStage::kClustering,
                   Status::FailedPrecondition(
                       StrCat("only ", annotation_set.size(),
                              " annotation pages; min_cluster_size=",
                              config.min_cluster_size)));
      return;
    }
    LogInfo(StrCat("cluster ", cluster, ": ", annotation_set.size(),
                   " annotation pages, ", extraction_set.size(),
                   " extraction pages"));

    std::vector<const DomDocument*> annotation_docs;
    annotation_docs.reserve(annotation_set.size());
    for (PageIndex page : annotation_set) {
      annotation_docs.push_back(&pages[static_cast<size_t>(page)]);
    }

    // 2. Entity matching + topic identification on annotation pages.
    obs::TraceSpan topic_span(cluster_span, "topic");
    ++count(PipelineStage::kTopicIdentification).attempted;
    // Per-page matching is independent; each iteration fills its own slot.
    std::vector<PageMentions> mentions(annotation_docs.size());
    ParallelFor(annotation_docs.size(), inner_parallel, [&](size_t i) {
      mentions[i] = MatchPageMentions(*annotation_docs[i], kb);
    });
    // MatchPageMentions looks up every text field once and keeps the hits.
    for (size_t i = 0; i < annotation_docs.size(); ++i) {
      out.mention_lookups +=
          static_cast<int64_t>(annotation_docs[i]->TextFields().size());
      out.mention_hits += static_cast<int64_t>(mentions[i].fields.size());
    }
    TopicResult topics =
        IdentifyTopics(annotation_docs, mentions, kb, config.topic);
    ++count(PipelineStage::kTopicIdentification).completed;
    // Disjoint per-page writes: every page belongs to exactly one cluster.
    for (size_t i = 0; i < annotation_set.size(); ++i) {
      const size_t page = static_cast<size_t>(annotation_set[i]);
      result.topic_of_page[page] = topics.topic[i];
      result.topic_node_of_page[page] = topics.topic_node[i];
    }
    topic_span.End();

    // 3. Relation annotation (Algorithm 2). Local indices map 1:1 onto
    // annotation_docs; translate to global page indices afterwards.
    obs::TraceSpan annotate_span(cluster_span, "annotate");
    ++count(PipelineStage::kAnnotation).attempted;
    AnnotationResult annotation = AnnotateRelations(
        annotation_docs, mentions, topics, kb, config.annotator);
    if (annotation.annotations.empty()) {
      skip_cluster(PipelineStage::kAnnotation,
                   Status::NotFound("no annotations produced"));
      return;
    }
    ++count(PipelineStage::kAnnotation).completed;
    std::vector<Annotation> local_annotations = annotation.annotations;
    for (Annotation& a : annotation.annotations) {
      a.page = annotation_set[static_cast<size_t>(a.page)];
      out.annotations.push_back(a);
    }
    for (PageIndex local : annotation.annotated_pages) {
      out.annotated_pages.push_back(
          annotation_set[static_cast<size_t>(local)]);
    }
    annotate_span.End();

    // 4. Training on the cluster's annotated pages. Lexicon mining may fan
    // out; featurization inside TrainExtractor stays serial because the
    // HashedFeatureMap interning order defines the dense feature indices.
    obs::TraceSpan train_span(cluster_span, "train");
    ++count(PipelineStage::kTraining).attempted;
    FeatureConfig feature_config = config.features;
    feature_config.parallel = inner_parallel;
    FeatureExtractor featurizer(annotation_docs, feature_config);
    Result<TrainedModel> trained =
        TrainExtractor(annotation_docs, local_annotations, featurizer,
                       kb.ontology(), config.training);
    if (!trained.ok()) {
      skip_cluster(PipelineStage::kTraining, trained.status());
      return;
    }
    ++count(PipelineStage::kTraining).completed;
    train_span.End();

    // 5. Extraction over the cluster's extraction pages.
    obs::TraceSpan extract_span(cluster_span, "extract");
    ++count(PipelineStage::kExtraction).attempted;
    std::vector<const DomDocument*> extraction_docs;
    extraction_docs.reserve(extraction_set.size());
    for (PageIndex page : extraction_set) {
      extraction_docs.push_back(&pages[static_cast<size_t>(page)]);
    }
    ExtractionConfig extraction_config = config.extraction;
    extraction_config.parallel = inner_parallel;
    out.extractions =
        ExtractFromPages(extraction_docs, extraction_set, &trained.value(),
                         featurizer, extraction_config);
    out.models.push_back(ClusterModel{cluster, std::move(trained).value()});
    ++count(PipelineStage::kExtraction).completed;
  });
  clusters_span.End();

  // Deterministic merge in cluster-id order: the concatenation below is
  // exactly what the serial loop appended as it went.
  for (ClusterOutcome& out : outcomes) {
    for (int s = 0; s < kNumPipelineStages; ++s) {
      diag.stages[s].attempted += out.stages[s].attempted;
      diag.stages[s].completed += out.stages[s].completed;
      diag.stages[s].skipped += out.stages[s].skipped;
    }
    diag.mention_lookups += out.mention_lookups;
    diag.mention_hits += out.mention_hits;
    std::move(out.skips.begin(), out.skips.end(),
              std::back_inserter(diag.skipped_clusters));
    std::move(out.annotations.begin(), out.annotations.end(),
              std::back_inserter(result.annotations));
    std::move(out.annotated_pages.begin(), out.annotated_pages.end(),
              std::back_inserter(result.annotated_pages));
    std::move(out.extractions.begin(), out.extractions.end(),
              std::back_inserter(result.extractions));
    std::move(out.models.begin(), out.models.end(),
              std::back_inserter(result.models));
  }

  std::sort(result.annotated_pages.begin(), result.annotated_pages.end());
  return result;
}

void AddPipelineCounters(const PipelineResult& result,
                         obs::MetricsRegistry* registry) {
  const auto add = [registry](const char* name, int64_t value) {
    registry->GetCounter(name)->Increment(value);
  };
  int num_clusters = 0;
  for (int cluster : result.cluster_of_page) {
    num_clusters = std::max(num_clusters, cluster + 1);
  }
  const PipelineDiagnostics& diag = result.diagnostics;
  add("ceres_pipeline_runs_total", 1);
  add("ceres_pipeline_pages_total",
      static_cast<int64_t>(result.cluster_of_page.size()));
  add("ceres_pipeline_clusters_total", num_clusters);
  add("ceres_pipeline_cluster_skips_total",
      static_cast<int64_t>(diag.skipped_clusters.size()));
  add("ceres_kb_mention_lookups_total", diag.mention_lookups);
  add("ceres_kb_mention_hits_total", diag.mention_hits);
  int64_t capped = 0;
  int64_t iterations = 0;
  int64_t evaluations = 0;
  for (const ClusterModel& cluster : result.models) {
    const LbfgsResult& fit = cluster.model.fit;
    if (!fit.converged && fit.iterations >= kLogRegMaxIterations) ++capped;
    iterations += fit.iterations;
    evaluations += fit.evaluations;
  }
  add("ceres_train_fits_total", static_cast<int64_t>(result.models.size()));
  add("ceres_train_fits_capped_total", capped);
  add("ceres_train_lbfgs_iterations_total", iterations);
  add("ceres_train_objective_evals_total", evaluations);
}

}  // namespace ceres

// Thread-count determinism of the batch pipeline: RunPipeline at
// parallel.threads = 8 must produce a PipelineResult identical, field by
// field, to the serial run — annotations, extractions, model weights,
// diagnostics and all. Runs under the tsan ctest label so ThreadSanitizer
// also sweeps the cluster fan-out and the per-page inner loops for data
// races.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/entity_matcher.h"
#include "dom/html_parser.h"
#include "dom/html_serializer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/corpora.h"
#include "synth/kb_builder.h"

namespace ceres {
namespace {

/// Two templates over one movie world: distinct css prefixes and section
/// mixes, so clustering yields two independent clusters — the unit the
/// pipeline fans out across.
class PipelineParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::MovieWorldConfig config;
    config.scale = 0.25;
    world_ = new synth::World(synth::BuildMovieWorld(config));
    synth::SeedKbConfig kb_config;
    kb_config.default_coverage = 0.9;
    seed_kb_ = new KnowledgeBase(synth::BuildSeedKb(*world_, kb_config));

    TypeId film = *world_->kb.ontology().TypeByName("film");
    const auto& films = world_->OfType(film);

    synth::SiteSpec a;
    a.name = "alpha.example";
    a.seed = 7;
    a.tmpl.topic_type = "film";
    a.tmpl.css_prefix = "pa";
    a.tmpl.num_recommendations = 3;
    a.tmpl.sections = {
        {synth::pred::kFilmDirectedBy, "director", synth::SectionLayout::kRow,
         0.05, 3},
        {synth::pred::kFilmHasCastMember, "cast",
         synth::SectionLayout::kList, 0.05, 12},
        {synth::pred::kFilmReleaseDate, "release_date",
         synth::SectionLayout::kRow, 0.05, 1},
    };
    a.topics.assign(films.begin(), films.begin() + 40);

    // Deliberately far from template A — table layouts, no nav/footer,
    // year-suffixed titles — so the two sites stay below the clustering
    // similarity threshold and land in separate clusters.
    synth::SiteSpec b;
    b.name = "beta.example";
    b.seed = 13;
    b.tmpl.topic_type = "film";
    b.tmpl.css_prefix = "pb";
    b.tmpl.nav = false;
    b.tmpl.footer = false;
    b.tmpl.title_year_suffix = true;
    b.tmpl.sections = {
        {synth::pred::kFilmWrittenBy, "writer", synth::SectionLayout::kTable,
         0.05, 4},
        {synth::pred::kFilmHasGenre, "genre", synth::SectionLayout::kTable,
         0.05, 5},
        {synth::pred::kFilmHasCastMember, "cast",
         synth::SectionLayout::kTable, 0.05, 10},
        {synth::pred::kFilmReleaseDate, "release_date",
         synth::SectionLayout::kTable, 0.05, 1},
    };
    b.topics.assign(films.begin() + 40, films.begin() + 80);

    pages_ = new std::vector<DomDocument>();
    split_ = new size_t(0);
    for (const synth::SiteSpec& spec : {a, b}) {
      for (const synth::GeneratedPage& page :
           GenerateSite(*world_, spec)) {
        Result<DomDocument> parsed = ParseHtml(page.html);
        ASSERT_TRUE(parsed.ok());
        pages_->push_back(std::move(parsed).value());
      }
      if (spec.name == a.name) *split_ = pages_->size();
    }
  }

  static void TearDownTestSuite() {
    delete pages_;
    delete split_;
    delete seed_kb_;
    delete world_;
    pages_ = nullptr;
    split_ = nullptr;
    seed_kb_ = nullptr;
    world_ = nullptr;
  }

  static PipelineResult Run(const std::vector<DomDocument>& pages,
                            int threads, obs::TraceTree* trace = nullptr) {
    PipelineConfig config;
    config.parallel.threads = threads;
    config.trace = trace;
    Result<PipelineResult> result = RunPipeline(pages, *seed_kb_, config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  static void ExpectSameResult(const PipelineResult& a,
                               const PipelineResult& b) {
    EXPECT_EQ(a.cluster_of_page, b.cluster_of_page);
    EXPECT_EQ(a.topic_of_page, b.topic_of_page);
    EXPECT_EQ(a.topic_node_of_page, b.topic_node_of_page);
    EXPECT_EQ(a.annotated_pages, b.annotated_pages);

    ASSERT_EQ(a.annotations.size(), b.annotations.size());
    for (size_t i = 0; i < a.annotations.size(); ++i) {
      EXPECT_EQ(a.annotations[i].page, b.annotations[i].page);
      EXPECT_EQ(a.annotations[i].node, b.annotations[i].node);
      EXPECT_EQ(a.annotations[i].predicate, b.annotations[i].predicate);
      EXPECT_EQ(a.annotations[i].object, b.annotations[i].object);
    }

    ASSERT_EQ(a.extractions.size(), b.extractions.size());
    for (size_t i = 0; i < a.extractions.size(); ++i) {
      EXPECT_EQ(a.extractions[i].page, b.extractions[i].page);
      EXPECT_EQ(a.extractions[i].node, b.extractions[i].node);
      EXPECT_EQ(a.extractions[i].predicate, b.extractions[i].predicate);
      EXPECT_EQ(a.extractions[i].subject, b.extractions[i].subject);
      EXPECT_EQ(a.extractions[i].object, b.extractions[i].object);
      // Exact, not approximate: the parallel run must execute the same
      // float operations in the same order as the serial one.
      EXPECT_EQ(a.extractions[i].confidence, b.extractions[i].confidence);
    }

    ASSERT_EQ(a.models.size(), b.models.size());
    for (size_t i = 0; i < a.models.size(); ++i) {
      EXPECT_EQ(a.models[i].cluster, b.models[i].cluster);
      // Byte for byte, like the confidences above.
      const std::vector<double>& wa = a.models[i].model.model.weights();
      const std::vector<double>& wb = b.models[i].model.model.weights();
      ASSERT_EQ(wa.size(), wb.size());
      EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(double)),
                0)
          << "model " << i;
      const LbfgsResult& fa = a.models[i].model.fit;
      const LbfgsResult& fb = b.models[i].model.fit;
      EXPECT_EQ(fa.converged, fb.converged);
      EXPECT_EQ(fa.iterations, fb.iterations);
      EXPECT_EQ(fa.evaluations, fb.evaluations);
      EXPECT_EQ(std::memcmp(&fa.final_objective, &fb.final_objective,
                            sizeof(double)),
                0);
    }

    for (int s = 0; s < kNumPipelineStages; ++s) {
      EXPECT_EQ(a.diagnostics.stages[s].attempted,
                b.diagnostics.stages[s].attempted);
      EXPECT_EQ(a.diagnostics.stages[s].completed,
                b.diagnostics.stages[s].completed);
      EXPECT_EQ(a.diagnostics.stages[s].skipped,
                b.diagnostics.stages[s].skipped);
    }
    EXPECT_EQ(a.diagnostics.mention_lookups, b.diagnostics.mention_lookups);
    EXPECT_EQ(a.diagnostics.mention_hits, b.diagnostics.mention_hits);
    ASSERT_EQ(a.diagnostics.skipped_clusters.size(),
              b.diagnostics.skipped_clusters.size());
    for (size_t i = 0; i < a.diagnostics.skipped_clusters.size(); ++i) {
      EXPECT_EQ(a.diagnostics.skipped_clusters[i].cluster,
                b.diagnostics.skipped_clusters[i].cluster);
      EXPECT_EQ(a.diagnostics.skipped_clusters[i].stage,
                b.diagnostics.skipped_clusters[i].stage);
    }
  }

  static synth::World* world_;
  static KnowledgeBase* seed_kb_;
  static std::vector<DomDocument>* pages_;
  static size_t* split_;  // pages_[0, split_) came from site A
};

synth::World* PipelineParallelTest::world_ = nullptr;
KnowledgeBase* PipelineParallelTest::seed_kb_ = nullptr;
std::vector<DomDocument>* PipelineParallelTest::pages_ = nullptr;
size_t* PipelineParallelTest::split_ = nullptr;

TEST_F(PipelineParallelTest, MultiClusterResultIdenticalAtEightThreads) {
  const PipelineResult serial = Run(*pages_, /*threads=*/1);

  // Precondition: the two templates really landed in different clusters
  // (otherwise this test would not exercise the cluster fan-out).
  int num_clusters = 0;
  for (int cluster : serial.cluster_of_page) {
    num_clusters = std::max(num_clusters, cluster + 1);
  }
  ASSERT_GE(num_clusters, 2);
  ASSERT_FALSE(serial.extractions.empty());

  ExpectSameResult(Run(*pages_, /*threads=*/8), serial);
}

TEST_F(PipelineParallelTest, OddThreadCountAlsoIdentical) {
  const PipelineResult serial = Run(*pages_, /*threads=*/1);
  ExpectSameResult(Run(*pages_, /*threads=*/3), serial);
}

TEST_F(PipelineParallelTest, SingleClusterInnerParallelismIdentical) {
  // One template only: the thread budget moves to the per-page inner
  // loops (entity matching, lexicon mining, extraction), which must be
  // just as deterministic as the cluster fan-out.
  std::vector<DomDocument> site_a;
  for (size_t i = 0; i < *split_; ++i) {
    Result<DomDocument> reparsed =
        ParseHtml(SerializeHtml((*pages_)[i]));
    ASSERT_TRUE(reparsed.ok());
    site_a.push_back(std::move(reparsed).value());
  }
  const PipelineResult serial = Run(site_a, /*threads=*/1);
  ASSERT_FALSE(serial.extractions.empty());
  ExpectSameResult(Run(site_a, /*threads=*/8), serial);
}

TEST_F(PipelineParallelTest, TraceRecordsOneSpanPerStageAttempt) {
  const PipelineResult serial = Run(*pages_, /*threads=*/1);
  obs::TraceTree trace;
  const PipelineResult traced = Run(*pages_, /*threads=*/4, &trace);
  ExpectSameResult(traced, serial);

  int num_clusters = 0;
  for (int cluster : traced.cluster_of_page) {
    num_clusters = std::max(num_clusters, cluster + 1);
  }
  const auto attempted = [&traced](PipelineStage stage) {
    return traced.diagnostics.stages[static_cast<int>(stage)].attempted;
  };
  EXPECT_EQ(trace.SpanCount({"pipeline"}), 1);
  EXPECT_EQ(trace.SpanCount({"pipeline", "clustering"}), 1);
  EXPECT_EQ(trace.SpanCount({"pipeline", "clusters", "cluster"}),
            num_clusters);
  EXPECT_EQ(trace.SpanCount({"pipeline", "clusters", "cluster", "topic"}),
            attempted(PipelineStage::kTopicIdentification));
  EXPECT_EQ(trace.SpanCount({"pipeline", "clusters", "cluster", "annotate"}),
            attempted(PipelineStage::kAnnotation));
  EXPECT_EQ(trace.SpanCount({"pipeline", "clusters", "cluster", "train"}),
            attempted(PipelineStage::kTraining));
  EXPECT_EQ(trace.SpanCount({"pipeline", "clusters", "cluster", "extract"}),
            attempted(PipelineStage::kExtraction));
  EXPECT_GT(attempted(PipelineStage::kExtraction), 0);
}

// The run's batch counts live in its PipelineResult; AddPipelineCounters
// renders them (ceres_extract --trace_json). These suites reuse the
// two-template fixture above.
using KbMentionCountersTest = PipelineParallelTest;
using TrainCountersTest = PipelineParallelTest;

TEST_F(KbMentionCountersTest, CountEveryLookupAndEveryHit) {
  const PipelineResult result = Run(*pages_, /*threads=*/4);
  const PipelineDiagnostics& diag = result.diagnostics;

  // Hand sum: entity matching looks up every text field of every
  // annotation page (all pages here) whose cluster passed the size filter.
  int64_t lookups = 0;
  int64_t hits = 0;
  for (size_t page = 0; page < pages_->size(); ++page) {
    const int cluster = result.cluster_of_page[page];
    bool matched = cluster >= 0;
    for (const ClusterSkip& skip : diag.SkipsForCluster(cluster)) {
      if (skip.stage == PipelineStage::kClustering) matched = false;
    }
    if (!matched) continue;
    const DomDocument& doc = (*pages_)[page];
    lookups += static_cast<int64_t>(doc.TextFields().size());
    hits += static_cast<int64_t>(
        MatchPageMentions(doc, *seed_kb_).fields.size());
  }
  ASSERT_GT(hits, 0);
  EXPECT_LT(hits, lookups);
  EXPECT_EQ(diag.mention_lookups, lookups);
  EXPECT_EQ(diag.mention_hits, hits);

  obs::MetricsRegistry registry;
  AddPipelineCounters(result, &registry);
  const auto value = [&registry](const char* name) {
    return registry.GetCounter(name)->Value();
  };
  EXPECT_EQ(value("ceres_kb_mention_lookups_total"), lookups);
  EXPECT_EQ(value("ceres_kb_mention_hits_total"), hits);
  // The run counters rendered beside them.
  int num_clusters = 0;
  for (int cluster : result.cluster_of_page) {
    num_clusters = std::max(num_clusters, cluster + 1);
  }
  EXPECT_EQ(value("ceres_pipeline_runs_total"), 1);
  EXPECT_EQ(value("ceres_pipeline_pages_total"),
            static_cast<int64_t>(pages_->size()));
  EXPECT_EQ(value("ceres_pipeline_clusters_total"), num_clusters);
  EXPECT_EQ(value("ceres_pipeline_cluster_skips_total"),
            static_cast<int64_t>(diag.skipped_clusters.size()));
}

TEST_F(TrainCountersTest, CountFitsIterationsEvaluationsAndCappedFits) {
  Result<PipelineResult> result = RunPipeline(*pages_, *seed_kb_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->models.size(), 2u);
  // Both fits stop at the 100-iteration cap (they converge after ~250).
  // Marking the first one converged must take it out of the capped count
  // and nothing else.
  for (const bool first_converged : {false, true}) {
    PipelineResult run = *result;
    if (first_converged) run.models.front().model.fit.converged = true;
    int64_t capped = 0;
    int64_t iterations = 0;
    int64_t evaluations = 0;
    for (const ClusterModel& cluster : run.models) {
      const LbfgsResult& fit = cluster.model.fit;
      EXPECT_EQ(fit.iterations, kLogRegMaxIterations);
      if (!fit.converged) ++capped;
      iterations += fit.iterations;
      evaluations += fit.evaluations;
    }
    const int64_t fits = static_cast<int64_t>(run.models.size());
    EXPECT_EQ(capped, first_converged ? fits - 1 : fits);

    obs::MetricsRegistry registry;
    AddPipelineCounters(run, &registry);
    const auto value = [&registry](const char* name) {
      return registry.GetCounter(name)->Value();
    };
    EXPECT_EQ(value("ceres_train_fits_total"), fits);
    EXPECT_EQ(value("ceres_train_fits_capped_total"), capped);
    EXPECT_EQ(value("ceres_train_lbfgs_iterations_total"), iterations);
    EXPECT_EQ(value("ceres_train_objective_evals_total"), evaluations);
  }
}

}  // namespace
}  // namespace ceres

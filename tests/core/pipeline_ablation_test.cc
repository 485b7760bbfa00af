// Ablation tests for the pipeline's configuration switches (the design
// choices DESIGN.md calls out): each switch must move metrics in its
// documented direction on a corpus engineered to exercise it. Algorithm 1's
// steps have no switch; tests/core/topic_identification_test.cc pins each
// one with a fixture that fails without it.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "dom/html_parser.h"
#include "eval/metrics.h"
#include "synth/corpora.h"
#include "synth/kb_builder.h"
#include "synth/truth.h"

namespace ceres {
namespace {

struct ParsedSiteFixture {
  std::vector<DomDocument> pages;
  eval::SiteTruth truth;
};

ParsedSiteFixture ParseSite(const std::vector<synth::GeneratedPage>& pages) {
  ParsedSiteFixture out;
  for (const synth::GeneratedPage& page : pages) {
    Result<DomDocument> parsed = ParseHtml(page.html);
    EXPECT_TRUE(parsed.ok());
    out.pages.push_back(std::move(parsed).value());
  }
  out.truth = synth::BuildSiteTruth(pages, out.pages);
  return out;
}

class PipelineAblationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new synth::Corpus(synth::MakeImdbCorpus(0.12));
    fixture_ = new ParsedSiteFixture(ParseSite(corpus_->sites[0].pages));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    delete corpus_;
    fixture_ = nullptr;
    corpus_ = nullptr;
  }

  PipelineResult Run(const PipelineConfig& config) {
    Result<PipelineResult> result =
        RunPipeline(fixture_->pages, corpus_->seed_kb, config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  static synth::Corpus* corpus_;
  static ParsedSiteFixture* fixture_;
};

synth::Corpus* PipelineAblationTest::corpus_ = nullptr;
ParsedSiteFixture* PipelineAblationTest::fixture_ = nullptr;

TEST_F(PipelineAblationTest, RelationFilteringRaisesAnnotationPrecision) {
  PipelineConfig full;
  PipelineConfig topic_only;
  topic_only.annotator.use_relation_filtering = false;
  eval::Prf full_prf = eval::ScoreAnnotations(
      Run(full).annotations, fixture_->truth, corpus_->seed_kb);
  eval::Prf topic_prf = eval::ScoreAnnotations(
      Run(topic_only).annotations, fixture_->truth, corpus_->seed_kb);
  EXPECT_GT(full_prf.precision(), topic_prf.precision());
  // And pays with (at most equal) recall — the §3.2 trade.
  EXPECT_LE(full_prf.recall(), topic_prf.recall() + 1e-9);
}

TEST_F(PipelineAblationTest, TopicOnlyProducesMoreAnnotations) {
  PipelineConfig full;
  PipelineConfig topic_only;
  topic_only.annotator.use_relation_filtering = false;
  EXPECT_LT(Run(full).annotations.size(),
            Run(topic_only).annotations.size());
}

TEST_F(PipelineAblationTest, ClusteringOffStillRuns) {
  PipelineConfig config;
  config.cluster_pages = false;
  PipelineResult result = Run(config);
  // One merged template cluster: everything trains together. Extraction
  // still happens (quality may differ; that's Table 5's business).
  EXPECT_GT(result.extractions.size(), 0u);
  for (int cluster : result.cluster_of_page) EXPECT_EQ(cluster, 0);
}

TEST_F(PipelineAblationTest, HigherExtractionThresholdNeverAddsVolume) {
  PipelineConfig low;
  low.extraction.confidence_threshold = 0.3;
  PipelineConfig high;
  high.extraction.confidence_threshold = 0.9;
  EXPECT_GE(Run(low).extractions.size(), Run(high).extractions.size());
}

}  // namespace
}  // namespace ceres

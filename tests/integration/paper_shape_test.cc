// Paper-shape assertions: the qualitative results the paper reports,
// checked on the synthetic corpora in the paper's own configuration.
//
// Table 8 (§5.5): on the long-tail corpus at the 0.5 confidence
// threshold, the chart-only site (boxofficemojo) and the near-zero KB
// overlap sites (bcdb, bmxmdb) produce no relation extractions, while the
// mainstream sites (themoviedb, rottentomatoes) extract at >= 0.9
// precision. The pipeline runs with its defaults, so the non-paper
// detail-cluster filter is off.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "dom/html_parser.h"
#include "eval/metrics.h"
#include "synth/corpora.h"
#include "synth/truth.h"

namespace ceres {
namespace {

struct SiteCount {
  int64_t extractions = 0;
  int64_t correct = 0;
};

class Table8ShapeTest : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.25;
  static constexpr double kThreshold = 0.5;

  static void SetUpTestSuite() {
    const std::set<std::string> checked = {
        "boxofficemojo.com", "bcdb.com", "bmxmdb.com", "themoviedb.org",
        "rottentomatoes.com"};
    const synth::Corpus corpus = synth::MakeLongTailCorpus(kScale);
    for (const synth::SyntheticSite& site : corpus.sites) {
      if (checked.count(site.name) == 0) continue;
      std::vector<DomDocument> pages;
      for (const synth::GeneratedPage& page : site.pages) {
        Result<DomDocument> parsed = ParseHtml(page.html);
        ASSERT_TRUE(parsed.ok()) << site.name;
        pages.push_back(std::move(parsed).value());
      }
      const eval::SiteTruth truth = synth::BuildSiteTruth(site.pages, pages);
      ASSERT_EQ(truth.unresolved, 0) << site.name;
      // As in the paper's long-tail protocol, every page is both
      // annotated and extracted; confidence is thresholded below.
      PipelineConfig config;
      config.extraction.confidence_threshold = 0.0;
      Result<PipelineResult> result =
          RunPipeline(pages, corpus.seed_kb, config);
      ASSERT_TRUE(result.ok()) << site.name << ": "
                               << result.status().ToString();
      SiteCount& count = counts_[site.name];
      for (const Extraction& extraction : result->extractions) {
        if (extraction.predicate == kNamePredicate ||
            extraction.confidence < kThreshold) {
          continue;
        }
        ++count.extractions;
        const eval::PageTruth& page_truth =
            truth.pages[static_cast<size_t>(extraction.page)];
        if (page_truth.Asserts(extraction.node, extraction.predicate) &&
            eval::SubjectMatchesTruth(extraction, page_truth)) {
          ++count.correct;
        }
      }
    }
  }

  // Relation extractions at the threshold, per checked site.
  inline static std::map<std::string, SiteCount> counts_;
};

TEST_F(Table8ShapeTest, DegenerateSitesYieldNoExtractions) {
  for (const char* site : {"boxofficemojo.com", "bcdb.com", "bmxmdb.com"}) {
    ASSERT_EQ(counts_.count(site), 1u) << site << " missing from corpus";
    EXPECT_EQ(counts_.at(site).extractions, 0) << site;
  }
}

TEST_F(Table8ShapeTest, MainstreamSitesExtractAtHighPrecision) {
  for (const char* site : {"themoviedb.org", "rottentomatoes.com"}) {
    ASSERT_EQ(counts_.count(site), 1u) << site << " missing from corpus";
    const SiteCount& count = counts_.at(site);
    ASSERT_GT(count.extractions, 0) << site;
    EXPECT_GE(static_cast<double>(count.correct) /
                  static_cast<double>(count.extractions),
              0.9)
        << site << ": " << count.correct << "/" << count.extractions;
  }
}

}  // namespace
}  // namespace ceres

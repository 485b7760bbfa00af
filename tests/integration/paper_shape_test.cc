// Paper-shape assertions: the qualitative results the paper reports,
// checked on the synthetic corpora in the paper's own configuration.
//
// Table 8 (§5.5): on the long-tail corpus at the 0.5 confidence
// threshold, the chart-only site (boxofficemojo) and the near-zero KB
// overlap sites (bcdb, bmxmdb) produce no relation extractions, while the
// mainstream sites (themoviedb, rottentomatoes) extract at >= 0.9
// precision. The runs and the check are the ones bench/table8_longtail_sites
// makes (RunLongTail, Table8ShapeViolation), here at scale 0.25 and over
// the checked sites only.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/longtail_common.h"

namespace ceres::bench {
namespace {

class Table8ShapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::Corpus corpus = synth::MakeLongTailCorpus(0.25);
    std::erase_if(corpus.sites, [](const synth::SyntheticSite& site) {
      for (const char* checked : kTable8SilentSites) {
        if (site.name == checked) return false;
      }
      for (const char* checked : kTable8PreciseSites) {
        if (site.name == checked) return false;
      }
      return true;
    });
    corpus_ = std::make_unique<ParsedCorpus>(ParseCorpus(std::move(corpus)));
    runs_ = RunLongTail(*corpus_);
  }

  static void TearDownTestSuite() {
    runs_.clear();
    corpus_.reset();
  }

  // The runs point into the corpus, so it lives as long as they do.
  inline static std::unique_ptr<ParsedCorpus> corpus_;
  inline static std::vector<LongTailSiteRun> runs_;
};

TEST_F(Table8ShapeTest, DegenerateSitesYieldNoExtractions) {
  for (const char* site : kTable8SilentSites) {
    EXPECT_EQ(Table8ShapeViolation(runs_, site, /*precise=*/false), "");
  }
}

TEST_F(Table8ShapeTest, MainstreamSitesExtractAtHighPrecision) {
  for (const char* site : kTable8PreciseSites) {
    EXPECT_EQ(Table8ShapeViolation(runs_, site, /*precise=*/true), "");
  }
}

}  // namespace
}  // namespace ceres::bench

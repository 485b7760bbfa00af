#include "baselines/ceres_baseline.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace ceres {
namespace {

using testing::FilmPageHtml;
using testing::ParseOrDie;
using testing::TinyMovieKb;

class PairBaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pages_.push_back(ParseOrDie(FilmPageHtml(
        "Do the Right Thing", "Spike Lee", "Spike Lee",
        {"Spike Lee", "Danny Aiello", "John Turturro"},
        {"Comedy", "Dramedy"})));
    pages_.push_back(ParseOrDie(FilmPageHtml(
        "Crooklyn", "Spike Lee", "Nobody", {"Zelda Harris"}, {"Comedy"})));
    pages_.push_back(ParseOrDie(FilmPageHtml(
        "Selma", "Unknown Person", "Unknown Writer", {"Danny Aiello"},
        {"Dramedy"})));
  }

  TinyMovieKb kb_;
  std::vector<DomDocument> pages_;
};

TEST_F(PairBaselineTest, ProducesPairAnnotationsAndExtractions) {
  Result<PairBaselineResult> result =
      RunPairBaseline(pages_, kb_.kb, {0, 1}, {2});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->num_annotations, 0);
  EXPECT_FALSE(result->extractions.empty());
  // Extractions are plausible pairs from page 2 only.
  for (const Extraction& extraction : result->extractions) {
    EXPECT_EQ(extraction.page, 2);
  }
}

TEST_F(PairBaselineTest, AnnotationCapTriggersResourceExhausted) {
  PairBaselineConfig config;
  config.max_pair_annotations = 2;  // Absurdly small.
  Result<PairBaselineResult> result =
      RunPairBaseline(pages_, kb_.kb, {0, 1}, {2}, config);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(PairBaselineTest, NoAnnotationsFails) {
  // A page whose strings match nothing in the KB related to each other.
  std::vector<DomDocument> pages;
  pages.push_back(
      ParseOrDie("<body><div>Zelda Harris</div><div>Dramedy</div></body>"));
  Result<PairBaselineResult> result =
      RunPairBaseline(pages, kb_.kb, {0}, {0}, {});
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PairBaselineTest, RequiresFrozenKb) {
  KnowledgeBase unfrozen(TinyMovieKb::MakeOntology());
  Result<PairBaselineResult> result =
      RunPairBaseline(pages_, unfrozen, {0}, {0}, {});
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PairBaselineTest, CandidateFieldCapBoundsWork) {
  PairBaselineConfig config;
  config.max_candidate_fields_per_page = 2;
  Result<PairBaselineResult> result =
      RunPairBaseline(pages_, kb_.kb, {0, 1}, {2}, config);
  ASSERT_TRUE(result.ok());
  // At most 2 candidate fields -> at most 2 ordered pairs scored.
  EXPECT_LE(result->extractions.size(), 2u);
}

}  // namespace
}  // namespace ceres

#include "eval/metrics.h"

#include <gtest/gtest.h>

#include "dom/html_parser.h"
#include "synth/truth.h"
#include "testing/fixtures.h"

namespace ceres::eval {
namespace {

using ceres::testing::ParseOrDie;
using ceres::testing::TinyMovieKb;

// Builds a one-page truth by hand: node 1 asserts directedBy "Spike Lee",
// node 2 asserts genre "Comedy".
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pages_.push_back(ParseOrDie(
        "<body><h1>Do the Right Thing</h1><div>Spike Lee</div>"
        "<span>Comedy</span><p>noise</p></body>"));
    generated_.topic = kb_.right_thing;
    generated_.topic_name = "Do the Right Thing";
    generated_.topic_xpath = "/html/body[1]/h1[1]";
    generated_.facts.push_back(synth::GroundTruthFact{
        "/html/body[1]/h1[1]", kNamePredicate, "Do the Right Thing",
        kb_.right_thing});
    generated_.facts.push_back(synth::GroundTruthFact{
        "/html/body[1]/div[1]", kb_.directed, "Spike Lee", kb_.lee});
    generated_.facts.push_back(synth::GroundTruthFact{
        "/html/body[1]/span[1]", kb_.genre, "Comedy", kb_.comedy});
    truth_ = synth::BuildSiteTruth({generated_}, pages_);

    h1_ = Find("Do the Right Thing");
    lee_node_ = Find("Spike Lee");
    comedy_node_ = Find("Comedy");
    noise_node_ = Find("noise");
  }

  NodeId Find(const std::string& text) {
    for (NodeId id = 0; id < pages_[0].size(); ++id) {
      if (pages_[0].node(id).text == text) return id;
    }
    return kInvalidNode;
  }

  Extraction Make(NodeId node, PredicateId predicate, double confidence,
                  const std::string& subject = "Do the Right Thing") {
    return Extraction{0, node, predicate, subject,
                      std::string(pages_[0].node(node).text), confidence};
  }

  TinyMovieKb kb_;
  std::vector<DomDocument> pages_;
  synth::GeneratedPage generated_;
  SiteTruth truth_;
  NodeId h1_, lee_node_, comedy_node_, noise_node_;
};

TEST_F(MetricsTest, TruthResolvedCleanly) {
  EXPECT_EQ(truth_.unresolved, 0);
  ASSERT_EQ(truth_.pages.size(), 1u);
  EXPECT_EQ(truth_.pages[0].topic_node, h1_);
  EXPECT_TRUE(truth_.pages[0].Asserts(lee_node_, kb_.directed));
  EXPECT_FALSE(truth_.pages[0].Asserts(lee_node_, kb_.genre));
}

TEST_F(MetricsTest, PerfectExtractionScoresPerfectly) {
  std::vector<Extraction> extractions{
      Make(h1_, kNamePredicate, 1.0),
      Make(lee_node_, kb_.directed, 0.9),
      Make(comedy_node_, kb_.genre, 0.8),
  };
  Prf prf = ScoreExtractions(extractions, truth_);
  EXPECT_EQ(prf.tp, 3);
  EXPECT_EQ(prf.fp, 0);
  EXPECT_EQ(prf.fn, 0);
  EXPECT_DOUBLE_EQ(prf.f1(), 1.0);
}

TEST_F(MetricsTest, WrongNodeIsFalsePositiveAndMissFalseNegative) {
  std::vector<Extraction> extractions{
      Make(noise_node_, kb_.directed, 0.9),
  };
  Prf prf = ScoreExtractions(extractions, truth_);
  EXPECT_EQ(prf.tp, 0);
  EXPECT_EQ(prf.fp, 1);
  EXPECT_EQ(prf.fn, 3);  // All three asserted facts missed.
}

TEST_F(MetricsTest, WrongSubjectFailsWhenChecked) {
  std::vector<Extraction> extractions{
      Make(lee_node_, kb_.directed, 0.9, "Crooklyn"),
  };
  Prf strict = ScoreExtractions(extractions, truth_);
  EXPECT_EQ(strict.tp, 0);
  EXPECT_EQ(strict.fp, 1);
}

TEST_F(MetricsTest, ConfidenceThresholdApplied) {
  std::vector<Extraction> extractions{
      Make(lee_node_, kb_.directed, 0.4),
  };
  ScoreOptions options;
  options.confidence_threshold = 0.5;
  Prf prf = ScoreExtractions(extractions, truth_, options);
  EXPECT_EQ(prf.tp, 0);
  EXPECT_EQ(prf.fp, 0);   // Below threshold: not counted at all.
  EXPECT_EQ(prf.fn, 3);
}

TEST_F(MetricsTest, PredicateFilterRestrictsScoring) {
  std::vector<Extraction> extractions{
      Make(lee_node_, kb_.directed, 0.9),
      Make(noise_node_, kb_.genre, 0.9),  // Wrong, but filtered out.
  };
  ScoreOptions options;
  options.predicates = {kb_.directed};
  Prf prf = ScoreExtractions(extractions, truth_, options);
  EXPECT_EQ(prf.tp, 1);
  EXPECT_EQ(prf.fp, 0);
  EXPECT_EQ(prf.fn, 0);
}

TEST_F(MetricsTest, PerPredicateBreakdown) {
  std::vector<Extraction> extractions{
      Make(lee_node_, kb_.directed, 0.9),
      Make(noise_node_, kb_.genre, 0.9),
  };
  auto by_predicate = ScoreExtractionsByPredicate(extractions, truth_);
  EXPECT_EQ(by_predicate[kb_.directed].tp, 1);
  EXPECT_EQ(by_predicate[kb_.genre].fp, 1);
  EXPECT_EQ(by_predicate[kb_.genre].fn, 1);
  EXPECT_EQ(by_predicate[kNamePredicate].fn, 1);
}

TEST_F(MetricsTest, PageHitScoringTakesBestPerPredicate) {
  // Two genre extractions: wrong one with low confidence, right one high.
  std::vector<Extraction> extractions{
      Make(noise_node_, kb_.genre, 0.3),
      Make(comedy_node_, kb_.genre, 0.9),
  };
  Prf prf = ScorePageHits(extractions, truth_);
  // genre hit; directedBy + NAME missed.
  EXPECT_EQ(prf.tp, 1);
  EXPECT_EQ(prf.fp, 0);
  EXPECT_EQ(prf.fn, 2);
}

TEST_F(MetricsTest, PageHitWrongBestCountsOnce) {
  std::vector<Extraction> extractions{
      Make(noise_node_, kb_.genre, 0.9),
      Make(comedy_node_, kb_.genre, 0.3),
  };
  Prf prf = ScorePageHits(extractions, truth_);
  EXPECT_EQ(prf.tp, 0);
  EXPECT_EQ(prf.fp, 1);
  EXPECT_EQ(prf.fn, 3);
}

TEST_F(MetricsTest, AnnotationScoring) {
  std::vector<Annotation> annotations{
      Annotation{0, lee_node_, kb_.directed, kb_.lee},     // Correct.
      Annotation{0, noise_node_, kb_.genre, kb_.comedy},   // Wrong node.
  };
  Prf prf = ScoreAnnotations(annotations, truth_, kb_.kb);
  EXPECT_EQ(prf.tp, 1);
  EXPECT_EQ(prf.fp, 1);
  // Recall denominator: facts in the KB that were assertable: directedBy
  // (annotated, correct) and genre (missed). Both are in TinyMovieKb.
  EXPECT_EQ(prf.fn, 1);
}

TEST_F(MetricsTest, TopicScoring) {
  // Correct prediction by name match on page 0.
  std::vector<EntityId> predicted{kb_.right_thing};
  Prf prf = ScoreTopics(predicted, truth_, kb_.kb);
  EXPECT_EQ(prf.tp, 1);
  EXPECT_EQ(prf.fp, 0);
  EXPECT_EQ(prf.fn, 0);

  std::vector<EntityId> wrong{kb_.crooklyn};
  prf = ScoreTopics(wrong, truth_, kb_.kb);
  EXPECT_EQ(prf.tp, 0);
  EXPECT_EQ(prf.fp, 1);
  EXPECT_EQ(prf.fn, 1);

  std::vector<EntityId> none{kInvalidEntity};
  prf = ScoreTopics(none, truth_, kb_.kb);
  EXPECT_EQ(prf.tp, 0);
  EXPECT_EQ(prf.fp, 0);
  EXPECT_EQ(prf.fn, 1);
}

TEST_F(MetricsTest, DuplicateExtractionsCountAsOneTruePositive) {
  // The extractor can emit the same (page, node, predicate) more than once
  // (e.g. once per candidate subject mention). Repetition is not new
  // evidence: one TP, not one per copy.
  std::vector<Extraction> extractions{
      Make(lee_node_, kb_.directed, 0.9),
      Make(lee_node_, kb_.directed, 0.7),
  };
  auto by_predicate = ScoreExtractionsByPredicate(extractions, truth_);
  EXPECT_EQ(by_predicate[kb_.directed].tp, 1);
  EXPECT_EQ(by_predicate[kb_.directed].fp, 0);
  EXPECT_EQ(by_predicate[kb_.directed].fn, 0);
  Prf total = ScoreExtractions(extractions, truth_);
  EXPECT_EQ(total.tp, 1);
  EXPECT_EQ(total.fn, 2);  // NAME and genre still missed.
}

TEST_F(MetricsTest, DuplicateAnnotationsCountAsOneTruePositive) {
  std::vector<Annotation> annotations{
      Annotation{0, lee_node_, kb_.directed, kb_.lee},
      Annotation{0, lee_node_, kb_.directed, kb_.lee},
  };
  auto by_predicate =
      ScoreAnnotationsByPredicate(annotations, truth_, kb_.kb);
  EXPECT_EQ(by_predicate[kb_.directed].tp, 1);
  EXPECT_EQ(by_predicate[kb_.directed].fp, 0);
  EXPECT_EQ(by_predicate[kb_.directed].fn, 0);
}

TEST_F(MetricsTest, ThresholdKeepsExtractionAtExactBoundary) {
  // The skip is strict (`confidence < threshold`): an extraction exactly
  // at the threshold still scores.
  std::vector<Extraction> extractions{Make(lee_node_, kb_.directed, 0.5)};
  ScoreOptions options;
  options.confidence_threshold = 0.5;
  Prf prf = ScoreExtractions(extractions, truth_, options);
  EXPECT_EQ(prf.tp, 1);
  EXPECT_EQ(prf.fp, 0);
}

TEST_F(MetricsTest, PageFilterRestrictsScoringToListedPages) {
  // Two identical pages; the only extraction lands on page 1. Filtering to
  // page 0 must both ignore the extraction and count only page 0's facts
  // in the recall denominator.
  std::vector<DomDocument> pages;
  pages.push_back(ParseOrDie(
      "<body><h1>Do the Right Thing</h1><div>Spike Lee</div>"
      "<span>Comedy</span><p>noise</p></body>"));
  pages.push_back(ParseOrDie(
      "<body><h1>Do the Right Thing</h1><div>Spike Lee</div>"
      "<span>Comedy</span><p>noise</p></body>"));
  SiteTruth truth = synth::BuildSiteTruth({generated_, generated_}, pages);
  std::vector<Extraction> extractions{
      Extraction{1, lee_node_, kb_.directed, "Do the Right Thing",
                 "Spike Lee", 0.9}};
  ScoreOptions options;
  options.pages = {0};
  Prf prf = ScoreExtractions(extractions, truth, options);
  EXPECT_EQ(prf.tp, 0);
  EXPECT_EQ(prf.fp, 0);
  EXPECT_EQ(prf.fn, 3);
  options.pages = {1};
  prf = ScoreExtractions(extractions, truth, options);
  EXPECT_EQ(prf.tp, 1);
  EXPECT_EQ(prf.fn, 2);
}

TEST_F(MetricsTest, TopicScoringToleratesShortPredictionVector) {
  // A prediction vector covering only a prefix of the site (here: no pages
  // at all) means "no topic identified" for the uncovered pages, not an
  // out-of-bounds read.
  Prf prf = ScoreTopics({}, truth_, kb_.kb);
  EXPECT_EQ(prf.tp, 0);
  EXPECT_EQ(prf.fp, 0);
  EXPECT_EQ(prf.fn, 1);
}

TEST_F(MetricsTest, PrfArithmetic) {
  Prf prf;
  prf.tp = 3;
  prf.fp = 1;
  prf.fn = 2;
  EXPECT_DOUBLE_EQ(prf.precision(), 0.75);
  EXPECT_DOUBLE_EQ(prf.recall(), 0.6);
  EXPECT_NEAR(prf.f1(), 2 * 0.75 * 0.6 / 1.35, 1e-12);
  Prf zero;
  EXPECT_DOUBLE_EQ(zero.precision(), 0.0);
  EXPECT_DOUBLE_EQ(zero.recall(), 0.0);
  EXPECT_DOUBLE_EQ(zero.f1(), 0.0);
}

}  // namespace
}  // namespace ceres::eval

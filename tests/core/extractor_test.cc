#include "core/extractor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/entity_matcher.h"
#include "core/relation_annotator.h"
#include "core/topic_identification.h"
#include "core/training.h"
#include "testing/fixtures.h"
#include "util/string_util.h"

namespace ceres {
namespace {

using testing::FilmPageHtml;
using testing::ParseOrDie;

// Trains on eight annotated pages of one template, then extracts from an
// unseen page about an entirely new film (its entities are absent from the
// KB) — the "discover new entities" capability of §5.5.
class ExtractorTest : public ::testing::Test {
 protected:
  static constexpr int kTrainPages = 8;

  void SetUp() override {
    Ontology ontology;
    TypeId film = ontology.AddEntityType("film");
    TypeId person = ontology.AddEntityType("person");
    TypeId genre_type = ontology.AddEntityType("genre");
    directed_ = ontology.AddPredicate("directedBy", film, person, false);
    wrote_ = ontology.AddPredicate("writtenBy", film, person, false);
    cast_ = ontology.AddPredicate("hasCastMember", film, person, true);
    genre_ = ontology.AddPredicate("hasGenre", film, genre_type, true);
    kb_ = std::make_unique<KnowledgeBase>(std::move(ontology));

    EntityId comedy = kb_->AddEntity(genre_type, "Comedy");
    EntityId thriller = kb_->AddEntity(genre_type, "Thriller");
    for (int i = 0; i < kTrainPages; ++i) {
      EntityId f = kb_->AddEntity(film, StrCat("Film ", i));
      EntityId d = kb_->AddEntity(person, StrCat("Director ", i));
      EntityId w = kb_->AddEntity(person, StrCat("Writer ", i));
      EntityId a1 = kb_->AddEntity(person, StrCat("Actor A", i));
      EntityId a2 = kb_->AddEntity(person, StrCat("Actor B", i));
      kb_->AddTriple(f, directed_, d);
      kb_->AddTriple(f, wrote_, w);
      kb_->AddTriple(f, cast_, a1);
      kb_->AddTriple(f, cast_, a2);
      kb_->AddTriple(f, genre_, i % 2 == 0 ? comedy : thriller);
    }
    kb_->Freeze();

    for (int i = 0; i < kTrainPages; ++i) {
      docs_.push_back(ParseOrDie(FilmPageHtml(
          StrCat("Film ", i), StrCat("Director ", i), StrCat("Writer ", i),
          {StrCat("Actor A", i), StrCat("Actor B", i)},
          {i % 2 == 0 ? "Comedy" : "Thriller"})));
    }
    // The evaluation page (index kTrainPages): unknown entities.
    docs_.push_back(ParseOrDie(FilmPageHtml(
        "Brand New Film", "Fresh Director", "Fresh Writer",
        {"New Actor One", "New Actor Two"}, {"Thriller"})));
    for (const DomDocument& doc : docs_) ptrs_.push_back(&doc);

    std::vector<const DomDocument*> train_ptrs(ptrs_.begin(),
                                               ptrs_.end() - 1);
    std::vector<PageMentions> mentions;
    for (const DomDocument* doc : train_ptrs) {
      mentions.push_back(MatchPageMentions(*doc, *kb_));
    }
    TopicConfig topic_config;
    topic_config.common_string_min_count = 1000;
    TopicResult topics =
        IdentifyTopics(train_ptrs, mentions, *kb_, topic_config);
    AnnotationResult annotations =
        AnnotateRelations(train_ptrs, mentions, topics, *kb_, {});
    ASSERT_GT(annotations.annotations.size(), 20u);
    featurizer_ =
        std::make_unique<FeatureExtractor>(train_ptrs, FeatureConfig{});
    Result<TrainedModel> model =
        TrainExtractor(train_ptrs, annotations.annotations, *featurizer_,
                       kb_->ontology(), TrainingConfig{});
    ASSERT_TRUE(model.ok());
    model_ = std::make_unique<TrainedModel>(std::move(model).value());
  }

  const DomDocument* eval_page() const { return ptrs_[kTrainPages]; }

  std::unique_ptr<KnowledgeBase> kb_;
  PredicateId directed_ = kInvalidPredicate;
  PredicateId wrote_ = kInvalidPredicate;
  PredicateId cast_ = kInvalidPredicate;
  PredicateId genre_ = kInvalidPredicate;
  std::vector<DomDocument> docs_;
  std::vector<const DomDocument*> ptrs_;
  std::unique_ptr<FeatureExtractor> featurizer_;
  std::unique_ptr<TrainedModel> model_;
};

TEST_F(ExtractorTest, ExtractsFromUnseenPageWithNewEntities) {
  std::vector<Extraction> extractions = ExtractFromPages(
      {eval_page()}, {kTrainPages}, model_.get(), *featurizer_,
      ExtractionConfig{});
  ASSERT_FALSE(extractions.empty());
  bool saw_director = false;
  bool saw_writer = false;
  for (const Extraction& extraction : extractions) {
    EXPECT_EQ(extraction.subject, "Brand New Film");
    EXPECT_EQ(extraction.page, kTrainPages);
    if (extraction.predicate == directed_ &&
        extraction.object == "Fresh Director") {
      saw_director = true;
      EXPECT_GT(extraction.confidence, 0.5);
    }
    if (extraction.predicate == wrote_ &&
        extraction.object == "Fresh Writer") {
      saw_writer = true;
    }
  }
  EXPECT_TRUE(saw_director);
  EXPECT_TRUE(saw_writer);
}

TEST_F(ExtractorTest, NameExtractionEmitted) {
  std::vector<Extraction> extractions = ExtractFromPages(
      {eval_page()}, {kTrainPages}, model_.get(), *featurizer_,
      ExtractionConfig{});
  int names = 0;
  for (const Extraction& extraction : extractions) {
    if (extraction.predicate == kNamePredicate) {
      ++names;
      EXPECT_EQ(extraction.object, "Brand New Film");
    }
  }
  EXPECT_EQ(names, 1);
}

TEST_F(ExtractorTest, ConfidenceThresholdFilters) {
  ExtractionConfig low;
  low.confidence_threshold = 0.0;
  ExtractionConfig high;
  high.confidence_threshold = 0.99999;
  size_t low_count = ExtractFromPages({eval_page()}, {kTrainPages},
                                      model_.get(), *featurizer_, low)
                         .size();
  size_t high_count = ExtractFromPages({eval_page()}, {kTrainPages},
                                       model_.get(), *featurizer_, high)
                          .size();
  EXPECT_LE(high_count, low_count);
}

// A page of another layout has no field the model takes for a title: its
// best NAME probability is below the 0.5 name threshold, so it yields
// nothing, not even a NAME extraction.
TEST_F(ExtractorTest, NameThresholdSkipsPages) {
  DomDocument page = ParseOrDie(
      "<body><table><tr><td>Runtime</td><td>97 min</td></tr>"
      "<tr><td>Country</td><td>Norway</td></tr></table></body>");
  double best_name = 0;
  for (NodeId field : page.TextFields()) {
    SparseVector features =
        featurizer_->Extract(page, field, &model_->features);
    best_name = std::max(best_name, model_->model.PredictProbabilities(
                                        features)[ClassMap::kNameClass]);
  }
  ASSERT_GT(best_name, 0.0);
  ASSERT_LT(best_name, 0.5);
  ExtractionConfig config;
  config.confidence_threshold = 0.0;
  EXPECT_TRUE(ExtractFromPages({&page}, {kTrainPages}, model_.get(),
                               *featurizer_, config)
                  .empty());
}

TEST_F(ExtractorTest, EmptyPageYieldsNothing) {
  DomDocument empty = ParseOrDie("<body></body>");
  EXPECT_TRUE(ExtractFromPages({&empty}, {0}, model_.get(), *featurizer_,
                               ExtractionConfig{})
                  .empty());
}

TEST_F(ExtractorTest, MultiValuedPredicateExtractsAllValues) {
  std::vector<Extraction> extractions = ExtractFromPages(
      {eval_page()}, {kTrainPages}, model_.get(), *featurizer_,
      ExtractionConfig{});
  int cast_count = 0;
  for (const Extraction& extraction : extractions) {
    if (extraction.predicate == cast_) ++cast_count;
  }
  EXPECT_GE(cast_count, 2);
}

TEST_F(ExtractorTest, BoilerplateLabelsNotExtracted) {
  std::vector<Extraction> extractions = ExtractFromPages(
      {eval_page()}, {kTrainPages}, model_.get(), *featurizer_,
      ExtractionConfig{});
  for (const Extraction& extraction : extractions) {
    EXPECT_NE(extraction.object, "Director:");
    EXPECT_NE(extraction.object, "Writer:");
    EXPECT_NE(extraction.object, "Cast");
    EXPECT_NE(extraction.object, "Genres");
  }
}

}  // namespace
}  // namespace ceres

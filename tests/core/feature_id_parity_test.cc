// Parity of the hashed-feature-id path with the legacy string-named path.
//
// Feature ids are defined as Fnv1a64 of the exact legacy feature-name bytes
// (ml/feature_id.h), so three properties together guarantee that training
// and extraction behave byte-identically to the string-named featurizer:
//   1. every emitted id equals the hash of its traced legacy name,
//   2. no two distinct names on the corpus collide into one id (dense
//      indices then mirror the string path's first-occurrence order), and
//   3. a model round-tripped through the model file format (SaveModel ->
//      LoadModel) keeps its id dictionary and extracts identically to the
//      in-memory model.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/entity_matcher.h"
#include "core/extractor.h"
#include "core/model_io.h"
#include "core/relation_annotator.h"
#include "core/topic_identification.h"
#include "core/training.h"
#include "testing/fixtures.h"
#include "util/string_util.h"

namespace ceres {
namespace {

using testing::FilmPageHtml;
using testing::ParseOrDie;
using testing::TinyMovieKb;

struct ParityFixture {
  ParityFixture() {
    docs.push_back(ParseOrDie(FilmPageHtml(
        "Do the Right Thing", "Spike Lee", "Spike Lee",
        {"Spike Lee", "Danny Aiello", "John Turturro"},
        {"Comedy", "Dramedy"})));
    docs.push_back(ParseOrDie(FilmPageHtml(
        "Crooklyn", "Spike Lee", "Nobody", {"Zelda Harris"}, {"Comedy"})));
    docs.push_back(ParseOrDie(FilmPageHtml(
        "Malcolm X", "Spike Lee", "Arnold Perl", {"Denzel Washington"},
        {"Dramedy"})));
    for (const DomDocument& doc : docs) {
      ptrs.push_back(&doc);
      mentions.push_back(MatchPageMentions(doc, kb.kb));
    }
    TopicConfig config;
    config.min_annotations_per_page = 2;
    config.common_string_min_count = 100;
    topics = IdentifyTopics(ptrs, mentions, kb.kb, config);
    annotations = AnnotateRelations(ptrs, mentions, topics, kb.kb, {});
  }

  TinyMovieKb kb;
  std::vector<DomDocument> docs;
  std::vector<const DomDocument*> ptrs;
  std::vector<PageMentions> mentions;
  TopicResult topics;
  AnnotationResult annotations;
};

TEST(FeatureIdParityTest, EveryEmittedIdIsTheHashOfItsLegacyName) {
  ParityFixture fixture;
  FeatureExtractor featurizer(fixture.ptrs, FeatureConfig{});
  HashedFeatureMap map;
  FeatureNameTrace trace;
  for (const DomDocument* doc : fixture.ptrs) {
    for (NodeId node : doc->TextFields()) {
      featurizer.Extract(*doc, node, &map, {}, nullptr, &trace);
    }
  }
  ASSERT_GT(map.size(), 0);
  for (int32_t f = 0; f < map.size(); ++f) {
    const uint64_t id = map.IdAt(f);
    const std::string& name = trace.NameOf(id);
    ASSERT_FALSE(name.empty()) << "untraced feature id " << id;
    EXPECT_EQ(Fnv1a64(name), id) << name;
    // Legacy name shapes: structural or text features.
    EXPECT_TRUE(name.rfind("S|", 0) == 0 || name.rfind("T|", 0) == 0) << name;
  }
}

TEST(FeatureIdParityTest, NoNameCollisionsAcrossTheCorpusVocabulary) {
  ParityFixture fixture;
  FeatureExtractor featurizer(fixture.ptrs, FeatureConfig{});
  // Per-node traces feed a global id -> name table; a collision would
  // surface as the same id carrying two different names on different nodes.
  std::unordered_map<uint64_t, std::string> global;
  std::unordered_set<std::string> distinct_names;
  for (const DomDocument* doc : fixture.ptrs) {
    for (NodeId node : doc->TextFields()) {
      HashedFeatureMap throwaway;
      FeatureNameTrace trace;
      featurizer.Extract(*doc, node, &throwaway, {}, nullptr, &trace);
      for (const auto& [id, name] : trace.names()) {
        auto [it, inserted] = global.emplace(id, name);
        if (!inserted) {
          EXPECT_EQ(it->second, name) << "feature id collision on " << id;
        }
        distinct_names.insert(name);
      }
    }
  }
  EXPECT_EQ(global.size(), distinct_names.size());
  EXPECT_GT(global.size(), 50u);
}

TEST(FeatureIdParityTest, ExtractionIdenticalThroughV2RoundTrip) {
  ParityFixture fixture;
  ASSERT_FALSE(fixture.annotations.annotations.empty());
  FeatureExtractor featurizer(fixture.ptrs, FeatureConfig{});
  Result<TrainedModel> trained =
      TrainExtractor(fixture.ptrs, fixture.annotations.annotations,
                     featurizer, fixture.kb.kb.ontology(), TrainingConfig{});
  ASSERT_TRUE(trained.ok());

  std::vector<PageIndex> indices;
  for (size_t p = 0; p < fixture.ptrs.size(); ++p) {
    indices.push_back(static_cast<PageIndex>(p));
  }
  std::vector<Extraction> expected = ExtractFromPages(
      fixture.ptrs, indices, &*trained, featurizer, {});
  ASSERT_FALSE(expected.empty());

  std::ostringstream out;
  ASSERT_TRUE(SaveModel(*trained, fixture.kb.kb.ontology(), &out).ok());
  const std::string text = out.str();
  ASSERT_NE(text.find("#format\n2\n"), std::string::npos);
  ASSERT_NE(text.find("#featureids\n"), std::string::npos);
  std::istringstream in(text);
  Result<TrainedModel> loaded = LoadModel(&in, fixture.kb.kb.ontology());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The loaded dictionary holds the same ids at the same dense indices...
  ASSERT_EQ(loaded->features.size(), trained->features.size());
  for (int32_t f = 0; f < trained->features.size(); ++f) {
    EXPECT_EQ(loaded->features.IdAt(f), trained->features.IdAt(f));
  }

  // ...and the loaded model extracts byte-identically.
  FeatureExtractor loaded_featurizer = MakeFeaturizer(*loaded);
  std::vector<Extraction> actual = ExtractFromPages(
      fixture.ptrs, indices, &*loaded, loaded_featurizer, {});
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].page, expected[i].page);
    EXPECT_EQ(actual[i].node, expected[i].node);
    EXPECT_EQ(actual[i].predicate, expected[i].predicate);
    EXPECT_EQ(actual[i].subject, expected[i].subject);
    EXPECT_EQ(actual[i].object, expected[i].object);
    EXPECT_EQ(actual[i].confidence, expected[i].confidence);
  }
}

}  // namespace
}  // namespace ceres

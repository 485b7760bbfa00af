#include "core/model_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "core/entity_matcher.h"
#include "core/extractor.h"
#include "core/relation_annotator.h"
#include "core/topic_identification.h"
#include "testing/fixtures.h"

namespace ceres {
namespace {

using testing::FilmPageHtml;
using testing::ParseOrDie;
using testing::TinyMovieKb;

class ModelIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    docs_.push_back(ParseOrDie(FilmPageHtml(
        "Do the Right Thing", "Spike Lee", "Spike Lee",
        {"Spike Lee", "Danny Aiello", "John Turturro"},
        {"Comedy", "Dramedy"})));
    docs_.push_back(ParseOrDie(FilmPageHtml(
        "Crooklyn", "Spike Lee", "Nobody", {"Zelda Harris"}, {"Comedy"})));
    for (const DomDocument& doc : docs_) ptrs_.push_back(&doc);
    std::vector<PageMentions> mentions;
    for (const DomDocument* doc : ptrs_) {
      mentions.push_back(MatchPageMentions(*doc, kb_.kb));
    }
    TopicConfig topic_config;
    topic_config.min_annotations_per_page = 2;
    topic_config.common_string_min_count = 100;
    TopicResult topics =
        IdentifyTopics(ptrs_, mentions, kb_.kb, topic_config);
    AnnotationResult annotations =
        AnnotateRelations(ptrs_, mentions, topics, kb_.kb, {});
    featurizer_ =
        std::make_unique<FeatureExtractor>(ptrs_, FeatureConfig{});
    model_ = std::make_unique<TrainedModel>(
        std::move(TrainExtractor(ptrs_, annotations.annotations,
                                 *featurizer_, kb_.kb.ontology(), {}))
            .value());
  }

  TinyMovieKb kb_;
  std::vector<DomDocument> docs_;
  std::vector<const DomDocument*> ptrs_;
  std::unique_ptr<FeatureExtractor> featurizer_;
  std::unique_ptr<TrainedModel> model_;
};

// Number of classes the model never saw a label for (-inf intercept).
int32_t AbsentClasses(const TrainedModel& model) {
  int32_t absent = 0;
  for (int32_t cls = 0; cls < model.model.num_classes(); ++cls) {
    if (model.model.BiasAt(cls) == -std::numeric_limits<double>::infinity()) {
      ++absent;
    }
  }
  return absent;
}

TEST_F(ModelIoTest, RoundTripPredictionsIdentical) {
  // Two film pages annotate only a few of the ontology's predicates, so
  // several classes are unfitted and carry a -inf intercept.
  ASSERT_GT(AbsentClasses(*model_), 0);
  ASSERT_LT(AbsentClasses(*model_), model_->model.num_classes());
  std::ostringstream out;
  ASSERT_TRUE(SaveModel(*model_, kb_.kb.ontology(), &out).ok());
  EXPECT_NE(out.str().find("\tbias\t-inf\n"), std::string::npos);
  std::istringstream in(out.str());
  Result<TrainedModel> loaded = LoadModel(&in, kb_.kb.ontology());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->model.weights(), model_->model.weights());

  EXPECT_EQ(loaded->features.size(), model_->features.size());
  EXPECT_TRUE(loaded->features.frozen());
  EXPECT_EQ(loaded->frequent_strings, model_->frequent_strings);
  // Identical extraction behaviour on a fresh page, with the featurizer
  // REBUILT from the persisted state (the production reuse path).
  FeatureExtractor restored = MakeFeaturizer(*loaded);
  DomDocument unseen = ParseOrDie(FilmPageHtml(
      "Brand New", "New Director", "New Writer", {"Actor X"}, {"Dramedy"}));
  std::vector<Extraction> a = ExtractFromPages(
      {&unseen}, {0}, model_.get(), *featurizer_, ExtractionConfig{});
  std::vector<Extraction> b = ExtractFromPages(
      {&unseen}, {0}, &loaded.value(), restored, ExtractionConfig{});
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].predicate, b[i].predicate);
    EXPECT_EQ(a[i].object, b[i].object);
    EXPECT_EQ(a[i].confidence, b[i].confidence);
  }
}

TEST_F(ModelIoTest, NonFiniteWeightsAreRejectedTyped) {
  std::ostringstream out;
  ASSERT_TRUE(SaveModel(*model_, kb_.kb.ontology(), &out).ok());
  const std::string full = out.str();
  const size_t weights_at = full.find("#weights\n");
  const size_t end_at = full.find("#end\n");
  ASSERT_NE(weights_at, std::string::npos);
  ASSERT_NE(end_at, std::string::npos);
  auto load = [&](const std::string& text) {
    std::istringstream in(text);
    return LoadModel(&in, kb_.kb.ontology()).status().code();
  };
  // One extra line just before #end, overriding whatever the file set.
  auto with_line = [&](const std::string& line) {
    return full.substr(0, end_at) + line + "\n" + full.substr(end_at);
  };
  ASSERT_EQ(load(with_line("0\tbias\t-inf")), StatusCode::kOk);
  for (const char* line : {"0\t0\tnan", "0\t0\t-nan", "0\t0\tinf",
                           "0\t0\t-inf", "0\tbias\tnan", "0\tbias\tinf",
                           "0\tbias\t+inf", "0\tbias\tinfinity"}) {
    EXPECT_EQ(load(with_line(line)), StatusCode::kInvalidArgument) << line;
  }

  // Every class -inf: its softmax would be NaN everywhere.
  std::string all_absent = full.substr(0, weights_at) + "#weights\n";
  for (int32_t cls = 0; cls < model_->model.num_classes(); ++cls) {
    all_absent += std::to_string(cls) + "\tbias\t-inf\n";
  }
  all_absent += "#end\n";
  EXPECT_EQ(load(all_absent), StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, FeaturizerStateSurvivesRoundTrip) {
  std::ostringstream out;
  ASSERT_TRUE(SaveModel(*model_, kb_.kb.ontology(), &out).ok());
  std::istringstream in(out.str());
  Result<TrainedModel> loaded = LoadModel(&in, kb_.kb.ontology());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->feature_config.structural_features,
            model_->feature_config.structural_features);
  EXPECT_EQ(loaded->feature_config.text_features,
            model_->feature_config.text_features);
  EXPECT_FALSE(loaded->frequent_strings.empty());
  EXPECT_TRUE(loaded->frequent_strings.count("director") > 0);
}

// The featurizer has one sibling window and one text depth, so a model
// file recording any other is rejected rather than applied with features
// it was not trained on.
TEST_F(ModelIoTest, FeatureConfigOtherThanTheFeaturizersIsRejected) {
  std::ostringstream out;
  ASSERT_TRUE(SaveModel(*model_, kb_.kb.ontology(), &out).ok());
  const std::string full = out.str();
  const std::string header = "#featureconfig\n";
  const size_t line_at = full.find(header) + header.size();
  const size_t line_end = full.find('\n', line_at);
  ASSERT_NE(full.find(header), std::string::npos);
  ASSERT_EQ(full.substr(line_at, line_end - line_at), "5\t1\t1\t3");
  auto load_with = [&](const std::string& line) {
    std::istringstream in(full.substr(0, line_at) + line +
                          full.substr(line_end));
    return LoadModel(&in, kb_.kb.ontology()).status();
  };
  EXPECT_TRUE(load_with("5\t1\t1\t3").ok());
  for (const char* line : {"7\t1\t1\t3", "5\t1\t1\t4", "0\t1\t1\t3",
                           "4294967301\t1\t1\t3", "5\t1\t1\t-1"}) {
    Status status = load_with(line);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(status.message().find("feature config"), std::string::npos)
        << status.ToString();
  }
}

TEST_F(ModelIoTest, LoadRejectsOntologyMismatch) {
  std::ostringstream out;
  ASSERT_TRUE(SaveModel(*model_, kb_.kb.ontology(), &out).ok());
  // An ontology with different predicates cannot host this model.
  Ontology other;
  TypeId film = other.AddEntityType("film");
  other.AddPredicate("somethingElse", film, film, false);
  std::istringstream in(out.str());
  EXPECT_EQ(LoadModel(&in, other).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, LoadRejectsCorruptedInput) {
  auto load = [&](const std::string& text) {
    std::istringstream in(text);
    return LoadModel(&in, kb_.kb.ontology()).status().code();
  };
  EXPECT_EQ(load(""), StatusCode::kInvalidArgument);
  EXPECT_EQ(load("#model\nnot\tnumbers\n"), StatusCode::kInvalidArgument);
  EXPECT_EQ(load("#weights\n0\t0\t1.5\n"), StatusCode::kInvalidArgument);

  // Flip one declared feature count.
  std::ostringstream out;
  ASSERT_TRUE(SaveModel(*model_, kb_.kb.ontology(), &out).ok());
  const std::string original = out.str();
  size_t pos =
      original.find('\t', original.find('\n', original.find("#model")));
  ASSERT_NE(pos, std::string::npos);
  // Corrupt the feature count by splicing in an extra digit.
  std::string corrupted = original.substr(0, pos + 1) + "9" +
                          original.substr(pos + 1);
  EXPECT_EQ(load(corrupted), StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, RetiredFormatVersionsAreRejected) {
  std::ostringstream out;
  ASSERT_TRUE(SaveModel(*model_, kb_.kb.ontology(), &out).ok());
  const std::string v2 = out.str();
  const size_t format_at = v2.find("#format\n2\n");
  const size_t ids_at = v2.find("#featureids\n");
  const size_t weights_at = v2.find("#weights\n");
  ASSERT_NE(format_at, std::string::npos);
  ASSERT_NE(ids_at, std::string::npos);
  ASSERT_NE(weights_at, std::string::npos);

  // The version-1 shape: no #format section, and a #features dictionary
  // of string feature names in place of #featureids.
  std::string v1 = v2;
  std::string names = "#features\n";
  for (int32_t f = 0; f < model_->features.size(); ++f) {
    names += std::to_string(f) + "\tS|feature" + std::to_string(f) + "\n";
  }
  v1.replace(ids_at, weights_at - ids_at, names);
  v1.erase(format_at, 10);
  // A v2 body that declares #format 1.
  std::string format1 = v2;
  format1.replace(format_at, 10, "#format\n1\n");
  // A v2 body with the #format section dropped.
  std::string unversioned = v2;
  unversioned.erase(format_at, 10);

  for (const std::string* text : {&v1, &format1, &unversioned}) {
    std::istringstream in(*text);
    Result<TrainedModel> loaded = LoadModel(&in, kb_.kb.ontology());
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().code() == StatusCode::kInvalidArgument ||
                loaded.status().code() == StatusCode::kDataLoss)
        << loaded.status().ToString();
  }
}

TEST_F(ModelIoTest, TruncatedFileIsRejectedNotSilentlyEmpty) {
  std::ostringstream out;
  ASSERT_TRUE(SaveModel(*model_, kb_.kb.ontology(), &out).ok());
  const std::string full = out.str();

  auto load = [&](const std::string& text) {
    std::istringstream in(text);
    return LoadModel(&in, kb_.kb.ontology()).status();
  };
  ASSERT_TRUE(load(full).ok());

  // A transfer cut off at any section boundary must fail loudly. Before the
  // #end trailer existed, cutting just above #weights produced a "valid"
  // model whose every weight was zero.
  for (const char* marker : {"#classes", "#featureids", "#weights", "#end"}) {
    size_t pos = full.find(marker);
    ASSERT_NE(pos, std::string::npos) << marker;
    Status status = load(full.substr(0, pos));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "cut before " << marker << ": " << status.ToString();
  }
  // Mid-line byte truncation inside the weights section.
  Status status = load(full.substr(0, full.size() - 8));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Garbage appended after the end marker.
  EXPECT_EQ(load(full + "0\t0\t1.0\n").code(), StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, VersionedStoreSavesLoadsAndAdvancesCurrent) {
  const std::string root = ::testing::TempDir() + "/model_store";
  std::filesystem::remove_all(root);  // version numbers restart at 1
  const std::string site = "films.example";

  Result<int64_t> v1 = SaveModelVersion(root, site, *model_,
                                        kb_.kb.ontology());
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, 1);
  Result<int64_t> v2 = SaveModelVersion(root, site, *model_,
                                        kb_.kb.ontology());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2);

  Result<std::vector<int64_t>> versions = ListModelVersions(root, site);
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(*versions, (std::vector<int64_t>{1, 2}));

  int64_t loaded_version = -1;
  Result<TrainedModel> latest =
      LoadLatestModel(root, site, kb_.kb.ontology(), &loaded_version);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(loaded_version, 2);
  EXPECT_EQ(latest->features.size(), model_->features.size());
  EXPECT_TRUE(LoadModelVersion(root, site, 1, kb_.kb.ontology()).ok());

  EXPECT_EQ(LatestModelVersion(root, "unknown.example").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ModelIoTest, VersionedStoreSurvivesLostCurrentAndRejectsCorruption) {
  const std::string root = ::testing::TempDir() + "/model_store_corrupt";
  std::filesystem::remove_all(root);  // version numbers restart at 1
  const std::string site = "films.example";
  ASSERT_TRUE(SaveModelVersion(root, site, *model_, kb_.kb.ontology()).ok());
  ASSERT_TRUE(SaveModelVersion(root, site, *model_, kb_.kb.ontology()).ok());

  // A crashed publish can lose CURRENT; the newest snapshot still wins.
  std::filesystem::remove(std::filesystem::path(root) / site / "CURRENT");
  Result<int64_t> latest = LatestModelVersion(root, site);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 2);

  // Truncate the current snapshot on disk: the load must fail typed, not
  // hand back an empty model.
  const std::string path = ModelVersionPath(root, site, 2);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  std::ofstream out(path, std::ios::trunc);
  out << bytes.substr(0, bytes.size() / 2);
  out.close();
  Result<TrainedModel> loaded =
      LoadLatestModel(root, site, kb_.kb.ontology());
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, SaveRequiresTrainedModel) {
  TrainedModel empty;
  std::ostringstream out;
  EXPECT_EQ(SaveModel(empty, kb_.kb.ontology(), &out).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ceres

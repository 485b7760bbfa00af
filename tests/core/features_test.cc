#include "core/features.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "synth/corpora.h"
#include "testing/fixtures.h"

namespace ceres {
namespace {

using testing::FilmPageHtml;
using testing::ParseOrDie;

// Names of all features in a vector, resolved through the id -> name trace
// the extractor fills when one is attached.
std::vector<std::string> FeatureNames(const SparseVector& v,
                                      const HashedFeatureMap& map,
                                      const FeatureNameTrace& trace) {
  std::vector<std::string> names;
  for (const auto& [index, value] : v.entries()) {
    names.push_back(trace.NameOf(map.IdAt(index)));
  }
  return names;
}

bool AnyContains(const std::vector<std::string>& names,
                 const std::string& needle) {
  for (const std::string& name : names) {
    if (name.find(needle) != std::string::npos) return true;
  }
  return false;
}

class FeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) {
      docs_.push_back(ParseOrDie(FilmPageHtml(
          "Film " + std::to_string(i), "Director " + std::to_string(i),
          "Writer " + std::to_string(i),
          {"Actor A" + std::to_string(i), "Actor B" + std::to_string(i)},
          {"Comedy"})));
    }
    for (const DomDocument& doc : docs_) ptrs_.push_back(&doc);
  }

  NodeId FindText(const DomDocument& doc, const std::string& text) {
    for (NodeId id = 0; id < doc.size(); ++id) {
      if (doc.node(id).text == text) return id;
    }
    return kInvalidNode;
  }

  std::vector<DomDocument> docs_;
  std::vector<const DomDocument*> ptrs_;
};

TEST_F(FeaturesTest, StructuralFeaturesIncludeSelfAndAncestors) {
  FeatureExtractor extractor(ptrs_, FeatureConfig{});
  HashedFeatureMap map;
  FeatureNameTrace trace;
  NodeId director = FindText(docs_[0], "Director 0");
  SparseVector v = extractor.Extract(docs_[0], director, &map, {}, nullptr, &trace);
  std::vector<std::string> names = FeatureNames(v, map, trace);
  EXPECT_TRUE(AnyContains(names, "S|l=0|s=0|tag=span"));
  EXPECT_TRUE(AnyContains(names, "S|l=0|s=0|class=val"));
  EXPECT_TRUE(AnyContains(names, "S|l=1|s=0|class=row"));   // Parent div.
  EXPECT_TRUE(AnyContains(names, "S|l=0|s=-1|class=lbl"));  // Label sibling.
}

TEST_F(FeaturesTest, FrequentStringsMined) {
  FeatureExtractor extractor(ptrs_, FeatureConfig{});
  // Labels appear on all pages; values never repeat.
  EXPECT_TRUE(extractor.frequent_strings().count("director") > 0);
  EXPECT_TRUE(extractor.frequent_strings().count("cast") > 0);
  EXPECT_FALSE(extractor.frequent_strings().count("director 0") > 0);
}

TEST_F(FeaturesTest, TextFeatureFiresOnNearbyLabel) {
  FeatureExtractor extractor(ptrs_, FeatureConfig{});
  HashedFeatureMap map;
  FeatureNameTrace trace;
  NodeId director = FindText(docs_[0], "Director 0");
  SparseVector v = extractor.Extract(docs_[0], director, &map, {}, nullptr, &trace);
  EXPECT_TRUE(AnyContains(FeatureNames(v, map, trace), "T|l0s-1|director"));
}

TEST_F(FeaturesTest, DirectorAndWriterValuesGetDifferentFeatures) {
  FeatureExtractor extractor(ptrs_, FeatureConfig{});
  HashedFeatureMap map;
  FeatureNameTrace trace;
  NodeId director = FindText(docs_[0], "Director 0");
  NodeId writer = FindText(docs_[0], "Writer 0");
  std::vector<std::string> d =
      FeatureNames(extractor.Extract(docs_[0], director, &map, {}, nullptr, &trace), map, trace);
  std::vector<std::string> w =
      FeatureNames(extractor.Extract(docs_[0], writer, &map, {}, nullptr, &trace), map, trace);
  EXPECT_NE(d, w);  // The label text features distinguish them.
  EXPECT_TRUE(AnyContains(w, "T|l0s-1|writer"));
  EXPECT_FALSE(AnyContains(w, "T|l0s-1|director"));
}

TEST_F(FeaturesTest, StructuralOnlyAblation) {
  FeatureConfig config;
  config.text_features = false;
  FeatureExtractor extractor(ptrs_, config);
  HashedFeatureMap map;
  FeatureNameTrace trace;
  NodeId director = FindText(docs_[0], "Director 0");
  std::vector<std::string> names =
      FeatureNames(extractor.Extract(docs_[0], director, &map, {}, nullptr, &trace), map, trace);
  for (const std::string& name : names) {
    EXPECT_EQ(name.substr(0, 2), "S|");
  }
  EXPECT_TRUE(extractor.frequent_strings().empty());
}

TEST_F(FeaturesTest, TextOnlyAblation) {
  FeatureConfig config;
  config.structural_features = false;
  FeatureExtractor extractor(ptrs_, config);
  HashedFeatureMap map;
  FeatureNameTrace trace;
  NodeId director = FindText(docs_[0], "Director 0");
  std::vector<std::string> names =
      FeatureNames(extractor.Extract(docs_[0], director, &map, {}, nullptr, &trace), map, trace);
  for (const std::string& name : names) {
    EXPECT_EQ(name.substr(0, 2), "T|");
  }
}

TEST_F(FeaturesTest, FrozenMapDropsUnseenFeatures) {
  FeatureExtractor extractor(ptrs_, FeatureConfig{});
  HashedFeatureMap map;
  FeatureNameTrace trace;
  NodeId director = FindText(docs_[0], "Director 0");
  extractor.Extract(docs_[0], director, &map, {}, nullptr, &trace);
  int32_t size_before = map.size();
  map.Freeze();
  // A node from a different page region yields only known features.
  NodeId h1 = FindText(docs_[1], "Film 1");
  SparseVector v = extractor.Extract(docs_[1], h1, &map, {}, nullptr, &trace);
  EXPECT_EQ(map.size(), size_before);
  for (const auto& [index, value] : v.entries()) {
    EXPECT_LT(index, size_before);
  }
}

TEST_F(FeaturesTest, NamePrefixKeepsVectorsDisjoint) {
  FeatureExtractor extractor(ptrs_, FeatureConfig{});
  HashedFeatureMap map;
  FeatureNameTrace trace;
  NodeId director = FindText(docs_[0], "Director 0");
  SparseVector a = extractor.Extract(docs_[0], director, &map, "A|", nullptr, &trace);
  SparseVector b = extractor.Extract(docs_[0], director, &map, "B|", nullptr, &trace);
  for (const auto& [index_a, va] : a.entries()) {
    for (const auto& [index_b, vb] : b.entries()) {
      EXPECT_NE(index_a, index_b);
    }
  }
}

TEST_F(FeaturesTest, SameTemplatePositionSameFeaturesAcrossPages) {
  FeatureExtractor extractor(ptrs_, FeatureConfig{});
  HashedFeatureMap map;
  FeatureNameTrace trace;
  NodeId d0 = FindText(docs_[0], "Director 0");
  NodeId d1 = FindText(docs_[1], "Director 1");
  SparseVector v0 = extractor.Extract(docs_[0], d0, &map, {}, nullptr, &trace);
  SparseVector v1 = extractor.Extract(docs_[1], d1, &map, {}, nullptr, &trace);
  EXPECT_EQ(FeatureNames(v0, map, trace), FeatureNames(v1, map, trace));
}

TEST(FeatureExtractorTest, LexiconKeepsTheStringsOnMostPages) {
  // 270 strings qualify (on >= 2 of 5 pages), more than the bound: 100 on
  // all 5 pages, 150 on 4 and 20 on 3. The bound keeps the 100 on 5 pages
  // and the 100 smallest of the 4-page strings; "low" sorts before "tie"
  // and "top" after it, so neither a string order nor a page order alone
  // picks this set.
  static_assert(kMaxFrequentStrings == 200);
  const auto label = [](const char* stem, int i) {
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "%s %03d", stem, i);
    return std::string(buffer);
  };
  std::vector<DomDocument> docs;
  for (int page = 0; page < 5; ++page) {
    std::string html = "<body>";
    for (int i = 0; i < 100; ++i) html += "<p>" + label("top", i) + "</p>";
    for (int i = 149; page < 4 && i >= 0; --i) {
      html += "<p>" + label("tie", i) + "</p>";
    }
    for (int i = 0; page < 3 && i < 20; ++i) {
      html += "<p>" + label("low", i) + "</p>";
    }
    html += "<p>" + label("once", page) + "</p></body>";
    docs.push_back(ParseOrDie(html));
  }
  std::vector<const DomDocument*> ptrs;
  for (const DomDocument& doc : docs) ptrs.push_back(&doc);

  FeatureExtractor extractor(ptrs, FeatureConfig{});
  std::unordered_set<std::string> expected;
  for (int i = 0; i < 100; ++i) {
    expected.insert(label("top", i));
    expected.insert(label("tie", i));
  }
  EXPECT_EQ(extractor.frequent_strings().size(), kMaxFrequentStrings);
  EXPECT_EQ(extractor.frequent_strings(), expected);
}

TEST(FeatureExtractorTest, CachedFeaturesEqualCacheless) {
  // Every text field of seeded SWDE pages, featurized through a per-page
  // cache and without one: same ids interned in the same order, same
  // entries, same value bits.
  int64_t text_features = 0;
  for (const synth::SwdeVertical vertical :
       {synth::SwdeVertical::kMovie, synth::SwdeVertical::kBook,
        synth::SwdeVertical::kNbaPlayer, synth::SwdeVertical::kUniversity}) {
    const synth::Corpus corpus =
        synth::MakeSwdeCorpus(vertical, /*scale=*/0.12, /*seed=*/7);
    for (size_t s = 0; s < 2; ++s) {
      std::vector<DomDocument> docs;
      for (const synth::GeneratedPage& page : corpus.sites[s].pages) {
        docs.push_back(ParseOrDie(page.html));
      }
      std::vector<const DomDocument*> ptrs;
      for (const DomDocument& doc : docs) ptrs.push_back(&doc);
      const FeatureExtractor featurizer(ptrs, FeatureConfig{});
      ASSERT_FALSE(featurizer.frequent_strings().empty());
      HashedFeatureMap cached_map;
      HashedFeatureMap cacheless_map;
      FeatureNameTrace trace;
      for (const DomDocument& doc : docs) {
        NormalizedTextCache cache(doc, featurizer.frequent_strings());
        for (NodeId node : doc.TextFields()) {
          const SparseVector cached =
              featurizer.Extract(doc, node, &cached_map, {}, &cache);
          const SparseVector cacheless =
              featurizer.Extract(doc, node, &cacheless_map, {}, nullptr, &trace);
          const auto& a = cached.entries();
          const auto& b = cacheless.entries();
          ASSERT_EQ(a.size(), b.size()) << corpus.sites[s].name;
          for (size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].first, b[i].first);
            ASSERT_EQ(std::bit_cast<uint64_t>(a[i].second),
                      std::bit_cast<uint64_t>(b[i].second));
            if (trace.NameOf(cacheless_map.IdAt(b[i].first)).starts_with(
                    "T|")) {
              ++text_features;
            }
          }
        }
      }
      ASSERT_EQ(cached_map.size(), cacheless_map.size());
      for (int32_t f = 0; f < cached_map.size(); ++f) {
        ASSERT_EQ(cached_map.IdAt(f), cacheless_map.IdAt(f));
      }
    }
  }
  // The lexicon side of the featurizer must actually have fired.
  EXPECT_GT(text_features, 1000);
}

}  // namespace
}  // namespace ceres

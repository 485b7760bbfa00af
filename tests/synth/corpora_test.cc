#include "synth/corpora.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace ceres::synth {
namespace {

constexpr double kTinyScale = 0.12;

TEST(SwdeCorpusTest, MovieVerticalShape) {
  Corpus corpus = MakeSwdeCorpus(SwdeVertical::kMovie, kTinyScale);
  EXPECT_EQ(corpus.sites.size(), 10u);
  EXPECT_GT(corpus.seed_kb.num_triples(), 100);
  for (const SyntheticSite& site : corpus.sites) {
    EXPECT_GE(site.pages.size(), 12u);
    for (const GeneratedPage& page : site.pages) {
      EXPECT_NE(page.topic, kInvalidEntity);
    }
  }
  // MPAA rating coverage is zero in the seed KB (Table 3 note).
  PredicateId rating =
      *corpus.seed_kb.ontology().PredicateByName(pred::kFilmMpaaRating);
  for (const Triple& triple : corpus.seed_kb.triples()) {
    EXPECT_NE(triple.predicate, rating);
  }
}

TEST(SwdeCorpusTest, BookVerticalOverlapSpread) {
  Corpus corpus = MakeSwdeCorpus(SwdeVertical::kBook, kTinyScale);
  ASSERT_EQ(corpus.sites.size(), 10u);
  // Site 0's topics seeded the KB; later sites overlap progressively less.
  auto overlap_with_kb = [&](const SyntheticSite& site) {
    int count = 0;
    for (const GeneratedPage& page : site.pages) {
      if (!corpus.seed_kb.MatchMentions(page.topic_name).empty()) ++count;
    }
    return count;
  };
  int first = overlap_with_kb(corpus.sites[0]);
  EXPECT_EQ(first, static_cast<int>(corpus.sites[0].pages.size()));
  int mid = overlap_with_kb(corpus.sites[4]);
  EXPECT_LT(mid, first / 2);
}

TEST(SwdeCorpusTest, NbaSitesShareRoster) {
  Corpus corpus = MakeSwdeCorpus(SwdeVertical::kNbaPlayer, kTinyScale);
  ASSERT_EQ(corpus.sites.size(), 10u);
  // Every site covers every player, so the KB (site 0 truth) covers all.
  for (const SyntheticSite& site : corpus.sites) {
    for (const GeneratedPage& page : site.pages) {
      EXPECT_FALSE(corpus.seed_kb.MatchMentions(page.topic_name).empty());
    }
  }
}

TEST(SwdeCorpusTest, VerticalNames) {
  EXPECT_EQ(SwdeVerticalName(SwdeVertical::kMovie), "Movie");
  EXPECT_EQ(SwdeVerticalName(SwdeVertical::kBook), "Book");
  EXPECT_EQ(SwdeVerticalName(SwdeVertical::kNbaPlayer), "NBA Player");
  EXPECT_EQ(SwdeVerticalName(SwdeVertical::kUniversity), "University");
}

TEST(ImdbCorpusTest, MixedTemplatesInOneSite) {
  Corpus corpus = MakeImdbCorpus(kTinyScale);
  ASSERT_EQ(corpus.sites.size(), 1u);
  const Ontology& ontology = corpus.world.kb.ontology();
  TypeId film = *ontology.TypeByName("film");
  TypeId person = *ontology.TypeByName("person");
  TypeId episode = *ontology.TypeByName("tv_episode");
  int films = 0;
  int persons = 0;
  int episodes = 0;
  for (const GeneratedPage& page : corpus.sites[0].pages) {
    TypeId type = corpus.world.kb.entity(page.topic).type;
    if (type == film) ++films;
    if (type == person) ++persons;
    if (type == episode) ++episodes;
  }
  EXPECT_GT(films, 0);
  EXPECT_GT(persons, 0);
  EXPECT_GT(episodes, 0);
}

TEST(LongTailCorpusTest, ThirtyThreeSitesWithDegenerates) {
  Corpus corpus = MakeLongTailCorpus(kTinyScale);
  ASSERT_EQ(corpus.sites.size(), 33u);
  // boxofficemojo has only non-detail pages.
  bool found_mojo = false;
  for (const SyntheticSite& site : corpus.sites) {
    if (site.name == "boxofficemojo.com") {
      found_mojo = true;
      EXPECT_FALSE(site.pages.empty());
      for (const GeneratedPage& page : site.pages) {
        EXPECT_EQ(page.topic, kInvalidEntity);
      }
    }
  }
  EXPECT_TRUE(found_mojo);
}

TEST(LongTailCorpusTest, ObscureSitesHaveLowKbOverlap) {
  Corpus corpus = MakeLongTailCorpus(kTinyScale);
  auto overlap_fraction = [&](const std::string& name) {
    for (const SyntheticSite& site : corpus.sites) {
      if (site.name != name) continue;
      int hits = 0;
      int total = 0;
      for (const GeneratedPage& page : site.pages) {
        if (page.topic == kInvalidEntity) continue;
        ++total;
        // Overlap = the KB knows at least 2 facts about this topic.
        for (EntityId id : corpus.seed_kb.MatchMentions(page.topic_name)) {
          if (corpus.seed_kb.TriplesWithSubject(id).size() >= 2) {
            ++hits;
            break;
          }
        }
      }
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
    ADD_FAILURE() << "site not found: " << name;
    return 0.0;
  };
  EXPECT_GT(overlap_fraction("themoviedb.org"),
            overlap_fraction("bcdb.com"));
}

TEST(EnvScaleTest, ParsesAndDefaults) {
  unsetenv("CERES_SCALE");
  EXPECT_DOUBLE_EQ(EnvScale(), 1.0);
  setenv("CERES_SCALE", "", 1);
  EXPECT_DOUBLE_EQ(EnvScale(), 1.0);
  setenv("CERES_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(EnvScale(), 0.5);
  // A malformed scale stops the run rather than sizing it by a default or
  // by the number it starts with.
  for (const char* bad : {"garbage", "0.2x", " 0.5", "-2", "0", "inf", "nan",
                          "1e999"}) {
    setenv("CERES_SCALE", bad, 1);
    EXPECT_EXIT(EnvScale(), ::testing::ExitedWithCode(2),
                "CERES_SCALE must be a finite number above 0")
        << bad;
  }
  unsetenv("CERES_SCALE");
}

}  // namespace
}  // namespace ceres::synth

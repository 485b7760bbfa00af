#include "fusion/knowledge_fusion.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ceres::fusion {
namespace {

Ontology MakeOntology() {
  Ontology ontology;
  TypeId film = ontology.AddEntityType("film");
  TypeId person = ontology.AddEntityType("person");
  TypeId date = ontology.AddEntityType("date", /*is_literal=*/true);
  ontology.AddPredicate("directedBy", film, person, true);    // id 0
  ontology.AddPredicate("releaseDate", film, date, false);    // id 1: func.
  return ontology;
}

Extraction Make(const std::string& subject, PredicateId predicate,
                const std::string& object, double confidence) {
  return Extraction{0, 0, predicate, subject, object, confidence};
}

TEST(KnowledgeFusionTest, MergesAcrossSitesAndNormalizes) {
  Ontology ontology = MakeOntology();
  std::vector<SiteExtractions> sites{
      {"a.com", {Make("Do the Right Thing", 0, "Spike Lee", 0.9)}},
      {"b.com", {Make("do the right thing (1989)", 0, "SPIKE LEE", 0.8)}},
  };
  FusionResult result = FuseExtractions(sites, ontology);
  ASSERT_EQ(result.triples.size(), 1u);
  EXPECT_EQ(result.triples[0].subject, "do the right thing");
  EXPECT_EQ(result.triples[0].object, "spike lee");
  EXPECT_EQ(result.triples[0].sites.size(), 2u);
}

TEST(KnowledgeFusionTest, MoreSupportMeansHigherScore) {
  Ontology ontology = MakeOntology();
  std::vector<SiteExtractions> sites{
      {"a.com",
       {Make("Film One", 0, "Director X", 0.8),
        Make("Film Two", 0, "Director Y", 0.8)}},
      {"b.com", {Make("Film One", 0, "Director X", 0.8)}},
      {"c.com", {Make("Film One", 0, "Director X", 0.8)}},
  };
  FusionResult result = FuseExtractions(sites, ontology);
  ASSERT_EQ(result.triples.size(), 2u);
  // Sorted by score: the triple with 3 supporters comes first.
  EXPECT_EQ(result.triples[0].subject, "film one");
  EXPECT_GT(result.triples[0].score, result.triples[1].score);
}

TEST(KnowledgeFusionTest, ConfidenceFloorFiltersWeakExtractions) {
  Ontology ontology = MakeOntology();
  std::vector<SiteExtractions> sites{
      {"a.com", {Make("Film", 0, "Someone", 0.3)}},
  };
  EXPECT_TRUE(FuseExtractions(sites, ontology).triples.empty());
}

TEST(KnowledgeFusionTest, FunctionalConflictKeepsBestObject) {
  Ontology ontology = MakeOntology();
  std::vector<SiteExtractions> sites{
      {"a.com", {Make("Film", 1, "12 June 1989", 0.95)}},
      {"b.com", {Make("Film", 1, "12 June 1989", 0.9)}},
      {"c.com", {Make("Film", 1, "1 January 1990", 0.7)}},
  };
  FusionResult result = FuseExtractions(sites, ontology);
  ASSERT_EQ(result.triples.size(), 1u);
  EXPECT_EQ(result.triples[0].object, "12 june 1989");
}

TEST(KnowledgeFusionTest, MultiValuedPredicatesNeverConflict) {
  Ontology ontology = MakeOntology();
  std::vector<SiteExtractions> sites{
      {"a.com",
       {Make("Film", 0, "Director X", 0.9),
        Make("Film", 0, "Director Y", 0.9)}},
  };
  FusionResult result = FuseExtractions(sites, ontology);
  EXPECT_EQ(result.triples.size(), 2u);
}

TEST(KnowledgeFusionTest, ReliabilityDowngradesOutlierSite) {
  Ontology ontology = MakeOntology();
  // Three sites agree on 10 facts; a fourth asserts 10 unsupported ones.
  std::vector<SiteExtractions> sites(4);
  sites[0].site = "good1.com";
  sites[1].site = "good2.com";
  sites[2].site = "good3.com";
  sites[3].site = "lone.com";
  for (int i = 0; i < 10; ++i) {
    std::string film = "Shared Film " + std::to_string(i);
    for (int s = 0; s < 3; ++s) {
      sites[static_cast<size_t>(s)].extractions.push_back(
          Make(film, 0, "Director " + std::to_string(i), 0.9));
    }
    sites[3].extractions.push_back(
        Make("Lonely Film " + std::to_string(i), 0,
             "Nobody " + std::to_string(i), 0.9));
  }
  FusionResult result = FuseExtractions(sites, ontology);
  double good = 0;
  double lone = 0;
  for (const SiteReliability& site : result.sites) {
    if (site.site == "lone.com") {
      lone = site.reliability;
    } else {
      good = site.reliability;
    }
  }
  EXPECT_GT(good, lone);
  // And corroborated triples outrank singleton ones.
  EXPECT_EQ(result.triples.front().sites.size(), 3u);
}

TEST(KnowledgeFusionTest, NameExtractionsIgnored) {
  Ontology ontology = MakeOntology();
  std::vector<SiteExtractions> sites{
      {"a.com",
       {Extraction{0, 0, kNamePredicate, "Film", "Film", 1.0},
        Make("Film", 0, "Director X", 0.9)}},
  };
  FusionResult result = FuseExtractions(sites, ontology);
  ASSERT_EQ(result.triples.size(), 1u);
  EXPECT_EQ(result.triples[0].predicate, 0);
}

TEST(BuildKbFromFusedTriplesTest, MaterializesFrozenKb) {
  Ontology ontology = MakeOntology();
  std::vector<SiteExtractions> sites{
      {"a.com",
       {Make("Film One", 0, "Director X", 0.9),
        Make("Film One", 1, "12 June 1989", 0.9)}},
      {"b.com", {Make("Film One", 0, "Director X", 0.9)}},
  };
  FusionResult fused = FuseExtractions(sites, ontology);
  KnowledgeBase kb = BuildKbFromFusedTriples(fused, ontology, 0.0);
  EXPECT_TRUE(kb.frozen());
  EXPECT_EQ(kb.num_triples(), 2);
  std::vector<EntityId> film = kb.MatchMentions("film one");
  ASSERT_EQ(film.size(), 1u);  // Subject interned once across predicates.
  EXPECT_EQ(kb.TriplesWithSubject(film[0]).size(), 2u);
  // The bootstrapped KB drives topic identification like any other KB.
  EXPECT_FALSE(kb.ObjectsOfSubject(film[0]).empty());
}

TEST(BuildKbFromFusedTriplesTest, ScoreFloorAndConflictsRespected) {
  Ontology ontology = MakeOntology();
  std::vector<SiteExtractions> sites{
      {"a.com", {Make("Film", 1, "12 June 1989", 0.95)}},
      {"b.com", {Make("Film", 1, "1 January 1990", 0.55)}},
  };
  FusionResult fused = FuseExtractions(sites, ontology);
  // Fusion already dropped the conflicting loser, so it is never
  // materialized.
  ASSERT_EQ(fused.triples.size(), 1u);
  KnowledgeBase kb = BuildKbFromFusedTriples(fused, ontology, 0.0);
  EXPECT_EQ(kb.num_triples(), 1);
  EXPECT_FALSE(kb.MatchMentions("12 june 1989").empty());
  EXPECT_TRUE(kb.MatchMentions("1 january 1990").empty());
  // A floor above every score yields an empty KB.
  KnowledgeBase strict = BuildKbFromFusedTriples(fused, ontology, 0.999);
  EXPECT_EQ(strict.num_triples(), 0);
}

TEST(KnowledgeFusionTest, DuplicateSiteEntriesReportOneReliabilityRow) {
  Ontology ontology = MakeOntology();
  // Two crawl shards of one site plus a distinct second site. The shards'
  // extractions pool into one per-site support entry, so the reliability
  // report must carry one a.com row — a row per shard would double-count
  // its triples in any sum over result.sites.
  std::vector<SiteExtractions> sites{
      {"a.com", {Make("Film One", 0, "Director X", 0.9)}},
      {"a.com", {Make("Film Two", 0, "Director Y", 0.9)}},
      {"b.com", {Make("Film One", 0, "Director X", 0.8)}},
  };
  FusionResult result = FuseExtractions(sites, ontology);
  EXPECT_EQ(result.triples.size(), 2u);
  ASSERT_EQ(result.sites.size(), 2u);
  int64_t total = 0;
  for (const SiteReliability& site : result.sites) total += site.triples;
  // a.com supports both triples, b.com supports one.
  EXPECT_EQ(total, 3);
}

TEST(KnowledgeFusionTest, ReliabilityConvergesAndRespectsIterationCount) {
  Ontology ontology = MakeOntology();
  // Three sites fully corroborate each other: belief per triple exceeds
  // the ceiling after one update, so reliability clamps there and further
  // iterations are a fixpoint.
  auto make_sites = [] {
    std::vector<SiteExtractions> sites(3);
    sites[0].site = "a.com";
    sites[1].site = "b.com";
    sites[2].site = "c.com";
    for (int i = 0; i < 10; ++i) {
      for (auto& site : sites) {
        site.extractions.push_back(
            Make("Film " + std::to_string(i), 0,
                 "Director " + std::to_string(i), 0.9));
      }
    }
    return sites;
  };
  FusionConfig config;
  config.reliability_iterations = 0;  // Disabled: initial value reported.
  FusionResult initial = FuseExtractions(make_sites(), ontology, config);
  ASSERT_EQ(initial.sites.size(), 3u);
  EXPECT_DOUBLE_EQ(initial.sites[0].reliability, 0.8);

  config.reliability_iterations = 1;
  FusionResult once = FuseExtractions(make_sites(), ontology, config);
  EXPECT_DOUBLE_EQ(once.sites[0].reliability, 0.95);  // Ceiling.

  config.reliability_iterations = 50;
  FusionResult many = FuseExtractions(make_sites(), ontology, config);
  for (size_t i = 0; i < many.sites.size(); ++i) {
    EXPECT_DOUBLE_EQ(many.sites[i].reliability,
                     once.sites[i].reliability);
  }
}

TEST(KnowledgeFusionTest, LoneSiteReliabilityDecaysToFloor) {
  Ontology ontology = MakeOntology();
  // A single site asserting uncorroborated facts: each update multiplies
  // reliability by the extraction confidence, so it decays geometrically
  // until the floor clamp catches it.
  std::vector<SiteExtractions> sites(1);
  sites[0].site = "lone.com";
  for (int i = 0; i < 5; ++i) {
    sites[0].extractions.push_back(Make("Film " + std::to_string(i), 0,
                                        "Nobody " + std::to_string(i), 0.9));
  }
  FusionConfig config;
  config.reliability_iterations = 50;
  FusionResult result = FuseExtractions(sites, ontology, config);
  ASSERT_EQ(result.sites.size(), 1u);
  EXPECT_DOUBLE_EQ(result.sites[0].reliability, 0.05);  // The floor.
}

TEST(BuildKbFromFusedTriplesTest, ScoreExactlyAtFloorIsKept) {
  Ontology ontology = MakeOntology();
  std::vector<SiteExtractions> sites{
      {"a.com", {Make("Film", 0, "Director X", 0.9)}}};
  FusionResult fused = FuseExtractions(sites, ontology);
  ASSERT_EQ(fused.triples.size(), 1u);
  const double score = fused.triples[0].score;
  // The cutoff is strict (`score < min_score`): equality materializes.
  EXPECT_EQ(BuildKbFromFusedTriples(fused, ontology, score).num_triples(),
            1);
  EXPECT_EQ(BuildKbFromFusedTriples(fused, ontology,
                                    std::nextafter(score, 1.0))
                .num_triples(),
            0);
}

TEST(KnowledgeFusionTest, EmptyInput) {
  Ontology ontology = MakeOntology();
  FusionResult result = FuseExtractions({}, ontology);
  EXPECT_TRUE(result.triples.empty());
  EXPECT_TRUE(result.sites.empty());
}

TEST(KnowledgeFusionTest, ScoreBoundedAndMonotoneInConfidence) {
  Ontology ontology = MakeOntology();
  for (double confidence : {0.5, 0.7, 0.9, 0.99}) {
    std::vector<SiteExtractions> sites{
        {"a.com", {Make("Film", 0, "D", confidence)}}};
    FusionResult result = FuseExtractions(sites, ontology);
    ASSERT_EQ(result.triples.size(), 1u);
    EXPECT_GT(result.triples[0].score, 0.0);
    EXPECT_LT(result.triples[0].score, 1.0);
  }
  // Higher extraction confidence, higher fused score.
  std::vector<SiteExtractions> low{{"a.com", {Make("F", 0, "D", 0.5)}}};
  std::vector<SiteExtractions> high{{"a.com", {Make("F", 0, "D", 0.99)}}};
  EXPECT_LT(FuseExtractions(low, ontology).triples[0].score,
            FuseExtractions(high, ontology).triples[0].score);
}

}  // namespace
}  // namespace ceres::fusion

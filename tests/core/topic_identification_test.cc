#include "core/topic_identification.h"

#include <gtest/gtest.h>

#include "core/entity_matcher.h"
#include "testing/fixtures.h"

namespace ceres {
namespace {

using testing::FilmPageHtml;
using testing::ParseOrDie;
using testing::TinyMovieKb;

struct SitePages {
  std::vector<DomDocument> docs;
  std::vector<const DomDocument*> ptrs;
  std::vector<PageMentions> mentions;

  void Add(const KnowledgeBase& kb, const std::string& html) {
    docs.push_back(ParseOrDie(html));
    ptrs.clear();
    mentions.clear();
    for (const DomDocument& doc : docs) {
      ptrs.push_back(&doc);
      mentions.push_back(MatchPageMentions(doc, kb));
    }
  }
};

TopicConfig LooseConfig() {
  TopicConfig config;
  config.min_annotations_per_page = 2;
  config.common_string_min_count = 100;  // Tiny KB: disable the filter.
  return config;
}

TEST(TopicIdentificationTest, IdentifiesFilmTopics) {
  TinyMovieKb fixture;
  SitePages site;
  site.Add(fixture.kb,
           FilmPageHtml("Do the Right Thing", "Spike Lee", "Spike Lee",
                        {"Spike Lee", "Danny Aiello", "John Turturro"},
                        {"Comedy", "Dramedy"}));
  site.Add(fixture.kb,
           FilmPageHtml("Crooklyn", "Spike Lee", "Joie Lee",
                        {"Zelda Harris"}, {"Comedy"}));
  TopicResult result = IdentifyTopics(site.ptrs, site.mentions, fixture.kb,
                                      LooseConfig());
  EXPECT_EQ(result.topic[0], fixture.right_thing);
  EXPECT_EQ(result.topic[1], fixture.crooklyn);
  // The topic node is the h1 on both pages (the dominant XPath).
  EXPECT_EQ(site.docs[0].node(result.topic_node[0]).tag, "h1");
  EXPECT_EQ(site.docs[1].node(result.topic_node[1]).tag, "h1");
}

TEST(TopicIdentificationTest, DominantPathOverridesSpuriousLocalWinner) {
  TinyMovieKb fixture;
  SitePages site;
  // Three normal pages fix the h1 path as dominant...
  site.Add(fixture.kb,
           FilmPageHtml("Do the Right Thing", "Spike Lee", "Spike Lee",
                        {"Danny Aiello", "John Turturro"}, {"Comedy"}));
  site.Add(fixture.kb,
           FilmPageHtml("Crooklyn", "Spike Lee", "Joie Lee",
                        {"Zelda Harris"}, {"Comedy"}));
  // ...then a page whose h1 is Selma but which carries more of Crooklyn's
  // facts (Spike Lee, Zelda Harris, Comedy) than of Selma's (Danny Aiello,
  // Dramedy) and names Crooklyn in a side box. Crooklyn wins the page's
  // local Jaccard score (3/7 against 2/7); only the site's dominant h1
  // path makes Selma the topic.
  site.Add(fixture.kb,
           FilmPageHtml("Selma", "Spike Lee", "Paul Webb",
                        {"Danny Aiello", "Zelda Harris"},
                        {"Dramedy", "Comedy"}, {"Crooklyn"}));
  TopicResult result = IdentifyTopics(site.ptrs, site.mentions, fixture.kb,
                                      LooseConfig());
  EXPECT_EQ(result.topic[2], fixture.selma);
  ASSERT_NE(result.topic_node[2], kInvalidNode);
  EXPECT_EQ(site.docs[2].node(result.topic_node[2]).tag, "h1");
}

TEST(TopicIdentificationTest, UniquenessFilterDropsRepeatedCandidate) {
  TinyMovieKb fixture;
  SitePages site;
  // Six pages whose real topics are unknown to the KB but which all carry
  // a "Crooklyn" recommendation: Crooklyn would win as candidate topic on
  // every page.
  for (int i = 0; i < 6; ++i) {
    site.Add(fixture.kb,
             FilmPageHtml("Unknown Film #" + std::to_string(i), "Spike Lee",
                          "Spike Lee", {"Danny Aiello", "John Turturro"},
                          {"Comedy", "Dramedy"}, {"Crooklyn"}));
  }
  // Crooklyn is the local candidate of 6 >= 5 pages, so the uniqueness
  // filter discards it everywhere; without the filter it would stick.
  TopicResult result = IdentifyTopics(site.ptrs, site.mentions, fixture.kb,
                                      LooseConfig());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(result.topic[i], kInvalidEntity) << "page " << i;
  }
}

TEST(TopicIdentificationTest, InformativenessFilterDropsThinPages) {
  TinyMovieKb fixture;
  SitePages site;
  // Selma has only 2 facts in the KB; a min of 3 annotations drops it.
  site.Add(fixture.kb, FilmPageHtml("Selma", "X", "Y", {"Danny Aiello"},
                                    {"Dramedy"}));
  site.Add(fixture.kb,
           FilmPageHtml("Do the Right Thing", "Spike Lee", "Spike Lee",
                        {"Danny Aiello", "John Turturro"}, {"Comedy"}));
  TopicConfig config = LooseConfig();
  config.min_annotations_per_page = 3;
  TopicResult result =
      IdentifyTopics(site.ptrs, site.mentions, fixture.kb, config);
  EXPECT_EQ(result.topic[0], kInvalidEntity);
  EXPECT_EQ(result.topic[1], fixture.right_thing);
}

TEST(TopicIdentificationTest, LiteralEntitiesNeverTopics) {
  // Build a KB where a literal would otherwise be the best candidate.
  Ontology ontology;
  TypeId film = ontology.AddEntityType("film");
  TypeId date = ontology.AddEntityType("date", /*is_literal=*/true);
  PredicateId released = ontology.AddPredicate("released", film, date, false);
  KnowledgeBase kb(std::move(ontology));
  EntityId f = kb.AddEntity(film, "Some Film");
  EntityId d = kb.AddEntity(date, "12 June 1989");
  kb.AddTriple(f, released, d);
  kb.Freeze();

  DomDocument page = ParseOrDie(
      "<body><h1>Some Film</h1><div>12 June 1989</div></body>");
  std::vector<const DomDocument*> pages{&page};
  std::vector<PageMentions> mentions{MatchPageMentions(page, kb)};
  TopicConfig config;
  config.min_annotations_per_page = 1;
  config.common_string_min_count = 100;
  TopicResult result = IdentifyTopics(pages, mentions, kb, config);
  EXPECT_EQ(result.topic[0], f);
}

TEST(TopicIdentificationTest, PagesWithNoCandidatesGetNoTopic) {
  TinyMovieKb fixture;
  SitePages site;
  site.Add(fixture.kb, "<body><h1>Nothing here</h1></body>");
  TopicResult result = IdentifyTopics(site.ptrs, site.mentions, fixture.kb,
                                      LooseConfig());
  EXPECT_EQ(result.topic[0], kInvalidEntity);
}

// The §3.1.1 common-string filter: with the floor disabled (min_count 1),
// 0.01% of a tiny KB rounds below one triple, so any topic whose name also
// appears as a triple object (films do, via inverse predicates) becomes
// "common" and is banned; the floor restores sane behaviour.
TEST(TopicIdentificationTest, CommonStringFloorPreventsOverFiltering) {
  Ontology ontology;
  TypeId film = ontology.AddEntityType("film");
  TypeId person = ontology.AddEntityType("person");
  PredicateId directed =
      ontology.AddPredicate("directedBy", film, person, true);
  PredicateId director_of =
      ontology.AddPredicate("directorOf", person, film, true);
  KnowledgeBase kb(std::move(ontology));
  EntityId f = kb.AddEntity(film, "Do the Right Thing");
  EntityId p = kb.AddEntity(person, "Spike Lee");
  kb.AddTriple(f, directed, p);
  kb.AddTriple(p, director_of, f);  // The film's name is now an object.
  kb.Freeze();

  DomDocument page = ParseOrDie(
      "<body><h1>Do the Right Thing</h1><div>Spike Lee</div></body>");
  std::vector<const DomDocument*> pages{&page};
  std::vector<PageMentions> mentions{MatchPageMentions(page, kb)};
  TopicConfig config;
  config.min_annotations_per_page = 1;
  config.common_string_min_count = 1;  // Floor disabled: everything common.
  TopicResult no_floor = IdentifyTopics(pages, mentions, kb, config);
  EXPECT_EQ(no_floor.topic[0], kInvalidEntity);

  config.common_string_min_count = 200;  // Default floor.
  TopicResult with_floor = IdentifyTopics(pages, mentions, kb, config);
  EXPECT_EQ(with_floor.topic[0], f);
}

TEST(TopicIdentificationTest, RankedPathsOrderedByFrequency) {
  TinyMovieKb fixture;
  SitePages site;
  for (int i = 0; i < 3; ++i) {
    site.Add(fixture.kb,
             FilmPageHtml(i == 0 ? "Do the Right Thing"
                          : i == 1 ? "Crooklyn" : "Selma",
                          "Spike Lee", "Spike Lee", {"Danny Aiello"},
                          {"Comedy"}));
  }
  TopicConfig config = LooseConfig();
  config.min_annotations_per_page = 1;
  TopicResult result =
      IdentifyTopics(site.ptrs, site.mentions, fixture.kb, config);
  ASSERT_FALSE(result.ranked_paths.empty());
  // The h1 title path must rank first: every page's candidate lives there.
  EXPECT_EQ(result.ranked_paths[0].steps().back().tag, "h1");
}

}  // namespace
}  // namespace ceres

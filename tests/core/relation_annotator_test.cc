#include "core/relation_annotator.h"

#include <gtest/gtest.h>

#include <set>

#include "core/entity_matcher.h"
#include "testing/fixtures.h"

namespace ceres {
namespace {

using testing::FilmPageHtml;
using testing::ParseOrDie;
using testing::TinyMovieKb;

struct AnnotatorHarness {
  explicit AnnotatorHarness(TinyMovieKb* fixture) : fixture(fixture) {}

  void AddPage(const std::string& html, EntityId topic) {
    docs.push_back(ParseOrDie(html));
    topics_in.push_back(topic);
  }

  AnnotationResult Run(const AnnotatorConfig& config = {}) {
    ptrs.clear();
    mentions.clear();
    for (const DomDocument& doc : docs) {
      ptrs.push_back(&doc);
      mentions.push_back(MatchPageMentions(doc, fixture->kb));
    }
    TopicResult topics;
    topics.topic = topics_in;
    topics.topic_node.assign(docs.size(), kInvalidNode);
    topics.score.assign(docs.size(), 1.0);
    // Topic node: first field whose text equals the topic name.
    for (size_t i = 0; i < docs.size(); ++i) {
      if (topics_in[i] == kInvalidEntity) continue;
      auto it = mentions[i].mentions_of.find(topics_in[i]);
      if (it != mentions[i].mentions_of.end()) {
        topics.topic_node[i] = it->second.front();
      }
    }
    return AnnotateRelations(ptrs, mentions, topics, fixture->kb, config);
  }

  // All (page, predicate) annotations for an object.
  std::vector<Annotation> Of(const AnnotationResult& result,
                             PredicateId predicate) {
    std::vector<Annotation> out;
    for (const Annotation& a : result.annotations) {
      if (a.predicate == predicate) out.push_back(a);
    }
    return out;
  }

  TinyMovieKb* fixture;
  std::vector<DomDocument> docs;
  std::vector<EntityId> topics_in;
  std::vector<const DomDocument*> ptrs;
  std::vector<PageMentions> mentions;
};

// The Example 3.1 scenario: Spike Lee appears in director, writer, and cast
// sections; his "hasCastMember" annotation must land in the cast list where
// the other cast mentions live.
TEST(RelationAnnotatorTest, LocalEvidencePicksCastListMention) {
  TinyMovieKb fixture;
  AnnotatorHarness harness(&fixture);
  harness.AddPage(
      FilmPageHtml("Do the Right Thing", "Spike Lee", "Spike Lee",
                   {"Spike Lee", "Danny Aiello", "John Turturro"},
                   {"Comedy", "Dramedy"}),
      fixture.right_thing);
  AnnotationResult result = harness.Run();

  std::vector<Annotation> cast_annotations =
      harness.Of(result, fixture.cast);
  // Lee + Aiello + Turturro, one each.
  EXPECT_EQ(cast_annotations.size(), 3u);
  // Lee's cast annotation is an <li> in the cast list.
  bool found_li = false;
  for (const Annotation& a : cast_annotations) {
    if (a.object == fixture.lee) {
      EXPECT_EQ(harness.docs[0].node(a.node).tag, "li");
      found_li = true;
    }
  }
  EXPECT_TRUE(found_li);
}

TEST(RelationAnnotatorTest, AtMostOneMentionPerObjectPerPredicate) {
  TinyMovieKb fixture;
  AnnotatorHarness harness(&fixture);
  harness.AddPage(
      FilmPageHtml("Do the Right Thing", "Spike Lee", "Spike Lee",
                   {"Spike Lee", "Danny Aiello"}, {"Comedy"}),
      fixture.right_thing);
  AnnotationResult result = harness.Run();
  std::set<std::pair<PredicateId, EntityId>> seen;
  for (const Annotation& a : result.annotations) {
    if (a.predicate == kNamePredicate) continue;
    EXPECT_TRUE(seen.emplace(a.predicate, a.object).second)
        << "object annotated twice for one predicate";
  }
}

// Example 3.2: genres duplicated in a recommendation block tie on local
// evidence; clustering across pages must prefer the main genre list.
TEST(RelationAnnotatorTest, GlobalClusteringResolvesGenreTie) {
  TinyMovieKb fixture;
  AnnotatorHarness harness(&fixture);
  // Both pages duplicate genres in the rec block, creating local ties; but
  // as on real sites the rec block only *sometimes* repeats the true
  // genres, so across pages the main list forms the larger cluster.
  harness.AddPage(
      FilmPageHtml("Do the Right Thing", "Spike Lee", "Spike Lee",
                   {"Danny Aiello"}, {"Comedy", "Dramedy"},
                   {"Comedy", "Dramedy"}),
      fixture.right_thing);
  harness.AddPage(FilmPageHtml("Crooklyn", "Spike Lee", "x",
                               {"Zelda Harris"}, {"Comedy"},
                               {"Dramedy"}),
                  fixture.crooklyn);
  AnnotationResult result = harness.Run();
  std::vector<Annotation> genre_annotations =
      harness.Of(result, fixture.genre);
  EXPECT_FALSE(genre_annotations.empty());
  for (const Annotation& a : genre_annotations) {
    // Annotated node must be inside the main genres list, not recgenres.
    NodeId parent = harness.docs[static_cast<size_t>(a.page)]
                        .node(a.node)
                        .parent;
    EXPECT_EQ(harness.docs[static_cast<size_t>(a.page)]
                  .Attribute(parent, "class"),
              "genres");
  }
}

// When clustering cannot break the tie either (all clusters equal), no
// annotation is made — precision over recall (§3).
TEST(RelationAnnotatorTest, FullySymmetricTieYieldsNoAnnotation) {
  TinyMovieKb fixture;
  AnnotatorHarness harness(&fixture);
  harness.AddPage(
      FilmPageHtml("Do the Right Thing", "Spike Lee", "Spike Lee",
                   {"Danny Aiello"}, {"Comedy", "Dramedy"},
                   {"Comedy", "Dramedy"}),
      fixture.right_thing);
  AnnotationResult result = harness.Run();
  // One page only: main and rec clusters tie at one occurrence per path;
  // every genre task is ambiguous and dropped.
  EXPECT_TRUE(harness.Of(result, fixture.genre).empty());
}

TEST(RelationAnnotatorTest, TopicOnlyModeAnnotatesEveryMention) {
  TinyMovieKb fixture;
  AnnotatorHarness harness(&fixture);
  harness.AddPage(
      FilmPageHtml("Do the Right Thing", "Spike Lee", "Spike Lee",
                   {"Spike Lee", "Danny Aiello"}, {"Comedy"}),
      fixture.right_thing);
  AnnotatorConfig config;
  config.use_relation_filtering = false;
  AnnotationResult result = harness.Run(config);
  // Lee has 3 mentions × 3 predicates (directed/wrote/cast) = 9 labels.
  int lee_labels = 0;
  for (const Annotation& a : result.annotations) {
    if (a.object == fixture.lee) ++lee_labels;
  }
  EXPECT_EQ(lee_labels, 9);
}

TEST(RelationAnnotatorTest, FullModeMakesFewerAnnotationsThanTopicOnly) {
  TinyMovieKb fixture;
  AnnotatorHarness full_harness(&fixture);
  AnnotatorHarness topic_harness(&fixture);
  const std::string html = FilmPageHtml(
      "Do the Right Thing", "Spike Lee", "Spike Lee",
      {"Spike Lee", "Danny Aiello", "John Turturro"}, {"Comedy", "Dramedy"},
      {"Comedy"});
  full_harness.AddPage(html, fixture.right_thing);
  topic_harness.AddPage(html, fixture.right_thing);
  AnnotatorConfig topic_config;
  topic_config.use_relation_filtering = false;
  size_t full_count = full_harness.Run().annotations.size();
  size_t topic_count = topic_harness.Run(topic_config).annotations.size();
  EXPECT_LT(full_count, topic_count);
}

// The informativeness guard (§3.2.2 case 2): a value recurring on most
// pages (search-box "Comedy" on every page here) is only annotated when
// it sits in the predicate's dominant XPath cluster.
TEST(RelationAnnotatorTest, SuspiciousValueGuardUsesClustering) {
  TinyMovieKb fixture;
  AnnotatorHarness harness(&fixture);
  // Four pages; every film has genre Comedy in the KB and on the page
  // twice: once in the main genre list (consistent position) and once in
  // a rec block. The object value recurs on ALL annotated pages, so the
  // guard kicks in; the dominant cluster is the main list.
  harness.AddPage(FilmPageHtml("Do the Right Thing", "Spike Lee",
                               "Spike Lee", {"Danny Aiello"},
                               {"Comedy", "Dramedy"}, {"Comedy"}),
                  fixture.right_thing);
  harness.AddPage(FilmPageHtml("Crooklyn", "Spike Lee", "x",
                               {"Zelda Harris"}, {"Comedy"}, {"Comedy"}),
                  fixture.crooklyn);
  AnnotationResult result = harness.Run();
  for (const Annotation& a : harness.Of(result, fixture.genre)) {
    NodeId parent =
        harness.docs[static_cast<size_t>(a.page)].node(a.node).parent;
    EXPECT_EQ(harness.docs[static_cast<size_t>(a.page)]
                  .Attribute(parent, "class"),
              "genres")
        << "suspicious value annotated outside the dominant cluster";
  }
}

// The informativeness guard (§3.2.2 case 2) changing an annotation. Four
// films share the genre Comedy, so the value recurs on every annotated page.
// On page 3 Comedy is absent from the genre list and appears only in the
// recommendation block: local evidence picks that lone mention, but it lies
// outside hasGenre's dominant XPath cluster (the main genre lists), so the
// guard drops it. Page 3's own genre, in the main list, is still annotated.
TEST(RelationAnnotatorTest, InformativenessGuardDropsRecurringValueOffCluster) {
  Ontology ontology;
  TypeId film = ontology.AddEntityType("film");
  TypeId genre_type = ontology.AddEntityType("genre");
  PredicateId genre = ontology.AddPredicate("hasGenre", film, genre_type, true);
  KnowledgeBase kb(std::move(ontology));
  const EntityId comedy = kb.AddEntity(genre_type, "Comedy");
  const std::vector<std::string> titles = {"Film Zero", "Film One",
                                           "Film Two", "Film Three"};
  const std::vector<std::string> own_genres = {"Noir", "Western", "Musical",
                                               "Satire"};
  std::vector<EntityId> films;
  std::vector<EntityId> own;
  for (size_t i = 0; i < titles.size(); ++i) {
    films.push_back(kb.AddEntity(film, titles[i]));
    own.push_back(kb.AddEntity(genre_type, own_genres[i]));
    kb.AddTriple(films[i], genre, comedy);
    kb.AddTriple(films[i], genre, own[i]);
  }
  kb.Freeze();

  std::vector<DomDocument> docs;
  // Page 0 also repeats Comedy in its rec block: a two-mention task, so
  // hasGenre's paths are clustered into two groups.
  docs.push_back(ParseOrDie(FilmPageHtml(titles[0], "X", "Y", {},
                                         {"Comedy", own_genres[0]},
                                         {"Comedy"})));
  for (size_t i = 1; i < 3; ++i) {
    docs.push_back(ParseOrDie(
        FilmPageHtml(titles[i], "X", "Y", {}, {"Comedy", own_genres[i]})));
  }
  docs.push_back(ParseOrDie(
      FilmPageHtml(titles[3], "X", "Y", {}, {own_genres[3]}, {"Comedy"})));

  std::vector<const DomDocument*> ptrs;
  std::vector<PageMentions> mentions;
  TopicResult topics;
  for (size_t i = 0; i < docs.size(); ++i) {
    ptrs.push_back(&docs[i]);
    mentions.push_back(MatchPageMentions(docs[i], kb));
    topics.topic.push_back(films[i]);
    topics.topic_node.push_back(mentions[i].mentions_of.at(films[i]).front());
    topics.score.push_back(1.0);
  }
  AnnotationResult result = AnnotateRelations(ptrs, mentions, topics, kb);

  std::set<std::pair<PageIndex, EntityId>> annotated;
  for (const Annotation& a : result.annotations) {
    if (a.predicate != genre) continue;
    annotated.emplace(a.page, a.object);
    NodeId parent = docs[static_cast<size_t>(a.page)].node(a.node).parent;
    EXPECT_EQ(docs[static_cast<size_t>(a.page)].Attribute(parent, "class"),
              "genres")
        << "page " << a.page;
  }
  for (PageIndex page = 0; page < 3; ++page) {
    EXPECT_EQ(annotated.count({page, comedy}), 1u) << "page " << page;
  }
  EXPECT_EQ(annotated.count({3, comedy}), 0u);
  for (PageIndex page = 0; page < 4; ++page) {
    EXPECT_EQ(annotated.count({page, own[static_cast<size_t>(page)]}), 1u)
        << "page " << page;
  }
}

TEST(RelationAnnotatorTest, PagesWithoutTopicIgnored) {
  TinyMovieKb fixture;
  AnnotatorHarness harness(&fixture);
  harness.AddPage(
      FilmPageHtml("Mystery", "Spike Lee", "x", {"Danny Aiello"},
                   {"Comedy"}),
      kInvalidEntity);
  AnnotationResult result = harness.Run();
  EXPECT_TRUE(result.annotations.empty());
  EXPECT_TRUE(result.annotated_pages.empty());
}

TEST(RelationAnnotatorTest, NameAnnotationEmittedPerAnnotatedPage) {
  TinyMovieKb fixture;
  AnnotatorHarness harness(&fixture);
  harness.AddPage(
      FilmPageHtml("Do the Right Thing", "Spike Lee", "Spike Lee",
                   {"Danny Aiello"}, {"Comedy"}),
      fixture.right_thing);
  AnnotationResult result = harness.Run();
  int name_count = 0;
  for (const Annotation& a : result.annotations) {
    if (a.predicate == kNamePredicate) {
      ++name_count;
      EXPECT_EQ(a.object, fixture.right_thing);
    }
  }
  EXPECT_EQ(name_count, 1);
  EXPECT_EQ(result.annotated_pages.size(), 1u);
}

}  // namespace
}  // namespace ceres

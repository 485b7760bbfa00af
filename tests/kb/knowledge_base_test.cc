#include "kb/knowledge_base.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace ceres {
namespace {

class KnowledgeBaseTest : public ::testing::Test {
 protected:
  KnowledgeBaseTest() : kb_(MakeOntology()) {
    film_type_ = *kb_.ontology().TypeByName("film");
    person_type_ = *kb_.ontology().TypeByName("person");
    directed_ = *kb_.ontology().PredicateByName("directedBy");
    wrote_ = *kb_.ontology().PredicateByName("writtenBy");

    film_ = kb_.AddEntity(film_type_, "Do the Right Thing");
    other_film_ = kb_.AddEntity(film_type_, "Crooklyn");
    lee_ = kb_.AddEntity(person_type_, "Spike Lee");
    kb_.AddAlias(lee_, "S. Lee");
    kb_.AddTriple(film_, directed_, lee_);
    kb_.AddTriple(film_, wrote_, lee_);
    kb_.AddTriple(other_film_, directed_, lee_);
    kb_.AddTriple(other_film_, directed_, lee_);  // Duplicate, collapsed.
  }

  static Ontology MakeOntology() {
    Ontology ontology;
    TypeId film = ontology.AddEntityType("film");
    TypeId person = ontology.AddEntityType("person");
    ontology.AddPredicate("directedBy", film, person, true);
    ontology.AddPredicate("writtenBy", film, person, true);
    return ontology;
  }

  KnowledgeBase kb_;
  TypeId film_type_ = kInvalidType;
  TypeId person_type_ = kInvalidType;
  PredicateId directed_ = kInvalidPredicate;
  PredicateId wrote_ = kInvalidPredicate;
  EntityId film_ = kInvalidEntity;
  EntityId other_film_ = kInvalidEntity;
  EntityId lee_ = kInvalidEntity;
};

TEST_F(KnowledgeBaseTest, FreezeDeduplicatesTriples) {
  kb_.Freeze();
  EXPECT_EQ(kb_.num_triples(), 3);
  EXPECT_EQ(kb_.num_entities(), 3);
}

TEST_F(KnowledgeBaseTest, MatchMentionsByNameAndAlias) {
  kb_.Freeze();
  EXPECT_EQ(kb_.MatchMentions("spike lee"), (std::vector<EntityId>{lee_}));
  EXPECT_EQ(kb_.MatchMentions("S. Lee"), (std::vector<EntityId>{lee_}));
  EXPECT_TRUE(kb_.MatchMentions("Nobody").empty());
}

TEST_F(KnowledgeBaseTest, TriplesWithSubject) {
  kb_.Freeze();
  std::span<const Triple> triples = kb_.TriplesWithSubject(film_);
  EXPECT_EQ(triples.size(), 2u);
  EXPECT_TRUE(kb_.TriplesWithSubject(lee_).empty());
  // The span aliases the frozen triple store and is sorted by
  // (subject, predicate, object).
  for (const Triple& triple : triples) EXPECT_EQ(triple.subject, film_);
}

TEST_F(KnowledgeBaseTest, ObjectsOfSubject) {
  kb_.Freeze();
  std::span<const EntityId> objects = kb_.ObjectsOfSubject(film_);
  EXPECT_EQ(objects.size(), 1u);
  EXPECT_TRUE(std::binary_search(objects.begin(), objects.end(), lee_));
  EXPECT_TRUE(kb_.ObjectsOfSubject(lee_).empty());
}

TEST_F(KnowledgeBaseTest, PredicatesBetween) {
  kb_.Freeze();
  std::vector<PredicateId> predicates = kb_.PredicatesBetween(film_, lee_);
  EXPECT_EQ(predicates.size(), 2u);
  EXPECT_TRUE(kb_.PredicatesBetween(lee_, film_).empty());
}

TEST_F(KnowledgeBaseTest, HasTriple) {
  kb_.Freeze();
  EXPECT_TRUE(kb_.HasTriple(film_, directed_, lee_));
  EXPECT_TRUE(kb_.HasTriple(other_film_, directed_, lee_));
  EXPECT_FALSE(kb_.HasTriple(other_film_, wrote_, lee_));
}

TEST_F(KnowledgeBaseTest, CommonObjectStrings) {
  kb_.Freeze();
  // "spike lee" is object of all 3 triples.
  auto common = kb_.CommonObjectStrings(0.5);
  EXPECT_EQ(common.size(), 1u);
  EXPECT_TRUE(common.count("spike lee") > 0);
  // With a min_count floor above 3, nothing qualifies.
  EXPECT_TRUE(kb_.CommonObjectStrings(0.5, 10).empty());
}

TEST_F(KnowledgeBaseTest, CountsByType) {
  kb_.Freeze();
  EXPECT_EQ(kb_.CountEntitiesOfType(film_type_), 2);
  EXPECT_EQ(kb_.CountEntitiesOfType(person_type_), 1);
  EXPECT_EQ(kb_.CountPredicatesForSubjectType(film_type_), 2);
  EXPECT_EQ(kb_.CountPredicatesForSubjectType(person_type_), 0);
}

TEST_F(KnowledgeBaseTest, QueriesRequireFreeze) {
  EXPECT_DEATH(kb_.MatchMentions("x"), "");
  EXPECT_DEATH(kb_.TriplesWithSubject(film_), "");
}

TEST_F(KnowledgeBaseTest, MutationAfterFreezeDies) {
  kb_.Freeze();
  EXPECT_DEATH(kb_.AddEntity(film_type_, "Late"), "");
  EXPECT_DEATH(kb_.AddTriple(film_, directed_, lee_), "");
}

// Mention matching (§3.1.1 step 1). Every case runs on a heap-frozen KB
// and on the same KB re-opened from its saved image: both backings answer
// from the image's sorted name-key section, so they must agree exactly.
class KbMentionMatchTest : public ::testing::Test {
 protected:
  using Ids = std::vector<EntityId>;

  KbMentionMatchTest() : heap_(MakeOntology()) {}

  ~KbMentionMatchTest() override {
    if (!image_path_.empty()) std::remove(image_path_.c_str());
  }

  static Ontology MakeOntology() {
    Ontology ontology;
    ontology.AddEntityType("thing");
    return ontology;
  }

  EntityId Add(std::string_view name) { return heap_.AddEntity(0, name); }

  /// Freezes the KB, writes its image and maps it back; returns both.
  std::vector<const KnowledgeBase*> FreezeBothBackings() {
    heap_.Freeze();
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    image_path_ = ::testing::TempDir() + "/match_" + test->name() + ".kbi";
    EXPECT_TRUE(heap_.SaveImage(image_path_).ok());
    Result<KnowledgeBase> mapped = KnowledgeBase::OpenImage(image_path_);
    EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
    mapped_ = std::make_unique<KnowledgeBase>(std::move(mapped).value());
    EXPECT_TRUE(mapped_->mapped());
    return {&heap_, mapped_.get()};
  }

  KnowledgeBase heap_;
  std::unique_ptr<KnowledgeBase> mapped_;
  std::string image_path_;
};

TEST_F(KbMentionMatchTest, ExactNormalizedMatch) {
  const EntityId film = Add("Do the Right Thing");
  for (const KnowledgeBase* kb : FreezeBothBackings()) {
    SCOPED_TRACE(kb->mapped() ? "mapped" : "heap");
    EXPECT_EQ(kb->MatchMentions("do the right thing"), Ids{film});
    EXPECT_EQ(kb->MatchMentions("DO THE RIGHT THING!"), Ids{film});
    EXPECT_TRUE(kb->MatchMentions("something else").empty());
  }
}

TEST_F(KbMentionMatchTest, AmbiguousNameReturnsAllIdsInEntityIdOrder) {
  const EntityId first = Add("Pilot");
  const EntityId middle = Add("Selma");
  const EntityId last = Add("Pilot");
  // Registered after `last`, but ids come back in entity-id order.
  heap_.AddAlias(middle, "pilot!");
  for (const KnowledgeBase* kb : FreezeBothBackings()) {
    SCOPED_TRACE(kb->mapped() ? "mapped" : "heap");
    EXPECT_EQ(kb->MatchMentions("Pilot"), (Ids{first, middle, last}));
  }
}

TEST_F(KbMentionMatchTest, DuplicateNameIdPairCollapses) {
  const EntityId selma = Add("Selma");
  heap_.AddAlias(selma, "Selma");
  heap_.AddAlias(selma, "SELMA");
  for (const KnowledgeBase* kb : FreezeBothBackings()) {
    SCOPED_TRACE(kb->mapped() ? "mapped" : "heap");
    EXPECT_EQ(kb->MatchMentions("Selma"), Ids{selma});
  }
}

TEST_F(KbMentionMatchTest, AliasesMapToSameId) {
  const EntityId twain = Add("Samuel Clemens");
  heap_.AddAlias(twain, "Mark Twain");
  for (const KnowledgeBase* kb : FreezeBothBackings()) {
    SCOPED_TRACE(kb->mapped() ? "mapped" : "heap");
    EXPECT_EQ(kb->MatchMentions("mark twain"), Ids{twain});
    EXPECT_EQ(kb->MatchMentions("Samuel Clemens"), Ids{twain});
  }
}

TEST_F(KbMentionMatchTest, TrailingYearStripped) {
  const EntityId film = Add("Do the Right Thing");
  for (const KnowledgeBase* kb : FreezeBothBackings()) {
    SCOPED_TRACE(kb->mapped() ? "mapped" : "heap");
    EXPECT_EQ(kb->MatchMentions("Do the Right Thing (1989)"), Ids{film});
  }
}

TEST_F(KbMentionMatchTest, YearNotStrippedWhenNameHasYear) {
  const EntityId with_year = Add("Class of 1984");
  Add("Class of");
  for (const KnowledgeBase* kb : FreezeBothBackings()) {
    SCOPED_TRACE(kb->mapped() ? "mapped" : "heap");
    // An exact hit wins; the year-free retry runs only on a miss.
    EXPECT_EQ(kb->MatchMentions("Class of 1984"), Ids{with_year});
  }
}

TEST_F(KbMentionMatchTest, AccentInsensitive) {
  const EntityId amelie = Add("Amélie");
  for (const KnowledgeBase* kb : FreezeBothBackings()) {
    SCOPED_TRACE(kb->mapped() ? "mapped" : "heap");
    EXPECT_EQ(kb->MatchMentions("Amelie"), Ids{amelie});
    EXPECT_EQ(kb->MatchMentions("AMÉLIE"), Ids{amelie});
  }
}

TEST_F(KbMentionMatchTest, EmptyAndBlankNamesNeverMatch) {
  Add("");
  Add("  !! ");
  for (const KnowledgeBase* kb : FreezeBothBackings()) {
    SCOPED_TRACE(kb->mapped() ? "mapped" : "heap");
    EXPECT_TRUE(kb->MatchMentions("").empty());
    EXPECT_TRUE(kb->MatchMentions("  !! ").empty());
    EXPECT_TRUE(kb->MatchMentions("!!").empty());
  }
}

TEST_F(KbMentionMatchTest, ViewStaysValidAcrossLaterLookups) {
  const EntityId film = Add("Do the Right Thing");
  const EntityId pilot_a = Add("Pilot");
  const EntityId pilot_b = Add("Pilot");
  for (const KnowledgeBase* kb : FreezeBothBackings()) {
    SCOPED_TRACE(kb->mapped() ? "mapped" : "heap");
    const std::span<const EntityId> hit = kb->MatchMentionsView("pilot");
    EXPECT_EQ(Ids(hit.begin(), hit.end()), kb->MatchMentions("pilot"));
    // The span is a view into the image, valid across lookups.
    const std::span<const EntityId> other =
        kb->MatchMentionsView("DO THE RIGHT THING (1989)");
    EXPECT_EQ(Ids(other.begin(), other.end()), Ids{film});
    EXPECT_EQ(Ids(hit.begin(), hit.end()), (Ids{pilot_a, pilot_b}));
    EXPECT_TRUE(kb->MatchMentionsView("nobody").empty());
  }
}

}  // namespace
}  // namespace ceres

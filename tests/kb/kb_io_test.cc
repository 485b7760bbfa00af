#include "kb/kb_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "synth/kb_builder.h"
#include "synth/world.h"

namespace ceres {
namespace {

KnowledgeBase MakeSmallKb() {
  Ontology ontology;
  TypeId film = ontology.AddEntityType("film");
  TypeId person = ontology.AddEntityType("person");
  TypeId date = ontology.AddEntityType("date", /*is_literal=*/true);
  PredicateId directed =
      ontology.AddPredicate("directedBy", film, person, true);
  PredicateId released =
      ontology.AddPredicate("releasedOn", film, date, false);
  KnowledgeBase kb(std::move(ontology));
  EntityId f = kb.AddEntity(film, "Do the Right Thing");
  EntityId p = kb.AddEntity(person, "Spike Lee");
  kb.AddAlias(p, "S. Lee");
  EntityId d = kb.AddEntity(date, "30 June 1989");
  kb.AddTriple(f, directed, p);
  kb.AddTriple(f, released, d);
  kb.Freeze();
  return kb;
}

TEST(KbIoTest, RoundTripPreservesEverything) {
  KnowledgeBase original = MakeSmallKb();
  std::ostringstream out;
  ASSERT_TRUE(SaveKb(original, &out).ok());
  std::istringstream in(out.str());
  Result<KnowledgeBase> loaded = LoadKb(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_entities(), original.num_entities());
  EXPECT_EQ(loaded->num_triples(), original.num_triples());
  EXPECT_EQ(loaded->ontology().num_types(), original.ontology().num_types());
  EXPECT_EQ(loaded->ontology().num_predicates(),
            original.ontology().num_predicates());
  // Matching and triple lookups behave identically.
  std::vector<EntityId> lee = loaded->MatchMentions("S. Lee");
  ASSERT_EQ(lee.size(), 1u);
  std::vector<EntityId> film = loaded->MatchMentions("Do the Right Thing");
  ASSERT_EQ(film.size(), 1u);
  PredicateId directed = *loaded->ontology().PredicateByName("directedBy");
  EXPECT_TRUE(loaded->HasTriple(film[0], directed, lee[0]));
  EXPECT_TRUE(loaded->ontology()
                  .entity_type(*loaded->ontology().TypeByName("date"))
                  .is_literal);
}

TEST(KbIoTest, RoundTripSerializationIsStable) {
  KnowledgeBase original = MakeSmallKb();
  std::ostringstream first;
  ASSERT_TRUE(SaveKb(original, &first).ok());
  std::istringstream in(first.str());
  Result<KnowledgeBase> loaded = LoadKb(&in);
  ASSERT_TRUE(loaded.ok());
  std::ostringstream second;
  ASSERT_TRUE(SaveKb(*loaded, &second).ok());
  EXPECT_EQ(first.str(), second.str());
}

TEST(KbIoTest, RoundTripSyntheticWorldKb) {
  synth::MovieWorldConfig config;
  config.scale = 0.1;
  synth::World world = synth::BuildMovieWorld(config);
  synth::SeedKbConfig kb_config;
  kb_config.default_coverage = 0.7;
  KnowledgeBase kb = synth::BuildSeedKb(world, kb_config);
  std::ostringstream out;
  ASSERT_TRUE(SaveKb(kb, &out).ok());
  std::istringstream in(out.str());
  Result<KnowledgeBase> loaded = LoadKb(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_entities(), kb.num_entities());
  EXPECT_EQ(loaded->num_triples(), kb.num_triples());
}

TEST(KbIoTest, SaveRequiresFrozen) {
  KnowledgeBase kb{Ontology{}};
  std::ostringstream out;
  EXPECT_EQ(SaveKb(kb, &out).code(), StatusCode::kFailedPrecondition);
}

TEST(KbIoTest, LoadRejectsMalformedInput) {
  auto load = [](const std::string& text) {
    std::istringstream in(text);
    return LoadKb(&in).status().code();
  };
  EXPECT_EQ(load("stray data\n"), StatusCode::kInvalidArgument);
  EXPECT_EQ(load("#types\nfilm\n"), StatusCode::kInvalidArgument);
  EXPECT_EQ(load("#types\nfilm\tweird\n"), StatusCode::kInvalidArgument);
  EXPECT_EQ(load("#types\nfilm\tentity\nfilm\tentity\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(load("#predicates\np\tno\tno\tmulti\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(load("#types\nfilm\tentity\n#entities\nx\tfilm\tA\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      load("#types\nfilm\tentity\n#entities\n0\tfilm\tA\n#triples\n"
           "0\tunknown\t0\n"),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      load("#types\nfilm\tentity\n#entities\n0\tfilm\tA\n0\tfilm\tB\n"),
      StatusCode::kInvalidArgument);
}

TEST(KbIoTest, LoadEmptySucceeds) {
  std::istringstream in("");
  Result<KnowledgeBase> kb = LoadKb(&in);
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(kb->num_entities(), 0);
}

TEST(KbIoTest, LoadToleratesCommentsBlanksAndCrlf) {
  std::istringstream in(
      "# a file comment\r\n"
      "#types\r\n"
      "film\tentity\r\n"
      "\r\n"
      "#entities\r\n"
      "7\tfilm\tSelma\r\n");
  Result<KnowledgeBase> kb = LoadKb(&in);
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  EXPECT_EQ(kb->num_entities(), 1);
  EXPECT_EQ(kb->MatchMentions("Selma").size(), 1u);
}

TEST(KbIoTest, StrictLoadStillFailsFast) {
  std::istringstream in("stray data\nmore stray data\n");
  Result<KnowledgeBase> kb = LoadKb(&in);
  EXPECT_EQ(kb.status().code(), StatusCode::kInvalidArgument);
  // The first malformed line ends the load, and the error names it.
  EXPECT_NE(kb.status().message().find("line 1:"), std::string::npos)
      << kb.status().ToString();
}

TEST(KbIoTest, FileHelpersReportMissingPath) {
  EXPECT_EQ(LoadKbFromFile("/nonexistent/kb").status().code(),
            StatusCode::kNotFound);
  KnowledgeBase kb = MakeSmallKb();
  EXPECT_EQ(SaveKbToFile(kb, "/nonexistent/dir/kb").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace ceres

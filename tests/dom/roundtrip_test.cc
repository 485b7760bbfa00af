// Property test: SerializeHtml(doc) parsed back yields a structurally
// identical document. The synthetic corpus generator depends on this
// invariant to keep its ground-truth XPaths valid after parsing.

#include <gtest/gtest.h>

#include "dom/html_parser.h"
#include "dom/html_serializer.h"
#include "dom/xpath.h"
#include "synth/site_generator.h"
#include "synth/world.h"
#include "util/random.h"

namespace ceres {
namespace {

// Recursively compares two trees by shape (node ids may differ when the
// source document was not built in preorder).
void ExpectSubtreeEqual(const DomDocument& a, NodeId ia, const DomDocument& b,
                        NodeId ib) {
  const DomNode& na = a.node(ia);
  const DomNode& nb = b.node(ib);
  EXPECT_EQ(na.tag, nb.tag);
  EXPECT_EQ(na.text, nb.text);
  EXPECT_EQ(na.sibling_index, nb.sibling_index);
  const auto attrs_a = a.attributes(ia);
  const auto attrs_b = b.attributes(ib);
  ASSERT_EQ(attrs_a.size(), attrs_b.size());
  for (size_t k = 0; k < attrs_a.size(); ++k) {
    EXPECT_EQ(attrs_a[k].name, attrs_b[k].name);
    EXPECT_EQ(attrs_a[k].value, attrs_b[k].value);
  }
  ASSERT_EQ(na.child_count, nb.child_count);
  const std::vector<NodeId> kids_a(a.children(ia).begin(),
                                   a.children(ia).end());
  const std::vector<NodeId> kids_b(b.children(ib).begin(),
                                   b.children(ib).end());
  ASSERT_EQ(kids_a.size(), kids_b.size());
  for (size_t k = 0; k < kids_a.size(); ++k) {
    ExpectSubtreeEqual(a, kids_a[k], b, kids_b[k]);
  }
}

void ExpectStructurallyEqual(const DomDocument& a, const DomDocument& b) {
  ASSERT_EQ(a.size(), b.size());
  ExpectSubtreeEqual(a, a.root(), b, b.root());
}

// Builds a random document via the arena API.
DomDocument RandomDocument(Rng* rng) {
  DomDocument doc;
  NodeId body = doc.AddChild(doc.root(), "body");
  std::vector<NodeId> open{body};
  static const std::vector<std::string> kTags{"div", "span", "ul",
                                              "li",  "p",    "h3"};
  static const std::vector<std::string> kTexts{
      "Spike Lee", "Tom & Jerry", "a < b", "quote \" here", "é è ü ø",
      "1989",      "",            "  spaced out  "};
  int nodes = static_cast<int>(rng->Uniform(5, 60));
  for (int i = 0; i < nodes; ++i) {
    NodeId parent = open[rng->Index(open.size())];
    std::string tag = rng->Pick(kTags);
    // Direct li-in-li / p-in-p nesting is not serializable: the parser
    // auto-closes it (and real generators never emit it).
    if (tag == doc.node(parent).tag && (tag == "li" || tag == "p")) {
      tag = "div";
    }
    NodeId id = doc.AddChild(parent, tag);
    if (rng->Bernoulli(0.5)) {
      // Whitespace normalizes at parse time, so pre-normalize here: the
      // round-trip guarantee applies to already-normalized text.
      std::string text = rng->Pick(kTexts);
      Result<DomDocument> tmp =
          ParseHtml("<body><i>" + EscapeHtml(text) + "</i></body>");
      doc.SetText(id, tmp->node(tmp->size() - 1).text);
    }
    if (rng->Bernoulli(0.4)) {
      std::string value = "c";
      value += std::to_string(rng->Uniform(0, 5));
      doc.AddAttribute(id, "class", value);
    }
    if (rng->Bernoulli(0.6)) open.push_back(id);
  }
  return doc;
}

TEST(RoundTripTest, RandomDocumentsSurviveRoundTrip) {
  Rng rng(123);
  for (int trial = 0; trial < 60; ++trial) {
    DomDocument original = RandomDocument(&rng);
    std::string html = SerializeHtml(original);
    Result<DomDocument> reparsed = ParseHtml(html);
    ASSERT_TRUE(reparsed.ok()) << html;
    ExpectStructurallyEqual(original, *reparsed);
  }
}

TEST(RoundTripTest, EscapingSurvives) {
  DomDocument doc;
  NodeId body = doc.AddChild(doc.root(), "body");
  NodeId div = doc.AddChild(body, "div");
  doc.SetText(div, "a < b & \"c\" > d");
  doc.AddAttribute(div, "title", "x<y&\"z\"");
  Result<DomDocument> reparsed = ParseHtml(SerializeHtml(doc));
  ASSERT_TRUE(reparsed.ok());
  ExpectStructurallyEqual(doc, *reparsed);
}

TEST(RoundTripTest, GeneratedSitePagesRoundTrip) {
  synth::MovieWorldConfig config;
  config.scale = 0.1;
  synth::World world = synth::BuildMovieWorld(config);
  synth::SiteSpec spec;
  spec.name = "roundtrip.example";
  spec.seed = 5;
  spec.tmpl.topic_type = "film";
  spec.tmpl.num_recommendations = 3;
  spec.tmpl.sections = {
      {synth::pred::kFilmDirectedBy, "director", synth::SectionLayout::kRow,
       0.1, 3},
      {synth::pred::kFilmHasCastMember, "cast",
       synth::SectionLayout::kTable, 0.1, 10},
      {synth::pred::kFilmHasGenre, "genre", synth::SectionLayout::kList, 0.1,
       5},
  };
  Result<TypeId> film = world.kb.ontology().TypeByName("film");
  const auto& films = world.OfType(*film);
  spec.topics.assign(films.begin(), films.begin() + 20);
  std::vector<synth::GeneratedPage> pages = GenerateSite(world, spec);
  ASSERT_EQ(pages.size(), 20u);
  for (const synth::GeneratedPage& page : pages) {
    Result<DomDocument> parsed = ParseHtml(page.html);
    ASSERT_TRUE(parsed.ok());
    // Every ground-truth XPath must resolve to a node with the recorded
    // object text.
    for (const synth::GroundTruthFact& fact : page.facts) {
      Result<XPath> path = XPath::Parse(fact.xpath);
      ASSERT_TRUE(path.ok()) << fact.xpath;
      NodeId node = path->Resolve(*parsed);
      ASSERT_NE(node, kInvalidNode) << fact.xpath;
      if (fact.predicate != kNamePredicate) {
        EXPECT_EQ(parsed->node(node).text, fact.object_text);
      }
    }
  }
}

}  // namespace
}  // namespace ceres

#include "dom/dom_utils.h"

#include <gtest/gtest.h>

#include <vector>

#include "dom/html_parser.h"

namespace ceres {
namespace {

class DomUtilsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<DomDocument> parsed = ParseHtml(
        "<body>"
        "  <div id=\"a\"><span id=\"a1\">1</span><span id=\"a2\">2</span>"
        "</div>"
        "  <div id=\"b\"><ul><li id=\"l1\">x</li><li id=\"l2\">y</li>"
        "<li id=\"l3\">z</li></ul></div>"
        "</body>");
    ASSERT_TRUE(parsed.ok());
    doc_ = std::move(parsed).value();
  }

  NodeId ById(const std::string& id) const {
    for (NodeId n = 0; n < doc_.size(); ++n) {
      if (doc_.Attribute(n, "id") == id) return n;
    }
    return kInvalidNode;
  }

  std::vector<NodeId> Window(NodeId id, int width) const {
    std::vector<NodeId> window;
    ForEachSiblingInWindow(doc_, id, width,
                           [&](NodeId sibling) { window.push_back(sibling); });
    return window;
  }

  DomDocument doc_;
};

TEST_F(DomUtilsTest, SiblingWindowRespectsWidth) {
  const NodeId l1 = ById("l1");
  const NodeId l2 = ById("l2");
  const NodeId l3 = ById("l3");
  using Ids = std::vector<NodeId>;
  EXPECT_EQ(Window(l2, 5), (Ids{l1, l3}));
  EXPECT_EQ(Window(l2, 1), (Ids{l1, l3}));
  // Edge siblings: one side is empty, the other is cut at `width` and
  // comes out left to right.
  EXPECT_EQ(Window(l1, 1), (Ids{l2}));
  EXPECT_EQ(Window(l3, 1), (Ids{l2}));
  EXPECT_EQ(Window(l3, 5), (Ids{l1, l2}));
  EXPECT_TRUE(Window(doc_.root(), 3).empty());
}

TEST_F(DomUtilsTest, HighestExclusiveAncestor) {
  NodeId l1 = ById("l1");
  NodeId l2 = ById("l2");
  // With l2 as a competing mention, the highest node containing l1 but not
  // l2 is l1 itself (they share the ul).
  EXPECT_EQ(HighestExclusiveAncestor(doc_, l1, {l1, l2}), l1);
  // With a competing mention in the other div, l1 can climb to div#b.
  NodeId a1 = ById("a1");
  EXPECT_EQ(HighestExclusiveAncestor(doc_, l1, {l1, a1}), ById("b"));
  // With no competitors it climbs to the root.
  EXPECT_EQ(HighestExclusiveAncestor(doc_, l1, {l1}), doc_.root());
}

TEST_F(DomUtilsTest, CountInSubtree) {
  NodeId b = ById("b");
  std::vector<NodeId> candidates{ById("l1"), ById("l3"), ById("a1")};
  EXPECT_EQ(CountInSubtree(doc_, b, candidates), 2);
  EXPECT_EQ(CountInSubtree(doc_, doc_.root(), candidates), 3);
  EXPECT_EQ(CountInSubtree(doc_, ById("a1"), candidates), 1);
}

TEST_F(DomUtilsTest, IsAncestorOrSelf) {
  EXPECT_TRUE(doc_.IsAncestorOrSelf(doc_.root(), ById("l1")));
  EXPECT_TRUE(doc_.IsAncestorOrSelf(ById("l1"), ById("l1")));
  EXPECT_FALSE(doc_.IsAncestorOrSelf(ById("l1"), ById("b")));
}

TEST_F(DomUtilsTest, DepthFromRoot) {
  EXPECT_EQ(doc_.Depth(doc_.root()), 0);
  EXPECT_EQ(doc_.Depth(ById("l1")), 4);  // html/body/div/ul/li.
}

}  // namespace
}  // namespace ceres

#include "baselines/vertex.h"

#include <algorithm>
#include <map>
#include <set>

#include "text/normalize.h"
#include "util/string_util.h"

namespace ceres {

namespace {

// Ancestor levels inspected for attribute anchors.
constexpr int kMaxAnchorLevel = 3;

// Tag signature of a path, used to group examples of identical shape.
std::string ShapeKey(const XPath& path) {
  std::string key;
  for (const XPathStep& step : path.steps()) {
    key += step.tag;
    key += '/';
  }
  return key;
}

// Collects (level, attribute, value) anchor candidates for one node.
std::vector<VertexRule::Anchor> AnchorsOf(const DomDocument& doc,
                                          NodeId node) {
  static constexpr const char* kAttrs[] = {"class", "id", "itemprop",
                                           "itemtype", "property"};
  std::vector<VertexRule::Anchor> anchors;
  NodeId cur = node;
  for (int level = 0; level <= kMaxAnchorLevel && cur != kInvalidNode;
       ++level) {
    for (const char* attr : kAttrs) {
      std::string_view value = doc.Attribute(cur, attr);
      if (!value.empty()) {
        anchors.push_back(
            VertexRule::Anchor{level, attr, std::string(value)});
      }
    }
    cur = doc.node(cur).parent;
  }
  return anchors;
}

// Normalized text at a context slot of `node` (see VertexRule::text_anchors
// for the slot encoding); empty when the slot does not exist.
std::string SlotText(const DomDocument& doc, NodeId node, int slot) {
  auto prev_sibling = [&](NodeId id) -> NodeId {
    return doc.node(id).prev_sibling;
  };
  NodeId target = kInvalidNode;
  switch (slot) {
    case 0:
      target = prev_sibling(node);
      break;
    case 1:
    case 2: {
      NodeId parent = doc.node(node).parent;
      if (parent == kInvalidNode) return {};
      NodeId uncle = prev_sibling(parent);
      if (uncle == kInvalidNode) return {};
      if (slot == 1) {
        target = uncle;
      } else if (doc.node(uncle).first_child != kInvalidNode) {
        target = doc.node(uncle).first_child;
      }
      break;
    }
    default:
      break;
  }
  if (target == kInvalidNode) return {};
  return NormalizeText(doc.node(target).text);
}

bool AnchorHolds(const DomDocument& doc, NodeId node,
                 const VertexRule::Anchor& anchor) {
  NodeId cur = node;
  for (int level = 0; level < anchor.level; ++level) {
    if (cur == kInvalidNode) return false;
    cur = doc.node(cur).parent;
  }
  if (cur == kInvalidNode) return false;
  return doc.Attribute(cur, anchor.attribute) == anchor.value;
}

// All nodes of `doc` matching the generalized path of `rule`.
std::vector<NodeId> MatchRulePath(const DomDocument& doc,
                                  const VertexRule& rule) {
  std::vector<NodeId> matches;
  if (rule.steps.empty()) return matches;
  const DomNode& root = doc.node(doc.root());
  if (rule.steps[0].tag != root.tag) return matches;
  if (rule.steps[0].index != -1 && rule.steps[0].index != root.sibling_index) {
    return matches;
  }
  std::vector<std::pair<NodeId, size_t>> frontier{{doc.root(), 1}};
  while (!frontier.empty()) {
    auto [node, depth] = frontier.back();
    frontier.pop_back();
    if (depth == rule.steps.size()) {
      matches.push_back(node);
      continue;
    }
    const XPathStep& step = rule.steps[depth];
    for (NodeId child : doc.children(node)) {
      const DomNode& child_node = doc.node(child);
      if (child_node.tag != step.tag) continue;
      if (step.index != -1 && child_node.sibling_index != step.index) {
        continue;
      }
      frontier.emplace_back(child, depth + 1);
    }
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

}  // namespace

Result<VertexWrapper> VertexWrapper::Learn(
    const std::vector<const DomDocument*>& pages,
    const std::vector<Annotation>& manual_annotations) {
  if (manual_annotations.empty()) {
    return Status::InvalidArgument("no manual annotations");
  }
  bool has_name = false;
  // Examples per (predicate, shape).
  std::map<std::pair<PredicateId, std::string>,
           std::vector<std::pair<PageIndex, NodeId>>>
      groups;
  for (const Annotation& annotation : manual_annotations) {
    if (annotation.page < 0 ||
        static_cast<size_t>(annotation.page) >= pages.size()) {
      return Status::InvalidArgument(
          StrCat("annotation page out of range: ", annotation.page));
    }
    if (annotation.predicate == kNamePredicate) has_name = true;
    XPath path = XPath::FromNode(*pages[static_cast<size_t>(annotation.page)],
                                 annotation.node);
    groups[{annotation.predicate, ShapeKey(path)}].emplace_back(
        annotation.page, annotation.node);
  }
  if (!has_name) {
    return Status::FailedPrecondition(
        "manual annotations must include a NAME (topic) example");
  }

  std::vector<VertexRule> rules;
  for (const auto& [key, examples] : groups) {
    VertexRule rule;
    rule.predicate = key.first;
    // Generalize indices across the group's example paths.
    std::vector<XPath> paths;
    paths.reserve(examples.size());
    for (const auto& [page, node] : examples) {
      paths.push_back(
          XPath::FromNode(*pages[static_cast<size_t>(page)], node));
    }
    rule.steps = paths[0].steps();
    for (size_t e = 1; e < paths.size(); ++e) {
      for (size_t s = 0; s < rule.steps.size(); ++s) {
        if (rule.steps[s].index != paths[e].steps()[s].index) {
          rule.steps[s].index = -1;
        }
      }
    }
    // Text anchors: context texts identical across all examples.
    for (int slot : {0, 1, 2}) {
      std::string shared;
      bool first_example = true;
      bool consistent = true;
      for (const auto& [page, node] : examples) {
        std::string text =
            SlotText(*pages[static_cast<size_t>(page)], node, slot);
        if (first_example) {
          shared = std::move(text);
          first_example = false;
        } else if (text != shared) {
          consistent = false;
          break;
        }
      }
      if (consistent && !shared.empty()) {
        rule.text_anchors.emplace_back(slot, shared);
      }
    }
    // Attribute anchors shared by all examples.
    bool first = true;
    std::set<std::tuple<int, std::string, std::string>> shared;
    for (const auto& [page, node] : examples) {
      std::set<std::tuple<int, std::string, std::string>> current;
      for (const VertexRule::Anchor& anchor :
           AnchorsOf(*pages[static_cast<size_t>(page)], node)) {
        current.emplace(anchor.level, anchor.attribute, anchor.value);
      }
      if (first) {
        shared = std::move(current);
        first = false;
      } else {
        std::set<std::tuple<int, std::string, std::string>> kept;
        std::set_intersection(shared.begin(), shared.end(), current.begin(),
                              current.end(),
                              std::inserter(kept, kept.begin()));
        shared = std::move(kept);
      }
    }
    for (const auto& [level, attribute, value] : shared) {
      rule.anchors.push_back(VertexRule::Anchor{level, attribute, value});
    }
    rules.push_back(std::move(rule));
  }
  return VertexWrapper(std::move(rules));
}

std::vector<Extraction> VertexWrapper::Extract(
    const std::vector<const DomDocument*>& pages,
    const std::vector<PageIndex>& page_indices) const {
  std::vector<Extraction> out;
  for (size_t p = 0; p < pages.size(); ++p) {
    const DomDocument& doc = *pages[p];
    const PageIndex page = page_indices[p];

    auto matches_of = [&](const VertexRule& rule) {
      std::vector<NodeId> nodes;
      for (NodeId node : MatchRulePath(doc, rule)) {
        if (!doc.node(node).HasText()) continue;
        bool ok = true;
        for (const VertexRule::Anchor& anchor : rule.anchors) {
          if (!AnchorHolds(doc, node, anchor)) {
            ok = false;
            break;
          }
        }
        for (const auto& [slot, text] : rule.text_anchors) {
          if (!ok) break;
          if (SlotText(doc, node, slot) != text) ok = false;
        }
        if (ok) nodes.push_back(node);
      }
      return nodes;
    };

    // Locate the subject via the NAME rule(s).
    std::string subject;
    NodeId subject_node = kInvalidNode;
    for (const VertexRule& rule : rules_) {
      if (rule.predicate != kNamePredicate) continue;
      std::vector<NodeId> nodes = matches_of(rule);
      if (!nodes.empty()) {
        subject_node = nodes.front();
        subject = std::string(doc.node(subject_node).text);
        break;
      }
    }
    if (subject_node == kInvalidNode) continue;
    out.push_back(Extraction{page, subject_node, kNamePredicate, subject,
                             subject, 1.0});

    std::set<std::pair<PredicateId, NodeId>> seen;
    for (const VertexRule& rule : rules_) {
      if (rule.predicate == kNamePredicate) continue;
      for (NodeId node : matches_of(rule)) {
        if (node == subject_node) continue;
        if (!seen.emplace(rule.predicate, node).second) continue;
        out.push_back(Extraction{page, node, rule.predicate, subject,
                                 std::string(doc.node(node).text), 1.0});
      }
    }
  }
  return out;
}

}  // namespace ceres

#ifndef CERES_BASELINES_VERTEX_H_
#define CERES_BASELINES_VERTEX_H_

#include <string>
#include <vector>

#include "core/features.h"
#include "core/types.h"
#include "dom/dom_tree.h"
#include "dom/xpath.h"
#include "kb/ontology.h"
#include "util/status.h"

namespace ceres {

/// A learned extraction rule for one predicate: a generalized absolute
/// XPath (index -1 = wildcard, matching any sibling index) plus structural
/// and textual anchors every match must satisfy.
struct VertexRule {
  PredicateId predicate = kInvalidPredicate;
  std::vector<XPathStep> steps;  // step.index == -1 means wildcard.
  /// Anchors: (ancestor level, attribute name, attribute value) common to
  /// all training examples, for levels 0 to 3 (the "richer feature set" of
  /// Vertex++).
  struct Anchor {
    int level;
    std::string attribute;
    std::string value;
  };
  std::vector<Anchor> anchors;
  /// Text anchors: (context slot, normalized text) shared by all training
  /// examples — the section label next to the value ("director:"), part of
  /// Vertex++'s richer feature set. Slots: 0 = previous sibling, 1 =
  /// parent's previous sibling, 2 = first child of parent's previous
  /// sibling.
  std::vector<std::pair<int, std::string>> text_anchors;
};

/// Supervised wrapper induction in the style of Vertex [17] with richer
/// features — the VERTEX++ comparator of the paper.
///
/// From a handful of manually annotated pages (the paper uses two per
/// site) it learns, per predicate, generalized XPath rules: indices that
/// vary across examples become wildcards; indices that agree stay fixed.
/// Rules carry attribute anchors so near-identical paths in other page
/// sections don't fire. Applying the wrapper to a page evaluates every rule
/// against every node.
class VertexWrapper {
 public:
  /// Learns rules from ground-truth annotations over `pages` (indices into
  /// `pages` are annotation.page). A NAME rule (kNamePredicate) must be
  /// present among the annotations so extraction can locate subjects.
  static Result<VertexWrapper> Learn(
      const std::vector<const DomDocument*>& pages,
      const std::vector<Annotation>& manual_annotations);

  /// Applies the wrapper. `page_indices` are the global ids reported in
  /// the extractions, parallel to `pages`. Confidence is always 1 (rules
  /// either fire or don't).
  std::vector<Extraction> Extract(
      const std::vector<const DomDocument*>& pages,
      const std::vector<PageIndex>& page_indices) const;

  const std::vector<VertexRule>& rules() const { return rules_; }

 private:
  explicit VertexWrapper(std::vector<VertexRule> rules)
      : rules_(std::move(rules)) {}

  std::vector<VertexRule> rules_;
};

}  // namespace ceres

#endif  // CERES_BASELINES_VERTEX_H_

#include "dom/dom_utils.h"

namespace ceres {

NodeId HighestExclusiveAncestor(const DomDocument& doc, NodeId mention,
                                const std::vector<NodeId>& others) {
  NodeId best = mention;
  NodeId cur = doc.node(mention).parent;
  while (cur != kInvalidNode) {
    for (NodeId other : others) {
      if (other != mention && doc.IsAncestorOrSelf(cur, other)) return best;
    }
    best = cur;
    cur = doc.node(cur).parent;
  }
  return best;
}

int CountInSubtree(const DomDocument& doc, NodeId root,
                   const std::vector<NodeId>& candidates) {
  int count = 0;
  for (NodeId candidate : candidates) {
    if (doc.IsAncestorOrSelf(root, candidate)) ++count;
  }
  return count;
}

}  // namespace ceres

#ifndef CERES_DOM_DOM_UTILS_H_
#define CERES_DOM_DOM_UTILS_H_

#include <vector>

#include "dom/dom_tree.h"

namespace ceres {

/// Calls `fn(sibling)` for each sibling of `id` within `width` positions on
/// either side (excluding `id` itself), left to right — the §4.2 structural
/// feature window. The featurizer visits the window for every (node, level)
/// pair of every text field, so nothing is materialized.
template <typename Fn>
void ForEachSiblingInWindow(const DomDocument& doc, NodeId id, int width,
                            Fn&& fn) {
  const DomNode& node = doc.node(id);
  if (node.parent == kInvalidNode) return;
  // Step back up to `width` siblings, then walk forward to `id` so the
  // left side comes out in ascending order.
  NodeId start = id;
  for (int i = 0; i < width; ++i) {
    const NodeId prev = doc.node(start).prev_sibling;
    if (prev == kInvalidNode) break;
    start = prev;
  }
  for (NodeId cur = start; cur != id; cur = doc.node(cur).next_sibling) {
    fn(cur);
  }
  NodeId cur = node.next_sibling;
  for (int i = 0; i < width && cur != kInvalidNode; ++i) {
    fn(cur);
    cur = doc.node(cur).next_sibling;
  }
}

/// The highest ancestor of `mention` whose subtree contains `mention` but
/// none of `others` (Algorithm 2 line 5). Returns `mention` itself when even
/// its parent's subtree contains another mention.
NodeId HighestExclusiveAncestor(const DomDocument& doc, NodeId mention,
                                const std::vector<NodeId>& others);

/// Count of nodes from `candidates` that lie in the subtree rooted at
/// `root` (inclusive).
int CountInSubtree(const DomDocument& doc, NodeId root,
                   const std::vector<NodeId>& candidates);

}  // namespace ceres

#endif  // CERES_DOM_DOM_UTILS_H_

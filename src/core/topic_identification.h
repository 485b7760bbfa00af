#ifndef CERES_CORE_TOPIC_IDENTIFICATION_H_
#define CERES_CORE_TOPIC_IDENTIFICATION_H_

#include <vector>

#include "core/types.h"
#include "dom/dom_tree.h"
#include "dom/xpath.h"
#include "kb/knowledge_base.h"

namespace ceres {

/// Parameters of Algorithm 1 (Page Topic Identification). Per §3.1.2 its
/// filters are deliberately small — the goal is to filter obvious noise and
/// let the learner absorb the rest. The paper's example values for the
/// common-string fraction (0.01%, §3.1.1) and the uniqueness filter's page
/// count (5) are fixed in topic_identification.cc; every step of §3.1.2
/// always runs.
struct TopicConfig {
  /// Absolute floor for the common-string threshold. Not in the paper: its
  /// fraction presumes an 85M-triple KB, so small KBs need a floor to avoid
  /// filtering everything (DESIGN.md "Key parameters" gives what moves
  /// without it).
  int64_t common_string_min_count = 200;
  /// Informativeness filter: pages with fewer potential relation
  /// annotations than this get no topic (§3.1.2 step 3, "e.g., >= 3").
  int min_annotations_per_page = 3;
};

/// Output of Algorithm 1 for one site.
struct TopicResult {
  /// Per page: chosen topic entity, or kInvalidEntity when the page was
  /// discarded.
  std::vector<EntityId> topic;
  /// Per page: node holding the topic name (the dominant-XPath field), or
  /// kInvalidNode.
  std::vector<NodeId> topic_node;
  /// Per page: the local Jaccard score of the chosen topic.
  std::vector<double> score;
  /// Dominant topic XPaths across the site, most frequent first (for
  /// diagnostics and tests).
  std::vector<XPath> ranked_paths;
};

/// Runs Algorithm 1 over the pages of one template cluster.
///
/// `mentions[i]` must be MatchPageMentions(pages[i], kb). Literal-typed
/// entities and common strings (§3.1.1) are never topic candidates.
TopicResult IdentifyTopics(const std::vector<const DomDocument*>& pages,
                           const std::vector<PageMentions>& mentions,
                           const KnowledgeBase& kb,
                           const TopicConfig& config = {});

}  // namespace ceres

#endif  // CERES_CORE_TOPIC_IDENTIFICATION_H_

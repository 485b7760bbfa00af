#ifndef CERES_CORE_RELATION_ANNOTATOR_H_
#define CERES_CORE_RELATION_ANNOTATOR_H_

#include <unordered_map>
#include <vector>

#include "core/topic_identification.h"
#include "core/types.h"
#include "dom/dom_tree.h"
#include "kb/knowledge_base.h"

namespace ceres {

/// Parameters of Algorithm 2 (relation annotation).
struct AnnotatorConfig {
  /// When false, runs the CERES-Topic baseline of §5.2: every mention of an
  /// object is annotated with every predicate it holds with the topic,
  /// bypassing local/global disambiguation.
  bool use_relation_filtering = true;
};

/// Result of annotating one template cluster.
struct AnnotationResult {
  /// Positive labels, including one NAME annotation per annotated page.
  std::vector<Annotation> annotations;
  /// Pages that received at least one relation annotation.
  std::vector<PageIndex> annotated_pages;
};

/// Runs Algorithm 2 over all pages with identified topics.
///
/// For every KB triple (topic, r, o) whose object is mentioned on the page,
/// chooses at most one mention to annotate: the mention whose exclusive
/// ancestor subtree holds the most objects of r (local evidence, §3.2.1),
/// with ties resolved — for frequently-duplicated predicates — by preferring
/// the mention whose XPath falls in the largest cross-page cluster of r's
/// mention paths (global evidence, §3.2.2), and dropped otherwise.
AnnotationResult AnnotateRelations(
    const std::vector<const DomDocument*>& pages,
    const std::vector<PageMentions>& mentions, const TopicResult& topics,
    const KnowledgeBase& kb, const AnnotatorConfig& config = {});

}  // namespace ceres

#endif  // CERES_CORE_RELATION_ANNOTATOR_H_

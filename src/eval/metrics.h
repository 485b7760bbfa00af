#ifndef CERES_EVAL_METRICS_H_
#define CERES_EVAL_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "core/types.h"
#include "dom/dom_tree.h"
#include "kb/knowledge_base.h"

namespace ceres::eval {

/// Node-level ground truth of one parsed page: the generator's XPath labels
/// resolved against the parsed DOM.
struct PageTruth {
  EntityId topic = kInvalidEntity;  // World id.
  std::string topic_name;
  NodeId topic_node = kInvalidNode;
  /// Facts asserted by the page: (node, predicate, object text).
  struct Fact {
    NodeId node = kInvalidNode;
    PredicateId predicate = kInvalidPredicate;
    std::string object_text;
  };
  std::vector<Fact> facts;

  bool Asserts(NodeId node, PredicateId predicate) const;
};

/// Ground truth for a whole site, parallel to the parsed page vector.
/// eval/ only consumes this structure; producing one from a labeled
/// source is the producer's job (synth::BuildSiteTruth resolves generator
/// XPath labels against parsed DOMs — the scoring layer stays independent
/// of where truth comes from, so real hand-labeled corpora can feed the
/// same metrics).
struct SiteTruth {
  std::vector<PageTruth> pages;

  /// Labels whose XPaths failed to resolve against the parsed DOM (the
  /// producer drops them but counts them here).
  int64_t unresolved = 0;
};

/// Precision/recall/F1 with raw counts.
struct Prf {
  int64_t tp = 0;
  int64_t fp = 0;
  int64_t fn = 0;
  double precision() const {
    return tp + fp == 0 ? 0.0 : static_cast<double>(tp) /
                                    static_cast<double>(tp + fp);
  }
  double recall() const {
    return tp + fn == 0 ? 0.0 : static_cast<double>(tp) /
                                    static_cast<double>(tp + fn);
  }
  double f1() const {
    double p = precision();
    double r = recall();
    return p + r == 0 ? 0.0 : 2 * p * r / (p + r);
  }
  Prf& operator+=(const Prf& other) {
    tp += other.tp;
    fp += other.fp;
    fn += other.fn;
    return *this;
  }
};

/// Options for extraction scoring.
struct ScoreOptions {
  /// Only count these predicates (empty = all predicates present in the
  /// truth or extractions). NAME is scored when kNamePredicate is listed or
  /// the filter is empty.
  std::vector<PredicateId> predicates;
  /// Restrict pages scored (empty = all). Used for the eval-half split.
  std::vector<PageIndex> pages;
  /// Extractions below this confidence are ignored.
  double confidence_threshold = 0.0;
};

/// Mention-level scoring (Tables 4, 5): every extraction is judged against
/// the node-level truth, and is correct only when its subject also names
/// the page's true topic (SubjectMatchesTruth); recall counts every
/// asserted fact.
Prf ScoreExtractions(const std::vector<Extraction>& extractions,
                     const SiteTruth& truth, const ScoreOptions& options = {});

/// Per-predicate breakdown of ScoreExtractions (kNamePredicate included).
std::map<PredicateId, Prf> ScoreExtractionsByPredicate(
    const std::vector<Extraction>& extractions, const SiteTruth& truth,
    const ScoreOptions& options = {});

/// Page-hit scoring following Hao et al. (Table 3): per page and predicate
/// the system's single highest-confidence extraction scores a hit when it
/// lands on a node asserting that predicate, with the page topic as its
/// subject.
Prf ScorePageHits(const std::vector<Extraction>& extractions,
                  const SiteTruth& truth, const ScoreOptions& options = {});

/// Annotation scoring (Table 6). Precision: fraction of annotations whose
/// node truly asserts the predicate. Recall: fraction of page-asserted
/// facts that are also in the seed KB (i.e. annotatable) which received a
/// correct annotation.
Prf ScoreAnnotations(const std::vector<Annotation>& annotations,
                     const SiteTruth& truth, const KnowledgeBase& seed_kb,
                     const std::vector<PageIndex>& pages = {});
std::map<PredicateId, Prf> ScoreAnnotationsByPredicate(
    const std::vector<Annotation>& annotations, const SiteTruth& truth,
    const KnowledgeBase& seed_kb, const std::vector<PageIndex>& pages = {});

/// True when the extraction's subject string names the page's true topic
/// (normalized comparison, tolerating a trailing "(YYYY)" disambiguation
/// year as rendered by many film sites).
bool SubjectMatchesTruth(const Extraction& extraction,
                         const PageTruth& truth);

/// Topic-identification scoring (Table 7): a prediction is correct when the
/// predicted seed-KB entity's name matches the page's true topic name.
/// Recall counts pages whose true topic name exists in the seed KB.
Prf ScoreTopics(const std::vector<EntityId>& predicted_topic,
                const SiteTruth& truth, const KnowledgeBase& seed_kb,
                const std::vector<PageIndex>& pages = {});

}  // namespace ceres::eval

#endif  // CERES_EVAL_METRICS_H_

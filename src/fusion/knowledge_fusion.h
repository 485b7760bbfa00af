#ifndef CERES_FUSION_KNOWLEDGE_FUSION_H_
#define CERES_FUSION_KNOWLEDGE_FUSION_H_

#include <string>
#include <vector>

#include "core/types.h"
#include "kb/knowledge_base.h"
#include "kb/ontology.h"

namespace ceres::fusion {

/// Extractions harvested from one website.
struct SiteExtractions {
  std::string site;
  std::vector<Extraction> extractions;
};

/// A triple after cross-site fusion.
struct FusedTriple {
  /// Normalized subject/object surface forms.
  std::string subject;
  PredicateId predicate = kInvalidPredicate;
  std::string object;
  /// Fused belief in [0, 1).
  double score = 0.0;
  /// Sites asserting the triple.
  std::vector<std::string> sites;
};

/// Configuration of the fusion pass. Extractions below confidence 0.5 are
/// ignored, and the losing objects of a functional predicate are dropped.
struct FusionConfig {
  /// Iterations of the alternating site-reliability / triple-belief
  /// estimate (2–5 suffice; 0 disables reliability weighting).
  int reliability_iterations = 3;
};

/// Per-site reliability estimate produced alongside the fused triples.
struct SiteReliability {
  std::string site;
  double reliability = 0.0;
  int64_t triples = 0;
};

/// Result of FuseExtractions.
struct FusionResult {
  std::vector<FusedTriple> triples;
  std::vector<SiteReliability> sites;
};

/// Fuses per-site extractions into a deduplicated, confidence-weighted
/// triple set — the paper's §5.5.1 future-work pointer to Knowledge
/// Vault-style knowledge fusion [10, 11], implemented as:
///
///  1. normalize (subject, predicate, object) across sites;
///  2. estimate each site's reliability by alternating between
///     triple-belief and site-accuracy updates (a simple truth-finding
///     fixpoint: a site is as reliable as its triples are believed, and a
///     triple is believed in proportion to its supporters' reliability);
///  3. score each distinct triple by a reliability-weighted noisy-or of
///     its supporting extractions;
///  4. resolve functional-predicate conflicts by keeping the
///     highest-scoring object per (subject, predicate).
///
/// Output is sorted by descending score (ties: lexicographic), so callers
/// can threshold for any precision target.
FusionResult FuseExtractions(const std::vector<SiteExtractions>& sites,
                             const Ontology& ontology,
                             const FusionConfig& config = {});

/// Materializes fused triples with score >= `min_score` into a fresh,
/// frozen KnowledgeBase over `ontology`. Entities are typed by the
/// predicate's declared subject/object types and deduplicated by
/// (type, surface form).
///
/// This closes the bootstrapping loop of the paper's footnote 2: run an
/// annotation-based wrapper on a few prominent sites, turn its output into
/// a seed KB, and distantly supervise every other site in the vertical.
KnowledgeBase BuildKbFromFusedTriples(const FusionResult& fused,
                                      const Ontology& ontology,
                                      double min_score = 0.5);

}  // namespace ceres::fusion

#endif  // CERES_FUSION_KNOWLEDGE_FUSION_H_

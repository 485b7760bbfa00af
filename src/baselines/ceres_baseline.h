#ifndef CERES_BASELINES_CERES_BASELINE_H_
#define CERES_BASELINES_CERES_BASELINE_H_

#include <vector>

#include "core/features.h"
#include "core/types.h"
#include "dom/dom_tree.h"
#include "kb/knowledge_base.h"
#include "util/status.h"

namespace ceres {

/// Configuration of the classic distant-supervision baseline (§5.2
/// baseline 2), which applies the original DS assumption: any pair of
/// co-mentioned entities holding a KB relation is annotated.
struct PairBaselineConfig {
  /// Hard cap on generated pair annotations. The quadratic blow-up of the
  /// pair formulation is real (the paper's run on the Movie vertical
  /// exhausted 32 GB); exceeding the cap aborts with kResourceExhausted so
  /// benches can report the NA outcome instead of thrashing.
  int64_t max_pair_annotations = 2'000'000;
  /// Cap on candidate entity fields considered per page at extraction time
  /// (the paper identifies candidates by string-matching against the KB).
  int max_candidate_fields_per_page = 400;
};

/// Result of the baseline run.
struct PairBaselineResult {
  std::vector<Extraction> extractions;
  int64_t num_annotations = 0;
};

/// Trains and applies the pair-based distantly supervised extractor.
///
/// Annotation: for every page and every pair of entity mentions (n1, n2)
/// whose entities hold a KB relation r, the node pair is labelled r;
/// features are the concatenation of both nodes' features, and up to three
/// random unrelated pairs per candidate field are sampled as negatives
/// (seeded, so runs repeat). Extraction scores all candidate pairs per page
/// and keeps those at confidence 0.5 or above. Both phases are quadratic in
/// page entity density — exactly the failure the Detail-Page DS assumption
/// removes.
Result<PairBaselineResult> RunPairBaseline(
    const std::vector<DomDocument>& pages, const KnowledgeBase& kb,
    const std::vector<PageIndex>& annotation_pages,
    const std::vector<PageIndex>& extraction_pages,
    const PairBaselineConfig& config = {});

}  // namespace ceres

#endif  // CERES_BASELINES_CERES_BASELINE_H_

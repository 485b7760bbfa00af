#ifndef CERES_CORE_EXTRACTOR_H_
#define CERES_CORE_EXTRACTOR_H_

#include <vector>

#include "core/features.h"
#include "core/training.h"
#include "core/types.h"
#include "dom/dom_tree.h"
#include "util/parallel.h"

namespace ceres {

/// Configuration of the extraction pass (§4.3).
struct ExtractionConfig {
  /// Minimum class probability for emitting a relation extraction. Benches
  /// that sweep thresholds set this to 0 and filter afterwards.
  double confidence_threshold = 0.5;
  /// Fan-out across pages. Workers write per-page slots that are merged in
  /// page order, so the extraction list is identical at any thread count.
  /// The batch pipeline passes Sequential() here when it is already
  /// parallel across clusters.
  ParallelConfig parallel = ParallelConfig::Sequential();
};

/// Applies a trained model to every text field of `pages` (global indices
/// given by `page_indices`, parallel to `pages`).
///
/// Per page: the field with the highest NAME probability becomes the
/// subject, and a page whose best NAME probability is below 0.5 yields
/// nothing; every other field whose argmax class is a predicate with
/// confidence above the threshold yields one (subject, predicate, object)
/// extraction. A NAME extraction for the subject itself is also emitted
/// (predicate == kNamePredicate) so name accuracy can be scored.
///
/// `model` is passed mutably because featurization interns through its
/// HashedFeatureMap; the map must already be frozen, so no state actually changes.
std::vector<Extraction> ExtractFromPages(
    const std::vector<const DomDocument*>& pages,
    const std::vector<PageIndex>& page_indices, TrainedModel* model,
    const FeatureExtractor& featurizer, const ExtractionConfig& config = {});

}  // namespace ceres

#endif  // CERES_CORE_EXTRACTOR_H_

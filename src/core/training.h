#ifndef CERES_CORE_TRAINING_H_
#define CERES_CORE_TRAINING_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "core/features.h"
#include "core/types.h"
#include "ml/logistic_regression.h"
#include "util/status.h"

namespace ceres {

/// Negative ("OTHER") examples sampled per positive example (§4.1: r = 3).
inline constexpr int kNegativesPerPositive = 3;

/// Configuration of training-set construction (§4.1) and model fitting
/// (§4.2). The classifier's own settings (C = 1, 100 iterations) are fixed
/// in ml/logistic_regression.h.
struct TrainingConfig {
  /// When true (paper behaviour), nodes that differ from a page's positive
  /// examples only at list indices are never sampled as negatives — they
  /// are probably unlabelled members of the same value list. Disable for
  /// the ablation bench.
  bool exclude_list_negatives = true;
  /// Cap on annotated pages used for learning; 0 = use all. Drives the
  /// Figure 5 sweep.
  size_t max_annotated_pages = 0;
  /// Minimum annotated pages required to train at all; below this the
  /// trainer refuses (a single annotated page cannot support a per-site
  /// extractor, cf. the zero-extraction sites of Table 8).
  size_t min_annotated_pages = 2;
};

/// A trained per-template extractor model: the classifier plus the frozen
/// feature dictionary, the class layout, and the site-level featurizer
/// state (feature flags + frequent-string lexicon) it was fitted with —
/// everything needed to re-apply the model to freshly crawled pages.
struct TrainedModel {
  LogisticRegression model;
  HashedFeatureMap features;
  ClassMap classes;
  FeatureConfig feature_config;
  std::unordered_set<std::string> frequent_strings;
  /// Solver statistics of the fit that produced `model`. Not persisted: a
  /// model loaded from disk carries the default (zero) statistics.
  LbfgsResult fit;
};

/// Rebuilds the featurizer a persisted model was trained with.
FeatureExtractor MakeFeaturizer(const TrainedModel& model);

/// The labelled examples an extractor is fitted on, with the feature
/// dictionary (not yet frozen) and class layout they were built with.
struct TrainingSet {
  std::vector<LabeledExample> examples;
  HashedFeatureMap features;
  ClassMap classes;
};

/// Builds labelled examples from `annotations` (§4.1).
///
/// Positive examples are the annotated nodes (class = predicate, or NAME
/// for topic nodes); negatives are r random unlabelled text fields per
/// positive, excluding likely members of annotated value lists. Fails with
/// kFailedPrecondition when there are no annotations or too few annotated
/// pages.
Result<TrainingSet> BuildTrainingSet(
    const std::vector<const DomDocument*>& pages,
    const std::vector<Annotation>& annotations,
    const FeatureExtractor& featurizer, const Ontology& ontology,
    const TrainingConfig& config = {});

/// Builds the training set (BuildTrainingSet) and fits the multinomial
/// logistic-regression extractor on it (§4.2).
Result<TrainedModel> TrainExtractor(
    const std::vector<const DomDocument*>& pages,
    const std::vector<Annotation>& annotations,
    const FeatureExtractor& featurizer, const Ontology& ontology,
    const TrainingConfig& config = {});

}  // namespace ceres

#endif  // CERES_CORE_TRAINING_H_

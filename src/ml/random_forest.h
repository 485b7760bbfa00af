#ifndef CERES_ML_RANDOM_FOREST_H_
#define CERES_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <vector>

#include "ml/logistic_regression.h"  // LabeledExample.
#include "ml/sparse_vector.h"
#include "util/status.h"

namespace ceres {

/// The random-forest classifier — one of the alternative node classifiers
/// the paper reports experimenting with before settling on multinomial
/// logistic regression (§4.2).
///
/// A bagged ensemble of 20 binary-split decision trees, at most 12 levels
/// deep, over sparse feature vectors. Splits test feature *presence*
/// (value != 0), which matches the one-hot structural/text features of the
/// DOM extractor. Each tree fits a full-size bootstrap sample and tries
/// ceil(sqrt(num_features)) candidate features per split. Prediction
/// averages the per-tree leaf class distributions.
class RandomForest {
 public:
  RandomForest() = default;

  /// Fits the forest. Deterministic: the bootstrap and candidate draws
  /// use a fixed seed.
  Status Train(const std::vector<LabeledExample>& examples,
               int32_t num_features, int32_t num_classes);

  /// Averaged leaf distributions; requires a trained forest.
  std::vector<double> PredictProbabilities(const SparseVector& features) const;

  /// Argmax class with its probability.
  std::pair<int32_t, double> Predict(const SparseVector& features) const;

  bool trained() const { return trained_; }
  int32_t num_classes() const { return num_classes_; }

  /// Number of nodes across all trees (for introspection tests).
  int64_t TotalNodes() const;

 private:
  struct Node {
    /// Split feature; -1 marks a leaf.
    int32_t feature = -1;
    /// Children when internal (feature absent -> left, present -> right).
    int32_t left = -1;
    int32_t right = -1;
    /// Class distribution when leaf.
    std::vector<double> distribution;
  };
  struct Tree {
    std::vector<Node> nodes;
  };

  int32_t num_classes_ = 0;
  std::vector<Tree> trees_;
  bool trained_ = false;
};

}  // namespace ceres

#endif  // CERES_ML_RANDOM_FOREST_H_

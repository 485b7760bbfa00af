#ifndef CERES_ML_LOGISTIC_REGRESSION_H_
#define CERES_ML_LOGISTIC_REGRESSION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ml/lbfgs.h"
#include "ml/sparse_vector.h"
#include "util/status.h"

namespace ceres {

/// L-BFGS iteration cap of every classifier fit (§4.2): scikit-learn's
/// `max_iter` default of 100, which the paper's
/// LogisticRegression(solver='lbfgs') fits ran under. Fixed, like the
/// paper's C = 1.
inline constexpr int kLogRegMaxIterations = 100;

/// One labelled training example: a finalized sparse feature vector and a
/// class label in [0, num_classes).
struct LabeledExample {
  SparseVector features;
  int32_t label = 0;
};

/// Multinomial (softmax) logistic regression trained with L-BFGS.
///
/// Pr(Y = k | x) = exp(b_k + w_k . x) / sum_i exp(b_i + w_i . x),
/// which is the paper's Section 4.2 model in the symmetric softmax
/// parameterization. Classes are dense ints; the caller maps predicates /
/// NAME / OTHER onto them.
class LogisticRegression {
 public:
  LogisticRegression() = default;

  /// Fits the model on `examples`. num_features bounds the feature indices,
  /// num_classes the labels. Only the classes the labels contain are fitted
  /// (scikit-learn's `classes_`); an absent class gets zero weights and a
  /// -inf intercept, so its probability is exactly 0. A single observed
  /// class needs no solve (iterations == 0). Examples with the same label
  /// and features are fitted as one row counted once per copy. Feature
  /// indices at or above num_features are ignored. The objective is the
  /// paper's: the data term plus the L2 penalty ||W||^2 / (2 C) with C = 1,
  /// the per-class intercepts unregularized as in scikit-learn, minimized
  /// for at most kLogRegMaxIterations iterations. Returns solver
  /// statistics or kInvalidArgument for malformed inputs (no examples,
  /// label out of range, a negative feature index).
  ///
  /// The rows are planned once per fit (freed on return) so that the
  /// objective computes a prefix shared by two rows' logits once, and the
  /// gradient of features that occur in the same rows with the same values
  /// once. It is compiled once per fitted class count from 2 to 12, plus
  /// once for a count known only at run time, so its per-class loops
  /// unroll. Every value receives its additions in the order of a plain
  /// per-row walk, whichever version runs, so the fit is the same to the
  /// last bit (LogisticRegressionTest.FitBytesUnchangedAcrossKernels and
  /// FitBytesUnchangedOnEdgeCases).
  Result<LbfgsResult> Train(const std::vector<LabeledExample>& examples,
                            int32_t num_features, int32_t num_classes);

  /// Class probabilities for one example; requires a trained model.
  std::vector<double> PredictProbabilities(const SparseVector& features) const;
  /// The same probabilities, written into `out` (num_classes() values).
  void PredictProbabilities(const SparseVector& features,
                            std::span<double> out) const;

  /// Argmax class with its probability.
  std::pair<int32_t, double> Predict(const SparseVector& features) const;

  bool trained() const { return trained_; }
  int32_t num_classes() const { return num_classes_; }
  int32_t num_features() const { return num_features_; }

  /// Weight of feature `feature` for class `cls` (for introspection tests).
  double WeightAt(int32_t cls, int32_t feature) const;
  double BiasAt(int32_t cls) const;

  /// Raw parameter vector, class-major with stride num_features() + 1 and
  /// the intercept stored last in each class block. For persistence.
  const std::vector<double>& weights() const { return weights_; }

  /// Reconstructs a trained model from stored parameters (same layout as
  /// weights()). Fails on a size mismatch.
  static Result<LogisticRegression> FromWeights(int32_t num_features,
                                                int32_t num_classes,
                                                std::vector<double> weights);

 private:
  int32_t num_features_ = 0;
  int32_t num_classes_ = 0;
  /// Layout: class-major; weights_[k * (num_features_ + 1) + f], with the
  /// intercept stored at f == num_features_ (-inf for an unfitted class).
  std::vector<double> weights_;
  bool trained_ = false;
};

}  // namespace ceres

#endif  // CERES_ML_LOGISTIC_REGRESSION_H_

#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace ceres {

namespace {

// Computes the softmax of `logits` in place, numerically stabilized.
void SoftmaxInPlace(std::vector<double>* logits) {
  double max_logit = *std::max_element(logits->begin(), logits->end());
  double sum = 0;
  for (double& v : *logits) {
    v = std::exp(v - max_logit);
    sum += v;
  }
  for (double& v : *logits) v /= sum;
}

}  // namespace

Result<LbfgsResult> LogisticRegression::Train(
    const std::vector<LabeledExample>& examples, int32_t num_features,
    int32_t num_classes, const LogRegConfig& config) {
  if (examples.empty()) {
    return Status::InvalidArgument("no training examples");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument(
        StrCat("need at least 2 classes, got ", num_classes));
  }
  // A NaN C would make every objective value NaN, so no line-search step
  // is ever accepted; a zero or negative one has no meaning as 1 / lambda.
  if (!std::isfinite(config.l2_c) || config.l2_c <= 0) {
    return Status::InvalidArgument(
        StrCat("l2_c must be finite and positive, got ", config.l2_c));
  }
  if (config.max_iterations < 1) {
    return Status::InvalidArgument(StrCat(
        "max_iterations must be at least 1, got ", config.max_iterations));
  }
  for (const LabeledExample& example : examples) {
    if (example.label < 0 || example.label >= num_classes) {
      return Status::InvalidArgument(
          StrCat("label out of range: ", example.label));
    }
    if (!example.features.finalized()) {
      return Status::InvalidArgument("example features not finalized");
    }
  }

  // Like scikit-learn's classes_ = unique(y), only the classes the labels
  // contain are fitted. An absent class's intercept is unregularized and
  // has no finite optimum (the loss keeps falling as it goes to -inf), so
  // fitting it would only run the solver to its iteration cap. It gets the
  // limit instead: zero weights and a -inf intercept, probability exactly 0.
  // The fitted classes' minimum equals the full objective's infimum.
  //
  // dense_of maps a class id onto its index among the fitted classes, in
  // ascending class id, or -1 for an absent class.
  std::vector<int32_t> dense_of(static_cast<size_t>(num_classes), -1);
  for (const LabeledExample& example : examples) {
    dense_of[static_cast<size_t>(example.label)] = 0;
  }
  int32_t num_fitted = 0;
  for (int32_t& dense : dense_of) {
    if (dense == 0) dense = num_fitted++;
  }

  num_features_ = num_features;
  num_classes_ = num_classes;
  const int32_t stride = num_features_ + 1;  // +1 intercept.
  std::vector<double> params(static_cast<size_t>(num_fitted) * stride, 0.0);
  const double lambda = 1.0 / config.l2_c;

  LbfgsObjective objective = [&](const std::vector<double>& w,
                                 std::vector<double>* grad) {
    std::fill(grad->begin(), grad->end(), 0.0);
    double loss = 0;
    std::vector<double> logits(static_cast<size_t>(num_fitted));
    for (const LabeledExample& example : examples) {
      const int32_t label = dense_of[static_cast<size_t>(example.label)];
      for (int32_t k = 0; k < num_fitted; ++k) {
        const double* wk = w.data() + static_cast<size_t>(k) * stride;
        logits[static_cast<size_t>(k)] =
            example.features.Dot(wk, num_features_) + wk[num_features_];
      }
      SoftmaxInPlace(&logits);
      const double p_true =
          std::max(logits[static_cast<size_t>(label)], 1e-300);
      loss -= example.weight * std::log(p_true);
      for (int32_t k = 0; k < num_fitted; ++k) {
        double err = logits[static_cast<size_t>(k)] - (k == label ? 1.0 : 0.0);
        err *= example.weight;
        double* gk = grad->data() + static_cast<size_t>(k) * stride;
        example.features.AxpyInto(err, gk, num_features_);
        gk[num_features_] += err;
      }
    }
    // L2 penalty: lambda/2 * ||W||^2 over the weights, not the intercepts.
    for (int32_t k = 0; k < num_fitted; ++k) {
      const double* wk = w.data() + static_cast<size_t>(k) * stride;
      double* gk = grad->data() + static_cast<size_t>(k) * stride;
      for (int32_t f = 0; f < num_features_; ++f) {
        loss += 0.5 * lambda * wk[f] * wk[f];
        gk[f] += lambda * wk[f];
      }
    }
    return loss;
  };

  // A single observed class has nothing to solve: its probability is 1 at
  // the all-zero point, which is the objective's minimum (0).
  LbfgsResult solver_result;
  solver_result.converged = true;
  if (num_fitted > 1) {
    solver_result = MinimizeLbfgs(objective, &params, config.max_iterations);
  }

  weights_.assign(static_cast<size_t>(num_classes_) * stride, 0.0);
  for (int32_t k = 0; k < num_classes_; ++k) {
    double* row = weights_.data() + static_cast<size_t>(k) * stride;
    const int32_t dense = dense_of[static_cast<size_t>(k)];
    if (dense < 0) {
      row[num_features_] = -std::numeric_limits<double>::infinity();
      continue;
    }
    std::copy_n(params.data() + static_cast<size_t>(dense) * stride, stride,
                row);
  }
  trained_ = true;
  return solver_result;
}

std::vector<double> LogisticRegression::PredictProbabilities(
    const SparseVector& features) const {
  CERES_CHECK(trained_);
  const int32_t stride = num_features_ + 1;
  std::vector<double> logits(static_cast<size_t>(num_classes_));
  for (int32_t k = 0; k < num_classes_; ++k) {
    const double* wk = weights_.data() + static_cast<size_t>(k) * stride;
    logits[static_cast<size_t>(k)] =
        features.Dot(wk, num_features_) + wk[num_features_];
  }
  SoftmaxInPlace(&logits);
  return logits;
}

std::pair<int32_t, double> LogisticRegression::Predict(
    const SparseVector& features) const {
  std::vector<double> probs = PredictProbabilities(features);
  auto it = std::max_element(probs.begin(), probs.end());
  return {static_cast<int32_t>(it - probs.begin()), *it};
}

double LogisticRegression::WeightAt(int32_t cls, int32_t feature) const {
  CERES_CHECK(trained_);
  CERES_CHECK(cls >= 0 && cls < num_classes_);
  CERES_CHECK(feature >= 0 && feature < num_features_);
  return weights_[static_cast<size_t>(cls) * (num_features_ + 1) + feature];
}

Result<LogisticRegression> LogisticRegression::FromWeights(
    int32_t num_features, int32_t num_classes, std::vector<double> weights) {
  if (num_features < 0 || num_classes < 2) {
    return Status::InvalidArgument("bad model dimensions");
  }
  const size_t expected = static_cast<size_t>(num_classes) *
                          (static_cast<size_t>(num_features) + 1);
  if (weights.size() != expected) {
    return Status::InvalidArgument(
        StrCat("weight vector has ", weights.size(), " values; expected ",
               expected));
  }
  LogisticRegression model;
  model.num_features_ = num_features;
  model.num_classes_ = num_classes;
  model.weights_ = std::move(weights);
  model.trained_ = true;
  return model;
}

double LogisticRegression::BiasAt(int32_t cls) const {
  CERES_CHECK(trained_);
  CERES_CHECK(cls >= 0 && cls < num_classes_);
  return weights_[static_cast<size_t>(cls) * (num_features_ + 1) +
                  num_features_];
}

}  // namespace ceres

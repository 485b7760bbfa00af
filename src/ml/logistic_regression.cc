#include "ml/logistic_regression.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

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

/// A distinct training row: the first example with its label and features,
/// weighted by the summed weights of every example equal to it.
struct WeightedRow {
  const LabeledExample* example;
  double weight;
};

bool SameRow(const LabeledExample& a, const LabeledExample& b) {
  const auto& ea = a.features.entries();
  const auto& eb = b.features.entries();
  return a.label == b.label &&
         std::equal(ea.begin(), ea.end(), eb.begin(), eb.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             std::bit_cast<uint64_t>(x.second) ==
                                 std::bit_cast<uint64_t>(y.second);
                    });
}

uint64_t HashRow(const LabeledExample& example) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a, one word at a time.
  const auto mix = [&hash](uint64_t word) {
    hash ^= word;
    hash *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(example.label));
  for (const auto& [index, value] : example.features.entries()) {
    mix(static_cast<uint64_t>(index));
    mix(std::bit_cast<uint64_t>(value));
  }
  return hash;
}

/// Merges examples with the same label and features (bit for bit) into
/// one row whose weight is the sum of theirs, in first-occurrence order.
/// Such rows add identical terms to the loss and gradient, so the
/// objective is unchanged in exact arithmetic; only the float rounding of
/// the sums differs.
std::vector<WeightedRow> CollapseDuplicateRows(
    const std::vector<LabeledExample>& examples) {
  std::vector<WeightedRow> rows;
  rows.reserve(examples.size());
  // Open addressing over row indices; -1 marks an empty slot.
  size_t slots = 1;
  while (slots < 2 * examples.size()) slots *= 2;
  std::vector<int32_t> table(slots, -1);
  for (const LabeledExample& example : examples) {
    size_t slot = HashRow(example) & (slots - 1);
    while (table[slot] >= 0 &&
           !SameRow(*rows[static_cast<size_t>(table[slot])].example,
                    example)) {
      slot = (slot + 1) & (slots - 1);
    }
    if (table[slot] >= 0) {
      rows[static_cast<size_t>(table[slot])].weight += example.weight;
    } else {
      table[slot] = static_cast<int32_t>(rows.size());
      rows.push_back({&example, example.weight});
    }
  }
  return rows;
}

/// The collapsed rows in compressed sparse row form, packed once per fit.
/// Row r's entries are [row_end[r - 1], row_end[r]) of `column` and
/// `value` (row_end[-1] = 0); entries at index >= num_features are dropped
/// here, so the objective never tests them.
struct PackedRows {
  std::vector<int32_t> column;
  std::vector<double> value;
  std::vector<size_t> row_end;
  /// The row's class among the fitted classes.
  std::vector<size_t> label;
  std::vector<double> weight;
};

PackedRows PackRows(const std::vector<WeightedRow>& rows,
                    const std::vector<int32_t>& dense_of,
                    int32_t num_features) {
  PackedRows packed;
  size_t entries = 0;
  for (const WeightedRow& row : rows) {
    entries += row.example->features.size();
  }
  packed.column.reserve(entries);
  packed.value.reserve(entries);
  packed.row_end.reserve(rows.size());
  packed.label.reserve(rows.size());
  packed.weight.reserve(rows.size());
  for (const WeightedRow& row : rows) {
    for (const auto& [index, value] : row.example->features.entries()) {
      if (index >= num_features) continue;
      packed.column.push_back(index);
      packed.value.push_back(value);
    }
    packed.row_end.push_back(packed.column.size());
    packed.label.push_back(static_cast<size_t>(
        dense_of[static_cast<size_t>(row.example->label)]));
    packed.weight.push_back(row.weight);
  }
  return packed;
}

/// The data term of the objective: the weighted softmax loss of every row,
/// with its gradient added into grad_by_feature (feature-major, row f
/// holds the K fitted classes' values of feature f) and bias_grad.
/// kClasses is the fitted class count K, or 0 when it is known only at
/// run time (num_classes). With K fixed at compile time every per-class
/// loop unrolls and the logits and errors stay in registers. Each element
/// receives its additions in the same order for every K, so all
/// instantiations give the same bits.
template <size_t kClasses>
double RowsLoss(const PackedRows& rows, size_t num_classes,
                const double* __restrict w_by_feature,
                const double* __restrict bias,
                double* __restrict grad_by_feature,
                double* __restrict bias_grad, double* __restrict scratch) {
  const size_t k_count = kClasses > 0 ? kClasses : num_classes;
  std::array<double, kClasses> fixed_logits{};
  std::array<double, kClasses> fixed_err{};
  double* logits = scratch;
  double* err = scratch + k_count;
  if constexpr (kClasses > 0) {
    logits = fixed_logits.data();
    err = fixed_err.data();
  }
  const int32_t* column = rows.column.data();
  const double* value = rows.value.data();
  double loss = 0;
  size_t begin = 0;
  for (size_t r = 0; r < rows.row_end.size(); ++r) {
    const size_t end = rows.row_end[r];
    for (size_t k = 0; k < k_count; ++k) logits[k] = 0.0;
    for (size_t e = begin; e < end; ++e) {
      const double* wf =
          w_by_feature + static_cast<size_t>(column[e]) * k_count;
      const double v = value[e];
      for (size_t k = 0; k < k_count; ++k) logits[k] += wf[k] * v;
    }
    for (size_t k = 0; k < k_count; ++k) logits[k] += bias[k];
    // Softmax, numerically stabilized (max as std::max_element finds it).
    double max_logit = logits[0];
    for (size_t k = 1; k < k_count; ++k) {
      if (max_logit < logits[k]) max_logit = logits[k];
    }
    double sum = 0;
    for (size_t k = 0; k < k_count; ++k) {
      logits[k] = std::exp(logits[k] - max_logit);
      sum += logits[k];
    }
    for (size_t k = 0; k < k_count; ++k) logits[k] /= sum;
    const size_t label = rows.label[r];
    const double weight = rows.weight[r];
    const double p_true = std::max(logits[label], 1e-300);
    loss -= weight * std::log(p_true);
    for (size_t k = 0; k < k_count; ++k) {
      err[k] = (logits[k] - (k == label ? 1.0 : 0.0)) * weight;
    }
    for (size_t e = begin; e < end; ++e) {
      double* gf = grad_by_feature + static_cast<size_t>(column[e]) * k_count;
      const double v = value[e];
      for (size_t k = 0; k < k_count; ++k) gf[k] += err[k] * v;
    }
    for (size_t k = 0; k < k_count; ++k) bias_grad[k] += err[k];
    begin = end;
  }
  return loss;
}

/// Fitted class counts with their own RowsLoss instantiation (2 to 12
/// covers every fit of the SWDE and IMDb corpora); larger counts run
/// RowsLoss<0>.
constexpr size_t kMaxSpecializedClasses = 12;

using RowsLossFn = double (*)(const PackedRows&, size_t, const double*,
                              const double*, double*, double*, double*);

RowsLossFn RowsLossFor(size_t num_classes) {
  static constexpr auto kTable = []<size_t... k>(std::index_sequence<k...>) {
    return std::array<RowsLossFn, sizeof...(k)>{
        &RowsLoss<(k < 2 ? 0 : k)>...};
  }(std::make_index_sequence<kMaxSpecializedClasses + 1>{});
  return num_classes < kTable.size() ? kTable[num_classes] : &RowsLoss<0>;
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
    // Finalized entries are sorted by index: the first is the smallest.
    if (example.features.size() > 0 &&
        example.features.entries().front().first < 0) {
      return Status::InvalidArgument(
          StrCat("negative feature index: ",
                 example.features.entries().front().first));
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
  // +1: the intercept.
  const size_t stride = static_cast<size_t>(num_features_) + 1;
  std::vector<double> params(static_cast<size_t>(num_fitted) * stride, 0.0);
  const double lambda = 1.0 / config.l2_c;

  const PackedRows rows =
      PackRows(CollapseDuplicateRows(examples), dense_of, num_features_);

  // Scratch reused by every evaluation. The objective walks each row's
  // entries once for all K fitted classes, so it reads the weights and
  // accumulates the gradient in feature-major copies (row f holds the K
  // classes' values of feature f); the solver's vectors stay class-major.
  // Every element still receives its additions in the same order as a
  // class-by-class walk, so the fit is the same to the last bit.
  const size_t k_fitted = static_cast<size_t>(num_fitted);
  const RowsLossFn rows_loss = RowsLossFor(k_fitted);
  std::vector<double> bias(k_fitted);
  std::vector<double> bias_grad(k_fitted);
  std::vector<double> scratch(2 * k_fitted);
  std::vector<double> w_by_feature(static_cast<size_t>(num_features_) *
                                   k_fitted);
  std::vector<double> grad_by_feature(w_by_feature.size());

  LbfgsObjective objective = [&](const std::vector<double>& w,
                                 std::vector<double>* grad) {
    for (size_t k = 0; k < k_fitted; ++k) {
      const double* wk = w.data() + k * stride;
      for (int32_t f = 0; f < num_features_; ++f) {
        w_by_feature[static_cast<size_t>(f) * k_fitted + k] = wk[f];
      }
      bias[k] = wk[num_features_];
    }
    std::fill(grad_by_feature.begin(), grad_by_feature.end(), 0.0);
    std::fill(bias_grad.begin(), bias_grad.end(), 0.0);
    double loss = rows_loss(rows, k_fitted, w_by_feature.data(), bias.data(),
                            grad_by_feature.data(), bias_grad.data(),
                            scratch.data());
    // Back to class-major, adding the L2 penalty lambda/2 * ||W||^2 over
    // the weights, not the intercepts.
    for (size_t k = 0; k < k_fitted; ++k) {
      const double* wk = w.data() + k * stride;
      double* gk = grad->data() + k * stride;
      for (int32_t f = 0; f < num_features_; ++f) {
        loss += 0.5 * lambda * wk[f] * wk[f];
        gk[f] = grad_by_feature[static_cast<size_t>(f) * k_fitted + k] +
                lambda * wk[f];
      }
      gk[num_features_] = bias_grad[k];
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
    const double bias = wk[num_features_];
    // An unfitted class's logit is -inf whatever its finite dot product,
    // so it skips the dot; exp still gives it exactly 0.
    logits[static_cast<size_t>(k)] =
        bias == -std::numeric_limits<double>::infinity()
            ? bias
            : features.Dot(wk, num_features_) + bias;
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

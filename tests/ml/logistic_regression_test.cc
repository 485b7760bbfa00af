#include "ml/logistic_regression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/random.h"

namespace ceres {
namespace {

LabeledExample Example(std::vector<std::pair<int32_t, double>> entries,
                       int32_t label) {
  LabeledExample example;
  for (auto& [index, value] : entries) example.features.Add(index, value);
  example.features.Finalize();
  example.label = label;
  return example;
}

// FNV-1a over the weight bytes and the solver statistics of one fit.
uint64_t FitHash(const LogisticRegression& model, const LbfgsResult& fit) {
  uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  mix(model.weights().data(), model.weights().size() * sizeof(double));
  const int32_t stats[] = {fit.converged ? 1 : 0, fit.iterations,
                           fit.evaluations};
  mix(stats, sizeof(stats));
  mix(&fit.final_objective, sizeof(double));
  return hash;
}

TEST(LogisticRegressionTest, SeparatesTwoClasses) {
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 20; ++i) {
    examples.push_back(Example({{0, 1.0}}, 0));
    examples.push_back(Example({{1, 1.0}}, 1));
  }
  LogisticRegression model;
  Result<LbfgsResult> fit = model.Train(examples, 2, 2);
  ASSERT_TRUE(fit.ok());
  SparseVector a;
  a.Add(0, 1.0);
  a.Finalize();
  auto [cls_a, conf_a] = model.Predict(a);
  EXPECT_EQ(cls_a, 0);
  EXPECT_GT(conf_a, 0.8);
  SparseVector b;
  b.Add(1, 1.0);
  b.Finalize();
  EXPECT_EQ(model.Predict(b).first, 1);
}

TEST(LogisticRegressionTest, MultinomialThreeClasses) {
  std::vector<LabeledExample> examples;
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    int cls = i % 3;
    // Each class fires its own feature plus a noisy shared one.
    std::vector<std::pair<int32_t, double>> entries{
        {cls, 1.0}, {3, rng.UniformDouble()}};
    examples.push_back(Example(entries, cls));
  }
  LogisticRegression model;
  ASSERT_TRUE(model.Train(examples, 4, 3).ok());
  for (int cls = 0; cls < 3; ++cls) {
    SparseVector v;
    v.Add(cls, 1.0);
    v.Finalize();
    EXPECT_EQ(model.Predict(v).first, cls);
  }
}

TEST(LogisticRegressionTest, ProbabilitiesSumToOne) {
  std::vector<LabeledExample> examples{Example({{0, 1.0}}, 0),
                                       Example({{1, 1.0}}, 1),
                                       Example({{2, 1.0}}, 2)};
  LogisticRegression model;
  ASSERT_TRUE(model.Train(examples, 3, 3).ok());
  SparseVector v;
  v.Add(0, 0.5);
  v.Add(2, 0.5);
  v.Finalize();
  std::vector<double> probs = model.PredictProbabilities(v);
  double sum = 0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// Four examples over two features whose labels use classes {0, 3} of 5.
std::vector<LabeledExample> TwoOfFiveExamples(int32_t first, int32_t second) {
  return {Example({{0, 1.0}}, first), Example({{0, 1.0}, {1, 0.5}}, first),
          Example({{1, 1.0}}, second), Example({{0, 0.2}, {1, 1.0}}, second)};
}

TEST(LogisticRegressionTest, FitsOnlyObservedClassesBitIdentically) {
  LogisticRegression subset;
  ASSERT_TRUE(subset.Train(TwoOfFiveExamples(0, 3), 2, 5).ok());
  LogisticRegression remapped;
  ASSERT_TRUE(remapped.Train(TwoOfFiveExamples(0, 1), 2, 2).ok());

  const int32_t rows[] = {0, 3};
  for (int32_t dense = 0; dense < 2; ++dense) {
    for (int32_t f = 0; f < 2; ++f) {
      EXPECT_EQ(subset.WeightAt(rows[dense], f), remapped.WeightAt(dense, f));
    }
    EXPECT_EQ(subset.BiasAt(rows[dense]), remapped.BiasAt(dense));
  }
  for (int32_t absent : {1, 2, 4}) {
    for (int32_t f = 0; f < 2; ++f) EXPECT_EQ(subset.WeightAt(absent, f), 0.0);
    EXPECT_EQ(subset.BiasAt(absent), -std::numeric_limits<double>::infinity());
  }

  SparseVector v;
  v.Add(0, 0.7);
  v.Add(1, 0.3);
  v.Finalize();
  const std::vector<double> probs = subset.PredictProbabilities(v);
  const std::vector<double> reference = remapped.PredictProbabilities(v);
  ASSERT_EQ(probs.size(), 5u);
  double sum = 0;
  for (double p : probs) {
    EXPECT_FALSE(std::isnan(p));
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  for (int32_t absent : {1, 2, 4}) EXPECT_EQ(probs[absent], 0.0);
  EXPECT_EQ(probs[0], reference[0]);
  EXPECT_EQ(probs[3], reference[1]);
}

// Class probabilities with a dot product for every class, unfitted ones
// included: the softmax PredictProbabilities computed before it learned to
// skip classes whose intercept is -inf.
std::vector<double> EveryClassProbabilities(const LogisticRegression& model,
                                            const SparseVector& features) {
  const int32_t stride = model.num_features() + 1;
  std::vector<double> logits;
  for (int32_t k = 0; k < model.num_classes(); ++k) {
    const double* wk = model.weights().data() + static_cast<size_t>(k) * stride;
    logits.push_back(features.Dot(wk, model.num_features()) +
                     wk[model.num_features()]);
  }
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0;
  for (double& v : logits) {
    v = std::exp(v - max_logit);
    sum += v;
  }
  for (double& v : logits) v /= sum;
  return logits;
}

TEST(LogisticRegressionTest, SkippedClassesGiveBitEqualProbabilities) {
  constexpr int32_t kFeatures = 23;
  std::vector<LogisticRegression> models;
  for (int32_t fitted = 2; fitted <= 8; ++fitted) {
    Rng rng(static_cast<uint64_t>(500 + fitted));
    std::vector<LabeledExample> examples;
    for (int32_t i = 0; i < 6 * fitted; ++i) {
      const int32_t cls = i % fitted;
      LabeledExample example;
      // Every other class id is absent, so unfitted classes interleave.
      example.label = 2 * cls;
      example.features.Add((cls * 3) % kFeatures, 1.0);
      for (int j = 0; j < 4; ++j) {
        example.features.Add(static_cast<int32_t>(rng.Uniform(0, kFeatures)),
                             rng.Gaussian(0.5, 1.0));
      }
      example.features.Finalize();
      examples.push_back(std::move(example));
    }
    LogisticRegression model;
    ASSERT_TRUE(model.Train(examples, kFeatures, 2 * fitted).ok());
    models.push_back(std::move(model));
  }
  // A loaded model may hold finite, non-zero weights under a -inf bias.
  std::vector<double> weights(3 * (kFeatures + 1), 0.25);
  weights[kFeatures] = 0.5;
  weights[2 * (kFeatures + 1) - 1] = -std::numeric_limits<double>::infinity();
  Result<LogisticRegression> loaded =
      LogisticRegression::FromWeights(kFeatures, 3, std::move(weights));
  ASSERT_TRUE(loaded.ok());
  models.push_back(std::move(loaded.value()));

  Rng rng(7);
  int unfitted = 0;
  for (const LogisticRegression& model : models) {
    for (int32_t k = 0; k < model.num_classes(); ++k) {
      if (std::isinf(model.BiasAt(k))) ++unfitted;
    }
    for (int probe = 0; probe < 50; ++probe) {
      SparseVector features;
      const int entries = static_cast<int>(rng.Uniform(0, 9));
      for (int j = 0; j < entries; ++j) {
        // Indices past num_features are ignored by both.
        features.Add(static_cast<int32_t>(rng.Uniform(0, kFeatures + 3)),
                     rng.Gaussian(0.0, 2.0));
      }
      features.Finalize();
      const std::vector<double> got = model.PredictProbabilities(features);
      const std::vector<double> want = EveryClassProbabilities(model, features);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << model.num_classes() << " classes, probe " << probe;
    }
  }
  EXPECT_GE(unfitted, 30);
}

TEST(LogisticRegressionTest, SingleObservedClassNeedsNoSolve) {
  std::vector<LabeledExample> examples{Example({{0, 1.0}}, 2),
                                       Example({{1, 1.0}}, 2)};
  LogisticRegression model;
  Result<LbfgsResult> fit = model.Train(examples, 2, 4);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit->converged);
  EXPECT_EQ(fit->iterations, 0);
  EXPECT_EQ(fit->evaluations, 0);
  SparseVector v;
  v.Add(0, 3.0);
  v.Finalize();
  const std::vector<double> probs = model.PredictProbabilities(v);
  EXPECT_EQ(probs[2], 1.0);
  EXPECT_EQ(probs[0] + probs[1] + probs[3], 0.0);
  EXPECT_EQ(model.Predict(v), std::make_pair(2, 1.0));
}

TEST(LogisticRegressionTest, AbsentClassesNoLongerRunToTheIterationCap) {
  // 40 examples labelled with classes 0..7 of 22: a majority class plus
  // seven minority ones, each example carrying 40 always-on features and 8
  // noisy class-indicative ones. Fitting all 22 classes ran this problem to
  // the 200-iteration cap without converging, still pushing the 14 absent
  // intercepts down; the observed-class fit converges well below the cap.
  constexpr int32_t kCommon = 40;
  constexpr int32_t kMinority = 7;
  Rng rng(5);
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 40; ++i) {
    LabeledExample example;
    example.label =
        rng.Bernoulli(0.7)
            ? 0
            : 1 + static_cast<int32_t>(rng.Uniform(0, kMinority - 1));
    for (int32_t f = 0; f < kCommon; ++f) example.features.Add(f, 1.0);
    for (int j = 0; j < 8; ++j) {
      const int32_t f =
          rng.Bernoulli(0.6)
              ? example.label * 10 + static_cast<int32_t>(rng.Uniform(0, 9))
              : static_cast<int32_t>(rng.Uniform(0, (kMinority + 1) * 10 - 1));
      example.features.Add(kCommon + f, 1.0);
    }
    example.features.Finalize();
    examples.push_back(std::move(example));
  }
  LogisticRegression model;
  Result<LbfgsResult> fit =
      model.Train(examples, kCommon + (kMinority + 1) * 10, 22);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit->converged);
  EXPECT_LT(fit->iterations, kLogRegMaxIterations);
  EXPECT_GT(fit->evaluations, fit->iterations);
}

TEST(LogisticRegressionTest, RegularizationShrinksWeights) {
  // C is fixed at 1, so the penalty weighs the same against one copy of
  // the data as against a hundred: it pulls the one-copy fit's weights
  // harder toward zero (a hundred copies fit like one copy at C = 100).
  std::vector<LabeledExample> once;
  for (int i = 0; i < 10; ++i) {
    once.push_back(Example({{0, 1.0}}, 0));
    once.push_back(Example({{1, 1.0}}, 1));
  }
  std::vector<LabeledExample> hundredfold;
  for (int copy = 0; copy < 100; ++copy) {
    hundredfold.insert(hundredfold.end(), once.begin(), once.end());
  }
  LogisticRegression strong;
  ASSERT_TRUE(strong.Train(once, 2, 2).ok());
  LogisticRegression weak;
  ASSERT_TRUE(weak.Train(hundredfold, 2, 2).ok());
  EXPECT_LT(std::fabs(strong.WeightAt(0, 0)),
            std::fabs(weak.WeightAt(0, 0)));
}

TEST(LogisticRegressionTest, UnseenFeatureFallsBackToPrior) {
  // With an imbalanced training set, an all-unknown-feature example should
  // get the majority class (intercepts are unregularized).
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 30; ++i) examples.push_back(Example({{0, 1.0}}, 0));
  for (int i = 0; i < 10; ++i) examples.push_back(Example({{1, 1.0}}, 1));
  LogisticRegression model;
  ASSERT_TRUE(model.Train(examples, 2, 2).ok());
  SparseVector empty;
  empty.Finalize();
  EXPECT_EQ(model.Predict(empty).first, 0);
}

TEST(LogisticRegressionTest, ErrorsOnBadInput) {
  LogisticRegression model;
  EXPECT_EQ(model.Train({}, 2, 2).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<LabeledExample> examples{Example({{0, 1.0}}, 5)};
  EXPECT_EQ(model.Train(examples, 2, 2).status().code(),
            StatusCode::kInvalidArgument);

  LabeledExample unfinalized;
  unfinalized.features.Add(0, 1.0);
  unfinalized.label = 0;
  std::vector<LabeledExample> bad;
  bad.push_back(std::move(unfinalized));
  EXPECT_EQ(model.Train(bad, 2, 2).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(model.Train({Example({{0, 1.0}}, 0)}, 2, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LogisticRegressionTest, DuplicateRowsTrainAsOneWeightedRow) {
  // Rows with the same label and features are one row, kept at its first
  // occurrence and weighted by its number of copies: where the later
  // copies stand makes no difference to the last bit, but their number
  // does.
  const LabeledExample a = Example({{0, 1.0}, {2, 0.5}}, 0);
  const LabeledExample b = Example({{1, 1.0}, {2, 0.25}}, 1);
  const auto fit = [](const std::vector<LabeledExample>& examples) {
    LogisticRegression model;
    Result<LbfgsResult> result = model.Train(examples, 3, 2);
    if (!result.ok()) {
      ADD_FAILURE() << result.status().ToString();
      return uint64_t{0};
    }
    EXPECT_GT(result->iterations, 1);
    return FitHash(model, *result);
  };
  const uint64_t three_copies = fit({a, b, a, a});
  EXPECT_EQ(fit({a, a, b, a}), three_copies);
  EXPECT_EQ(fit({a, a, a, b}), three_copies);
  EXPECT_NE(fit({a, b}), three_copies);
  EXPECT_NE(fit({a, b, a}), three_copies);
}

TEST(LogisticRegressionTest, RecoversOnNoisyLinearlySeparableData) {
  Rng rng(11);
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 400; ++i) {
    double x0 = rng.Gaussian(0, 1);
    double x1 = rng.Gaussian(0, 1);
    int label = x0 + 0.5 * x1 > 0 ? 1 : 0;
    if (rng.Bernoulli(0.05)) label = 1 - label;  // 5% label noise.
    LabeledExample example;
    example.features.Add(0, x0);
    example.features.Add(1, x1);
    example.features.Finalize();
    example.label = label;
    examples.push_back(std::move(example));
  }
  LogisticRegression model;
  ASSERT_TRUE(model.Train(examples, 2, 2).ok());
  int correct = 0;
  int total = 0;
  for (int i = 0; i < 200; ++i) {
    double x0 = rng.Gaussian(0, 1);
    double x1 = rng.Gaussian(0, 1);
    SparseVector v;
    v.Add(0, x0);
    v.Add(1, x1);
    v.Finalize();
    int truth = x0 + 0.5 * x1 > 0 ? 1 : 0;
    if (model.Predict(v).first == truth) ++correct;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(LogisticRegressionTest, RejectsNegativeFeatureIndex) {
  // The objective indexes its weights by feature, so a negative index
  // would read and write before the start of them.
  const std::vector<LabeledExample> examples{Example({{-1, 1.0}, {0, 1.0}}, 0),
                                             Example({{1, 1.0}}, 1)};
  LogisticRegression model;
  EXPECT_EQ(model.Train(examples, 2, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(model.trained());
}

TEST(LogisticRegressionTest, FitBytesUnchangedAcrossKernels) {
  // The objective is compiled once per fitted class count up to a limit and
  // once for a count known only at run time. Every one of them must give
  // the fit a plain per-row, per-class walk gives, to the last bit; these
  // hashes were recorded from that walk (x86-64, glibc's libm). Counts 2 to
  // 14 reach both kinds; 37 features leave a remainder after groups of four
  // in every solver pass; entries at index >= num_features are ignored;
  // repeated rows are collapsed; two classes of each fit are absent.
  constexpr uint64_t kExpected[] = {
      0x4abf5fde2f5e4171, 0x38b4dee613e90375, 0xa0fe80d1e938e488,
      0xfcc8c977276a5de7, 0xcdcd8b725c188225, 0x06ab0ec3bc64eda8,
      0x10317f65dd31ca6a, 0x7b900ac740a6c426, 0x210b602ced657494,
      0xdb1b03641d197f5b, 0x671c4d80f195f0a7, 0x97fa44acea699275,
      0x24b9fad7d7ac8a77};
  constexpr int32_t kFeatures = 37;
  for (int32_t fitted = 2; fitted <= 14; ++fitted) {
    Rng rng(static_cast<uint64_t>(100 + fitted));
    std::vector<LabeledExample> examples;
    for (int32_t i = 0; i < 8 * fitted; ++i) {
      const int32_t cls = i % fitted;
      LabeledExample example;
      // Class ids skip 1 and end before num_classes - 1: both are absent.
      example.label = cls == 0 ? 0 : cls + 1;
      example.features.Add((cls * 5) % kFeatures, 1.0);
      const int extra = static_cast<int>(rng.Uniform(2, 7));
      for (int j = 0; j < extra; ++j) {
        example.features.Add(
            static_cast<int32_t>(rng.Uniform(0, kFeatures + 4)),
            rng.Gaussian(0.5, 1.0));
      }
      example.features.Finalize();
      examples.push_back(example);
      if (rng.Bernoulli(0.2)) examples.push_back(std::move(example));
    }
    LogisticRegression model;
    Result<LbfgsResult> fit = model.Train(examples, kFeatures, fitted + 2);
    ASSERT_TRUE(fit.ok());
    EXPECT_GT(fit->iterations, 1);
    EXPECT_EQ(FitHash(model, *fit), kExpected[fitted - 2])
        << "fitted classes " << fitted << ": 0x" << std::hex
        << FitHash(model, *fit);
  }
}

TEST(LogisticRegressionTest, FitBytesUnchangedOnEdgeCases) {
  // The rows of one site's fit share long prefixes and many features occur
  // in exactly the same rows with the same values. These fits pin the
  // corner cases of that structure to hashes recorded from the plain
  // per-row walk (x86-64, glibc's libm):
  // - a row that is a strict prefix of another, and a row whose entries
  //   all lie past num_features (empty once they are dropped);
  // - values 2.0 and 0.5 beside 1.0;
  // - features 7 and 8 occur in the same rows with different values, and
  //   features 9 and 10 with equal ones;
  // - rows that differ only past num_features, which stay two rows;
  // - the same features under two labels.
  // The template rows are interleaved with seeded near-copies and repeats.
  constexpr uint64_t kExpected[] = {0x2dd13f8fe689c302, 0xb669968c584c7864,
                                    0x965b47ceb1be383f, 0x69ee2228d6bc10e3};
  constexpr int32_t kFeatures = 12;
  constexpr int32_t kFitted[] = {2, 3, 9, 13};
  for (size_t fit_index = 0; fit_index < std::size(kFitted); ++fit_index) {
    const int32_t fitted = kFitted[fit_index];
    const auto label = [fitted](int32_t i) { return i % fitted; };
    const std::vector<LabeledExample> fixed{
        Example({{0, 1.0}, {1, 1.0}, {2, 2.0}, {5, 0.5}}, label(0)),
        Example({{0, 1.0}, {1, 1.0}}, label(1)),
        Example({{12, 1.0}, {14, 2.0}}, label(2)),
        Example({{0, 1.0}, {1, 1.0}, {2, 2.0}, {5, 0.5}, {13, 1.0}},
                label(0)),
        Example({{3, 1.0}, {7, 1.0}, {8, 2.0}, {9, 0.5}, {10, 0.5}},
                label(3)),
        Example({{4, 1.0}, {7, 1.0}, {8, 2.0}, {9, 0.5}, {10, 0.5}, {11, 1.0}},
                label(4)),
        Example({{3, 1.0}, {4, 1.0}}, label(5)),
        Example({{3, 1.0}, {4, 1.0}}, label(6)),
        Example({{0, 1.0}, {1, 1.0}, {15, 0.5}}, label(1)),
    };
    Rng rng(static_cast<uint64_t>(700 + fitted));
    std::vector<LabeledExample> examples;
    for (int32_t i = 0; i < 6 * fitted + 12; ++i) {
      const LabeledExample& base = fixed[static_cast<size_t>(i) % fixed.size()];
      examples.push_back(base);
      if (rng.Bernoulli(0.5)) {
        // A near-copy: a prefix of the base row's entries below 7, all of
        // its others (so features 7 to 10 keep their rows), and one more
        // entry outside 7 to 10.
        LabeledExample near;
        const auto& entries = base.features.entries();
        const size_t keep = rng.Index(entries.size() + 1);
        for (size_t e = 0; e < entries.size(); ++e) {
          if (e < keep || entries[e].first >= 7) {
            near.features.Add(entries[e].first, entries[e].second);
          }
        }
        constexpr int32_t kExtra[] = {0, 1, 2, 3, 4, 5, 6, 11, 12, 13, 14, 15};
        constexpr double kValues[] = {1.0, 2.0, 0.5};
        near.features.Add(kExtra[rng.Index(std::size(kExtra))],
                          kValues[rng.Index(3)]);
        near.features.Finalize();
        near.label = label(static_cast<int32_t>(rng.Uniform(0, fitted - 1)));
        examples.push_back(std::move(near));
      }
    }
    LogisticRegression model;
    Result<LbfgsResult> fit = model.Train(examples, kFeatures, fitted);
    ASSERT_TRUE(fit.ok());
    EXPECT_GT(fit->iterations, 1);
    EXPECT_EQ(FitHash(model, *fit), kExpected[fit_index])
        << "fitted classes " << fitted << ": 0x" << std::hex
        << FitHash(model, *fit);
  }
}

}  // namespace
}  // namespace ceres

// Parameterized property sweep for the multinomial logistic regression:
// across class counts and regularization strengths, training on separable
// data must reach high accuracy and always emit valid probability
// distributions; stronger regularization never yields larger weights.
//
// The classifier's C is fixed at 1. Scaling every feature by s fits the
// same model as C = s^2 on the unscaled features (the weights scaled by
// 1 / s; intercepts are not penalized), so a sweep case's C is realized by
// scaling its features by sqrt(C).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "ml/logistic_regression.h"
#include "util/random.h"

namespace ceres {
namespace {

// gtest lists a parameter without a PrintTo as its raw bytes, and ctest
// takes that listing into the test names. Implicit padding would print as
// whatever the stack held, so the names would change from build to build;
// the padding is therefore an explicit, zeroed member.
struct SweepCase {
  SweepCase(int32_t num_classes_in, double c_in)
      : num_classes(num_classes_in), c(c_in) {}

  int32_t num_classes;
  int32_t zero_padding = 0;
  /// The effective C: features are scaled by sqrt(c).
  double c;
};
static_assert(sizeof(SweepCase) == 2 * sizeof(int32_t) + sizeof(double),
              "SweepCase must have no implicit padding");

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "K%d_C%g", info.param.num_classes,
                info.param.c);
  std::string name;
  for (const char* p = buffer; *p != '\0'; ++p) {
    name.push_back(*p == '.' ? 'p' : *p);
  }
  return name;
}

class LogRegSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  // Each class fires its own indicator feature plus shared noise features,
  // all scaled by `scale`.
  std::vector<LabeledExample> MakeData(int32_t num_classes, int per_class,
                                       double scale, Rng* rng) {
    std::vector<LabeledExample> examples;
    for (int32_t cls = 0; cls < num_classes; ++cls) {
      for (int i = 0; i < per_class; ++i) {
        LabeledExample example;
        example.features.Add(cls, scale);
        example.features.Add(num_classes, scale * rng->UniformDouble());
        example.features.Add(num_classes + 1, scale * rng->UniformDouble());
        example.features.Finalize();
        example.label = cls;
        examples.push_back(std::move(example));
      }
    }
    return examples;
  }
};

TEST_P(LogRegSweepTest, SeparableDataLearnedAccurately) {
  const SweepCase param = GetParam();
  Rng rng(42);
  std::vector<LabeledExample> examples =
      MakeData(param.num_classes, 25, std::sqrt(param.c), &rng);
  LogisticRegression model;
  ASSERT_TRUE(
      model.Train(examples, param.num_classes + 2, param.num_classes).ok());
  int correct = 0;
  for (const LabeledExample& example : examples) {
    if (model.Predict(example.features).first == example.label) ++correct;
  }
  EXPECT_GE(static_cast<double>(correct) / examples.size(), 0.95);
}

TEST_P(LogRegSweepTest, ProbabilitiesAlwaysValid) {
  const SweepCase param = GetParam();
  Rng rng(7);
  std::vector<LabeledExample> examples =
      MakeData(param.num_classes, 10, std::sqrt(param.c), &rng);
  LogisticRegression model;
  ASSERT_TRUE(
      model.Train(examples, param.num_classes + 2, param.num_classes).ok());
  for (int trial = 0; trial < 50; ++trial) {
    SparseVector v;
    int entries = static_cast<int>(rng.Uniform(0, 4));
    for (int e = 0; e < entries; ++e) {
      v.Add(static_cast<int32_t>(rng.Index(
                static_cast<size_t>(param.num_classes + 2))),
            rng.Gaussian(0, 3));
    }
    v.Finalize();
    std::vector<double> probs = model.PredictProbabilities(v);
    ASSERT_EQ(probs.size(), static_cast<size_t>(param.num_classes));
    double sum = 0;
    for (double p : probs) {
      EXPECT_TRUE(std::isfinite(p));
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LogRegSweepTest,
    ::testing::Values(SweepCase{2, 1.0}, SweepCase{2, 100.0},
                      SweepCase{4, 0.1}, SweepCase{4, 1.0},
                      SweepCase{8, 1.0}, SweepCase{8, 10.0},
                      SweepCase{16, 1.0}),
    CaseName);

TEST(LogRegRegularizationPathTest, WeightNormDecreasesWithPenalty) {
  double previous_norm = -1;
  for (double c : {0.01, 0.1, 1.0, 10.0, 100.0}) {
    const double scale = std::sqrt(c);
    std::vector<LabeledExample> examples;
    for (int i = 0; i < 40; ++i) {
      LabeledExample example;
      example.features.Add(i % 2, scale);
      example.features.Finalize();
      example.label = i % 2;
      examples.push_back(std::move(example));
    }
    LogisticRegression model;
    ASSERT_TRUE(model.Train(examples, 2, 2).ok());
    // The weights of the unscaled problem at this C are scale times the
    // fitted ones.
    double norm = 0;
    for (int32_t cls = 0; cls < 2; ++cls) {
      for (int32_t f = 0; f < 2; ++f) {
        const double weight = scale * model.WeightAt(cls, f);
        norm += weight * weight;
      }
    }
    EXPECT_GT(norm, previous_norm);  // Weaker penalty, larger weights.
    previous_norm = norm;
  }
}

}  // namespace
}  // namespace ceres

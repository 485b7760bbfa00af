#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.h"

namespace ceres {
namespace {

LabeledExample Example(std::vector<int32_t> on_features, int32_t label) {
  LabeledExample example;
  for (int32_t feature : on_features) example.features.Add(feature, 1.0);
  example.features.Finalize();
  example.label = label;
  return example;
}

TEST(RandomForestTest, LearnsSeparableData) {
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 30; ++i) {
    examples.push_back(Example({0, 5}, 0));
    examples.push_back(Example({1, 5}, 1));
    examples.push_back(Example({2, 5}, 2));
  }
  RandomForest forest;
  ASSERT_TRUE(forest.Train(examples, 6, 3).ok());
  for (int32_t cls = 0; cls < 3; ++cls) {
    SparseVector v;
    v.Add(cls, 1.0);
    v.Add(5, 1.0);
    v.Finalize();
    auto [predicted, confidence] = forest.Predict(v);
    EXPECT_EQ(predicted, cls);
    EXPECT_GT(confidence, 0.8);
  }
}

TEST(RandomForestTest, ProbabilitiesValid) {
  std::vector<LabeledExample> examples;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    int cls = i % 4;
    std::vector<int32_t> features{cls};
    if (rng.Bernoulli(0.5)) features.push_back(4 + static_cast<int32_t>(
                                                       rng.Index(3)));
    examples.push_back(Example(features, cls));
  }
  RandomForest forest;
  ASSERT_TRUE(forest.Train(examples, 8, 4).ok());
  for (int trial = 0; trial < 30; ++trial) {
    SparseVector v;
    if (rng.Bernoulli(0.7)) v.Add(static_cast<int32_t>(rng.Index(8)), 1.0);
    v.Finalize();
    std::vector<double> probs = forest.PredictProbabilities(v);
    double sum = 0;
    for (double p : probs) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RandomForestTest, DeterministicForSeed) {
  std::vector<LabeledExample> examples;
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    examples.push_back(Example({static_cast<int32_t>(rng.Index(4)),
                                4 + static_cast<int32_t>(rng.Index(4))},
                               i % 2));
  }
  RandomForest a;
  RandomForest b;
  ASSERT_TRUE(a.Train(examples, 8, 2).ok());
  ASSERT_TRUE(b.Train(examples, 8, 2).ok());
  EXPECT_EQ(a.TotalNodes(), b.TotalNodes());
  SparseVector v;
  v.Add(1, 1.0);
  v.Finalize();
  EXPECT_EQ(a.PredictProbabilities(v), b.PredictProbabilities(v));
}

// A staircase: example j carries only feature j, and labels alternate.
// Every split can peel off one example, so an unbounded tree would be a
// chain as long as the data; the depth limit of 12 cuts each of the 20
// trees to 12 splits and 13 leaves.
TEST(RandomForestTest, DepthLimitBoundsTreeSize) {
  std::vector<LabeledExample> examples;
  for (int32_t j = 0; j < 100; ++j) examples.push_back(Example({j}, j % 2));
  RandomForest forest;
  ASSERT_TRUE(forest.Train(examples, 100, 2).ok());
  EXPECT_EQ(forest.TotalNodes(), 20 * (12 + 13));
}

TEST(RandomForestTest, RejectsBadInput) {
  RandomForest forest;
  EXPECT_EQ(forest.Train({}, 2, 2).code(), StatusCode::kInvalidArgument);
  std::vector<LabeledExample> bad{Example({0}, 7)};
  EXPECT_EQ(forest.Train(bad, 2, 2).code(), StatusCode::kInvalidArgument);
  std::vector<LabeledExample> ok{Example({0}, 0), Example({1}, 1)};
  EXPECT_EQ(forest.Train(ok, 2, 1).code(), StatusCode::kInvalidArgument);
}

TEST(RandomForestTest, MajorityPriorOnUnseenFeatures) {
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 30; ++i) examples.push_back(Example({0}, 0));
  for (int i = 0; i < 10; ++i) examples.push_back(Example({1}, 1));
  RandomForest forest;
  ASSERT_TRUE(forest.Train(examples, 2, 2).ok());
  SparseVector empty;
  empty.Finalize();
  EXPECT_EQ(forest.Predict(empty).first, 0);
}

}  // namespace
}  // namespace ceres

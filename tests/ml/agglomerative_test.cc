#include "ml/agglomerative.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/random.h"

namespace ceres {
namespace {

TEST(AgglomerativeTest, TwoObviousClusters) {
  // Points on a line: {0, 1, 2} and {100, 101}.
  std::vector<double> points{0, 1, 2, 100, 101};
  auto distance = [&](size_t a, size_t b) {
    return std::fabs(points[a] - points[b]);
  };
  std::vector<int> labels = AgglomerativeCluster(points.size(), distance, 2);
  ASSERT_EQ(labels.size(), 5u);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  // Cluster 0 is the larger one.
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[3], 1);
}

TEST(AgglomerativeTest, TargetEqualsItemsIsIdentity) {
  auto distance = [](size_t, size_t) { return 1.0; };
  std::vector<int> labels = AgglomerativeCluster(4, distance, 4);
  std::set<int> unique(labels.begin(), labels.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(AgglomerativeTest, SingleClusterMergesAll) {
  std::vector<double> points{0, 5, 50, 100};
  auto distance = [&](size_t a, size_t b) {
    return std::fabs(points[a] - points[b]);
  };
  std::vector<int> labels = AgglomerativeCluster(points.size(), distance, 1);
  for (int label : labels) EXPECT_EQ(label, 0);
}

TEST(AgglomerativeTest, EmptyAndSingleton) {
  auto distance = [](size_t, size_t) { return 0.0; };
  EXPECT_TRUE(AgglomerativeCluster(0, distance, 1).empty());
  EXPECT_EQ(AgglomerativeCluster(1, distance, 1),
            (std::vector<int>{0}));
}

TEST(AgglomerativeTest, SingleLinkageChains) {
  // A chain 0-1-2-3 with unit gaps plus an outlier at 100: single linkage
  // keeps the chain together.
  std::vector<double> points{0, 1, 2, 3, 100};
  auto distance = [&](size_t a, size_t b) {
    return std::fabs(points[a] - points[b]);
  };
  std::vector<int> labels = AgglomerativeCluster(points.size(), distance, 2);
  EXPECT_EQ(labels[0], labels[3]);
  EXPECT_NE(labels[0], labels[4]);
}

TEST(AgglomerativeTest, LabelsOrderedByClusterSize) {
  // 4 items close together, 2 medium, 1 far.
  std::vector<double> points{0, 1, 2, 3, 50, 51, 200};
  auto distance = [&](size_t a, size_t b) {
    return std::fabs(points[a] - points[b]);
  };
  std::vector<int> labels = AgglomerativeCluster(points.size(), distance, 3);
  EXPECT_EQ(labels[0], 0);   // Biggest cluster gets label 0.
  EXPECT_EQ(labels[4], 1);   // Then the pair.
  EXPECT_EQ(labels[6], 2);   // Singleton last.
}

TEST(AgglomerativePropertyTest, PartitionIsValid) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = static_cast<size_t>(rng.Uniform(1, 30));
    size_t k = static_cast<size_t>(rng.Uniform(1, static_cast<int64_t>(n)));
    std::vector<double> points(n);
    for (double& p : points) p = rng.UniformDouble() * 100;
    auto distance = [&](size_t a, size_t b) {
      return std::fabs(points[a] - points[b]);
    };
    std::vector<int> labels = AgglomerativeCluster(n, distance, k);
    ASSERT_EQ(labels.size(), n);
    std::set<int> unique(labels.begin(), labels.end());
    EXPECT_EQ(unique.size(), k);
    for (int label : labels) {
      EXPECT_GE(label, 0);
      EXPECT_LT(label, static_cast<int>(k));
    }
  }
}

}  // namespace
}  // namespace ceres

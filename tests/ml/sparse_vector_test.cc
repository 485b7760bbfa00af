#include "ml/sparse_vector.h"

#include <gtest/gtest.h>

namespace ceres {
namespace {

TEST(SparseVectorTest, FinalizeSortsAndMerges) {
  SparseVector v;
  v.Add(5, 1.0);
  v.Add(2, 2.0);
  v.Add(5, 0.5);
  v.Finalize();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.entries()[0].first, 2);
  EXPECT_DOUBLE_EQ(v.entries()[0].second, 2.0);
  EXPECT_EQ(v.entries()[1].first, 5);
  EXPECT_DOUBLE_EQ(v.entries()[1].second, 1.5);
}

TEST(SparseVectorTest, EmptyVector) {
  SparseVector v;
  v.Finalize();
  EXPECT_EQ(v.size(), 0u);
  double weights[3] = {1, 2, 3};
  EXPECT_DOUBLE_EQ(v.Dot(weights, 3), 0.0);
}

TEST(SparseVectorTest, DotProduct) {
  SparseVector v;
  v.Add(0, 1.0);
  v.Add(2, 3.0);
  v.Finalize();
  double weights[4] = {2.0, 10.0, -1.0, 10.0};
  EXPECT_DOUBLE_EQ(v.Dot(weights, 4), 2.0 - 3.0);
}

TEST(SparseVectorTest, DotIgnoresOutOfRangeIndices) {
  SparseVector v;
  v.Add(-1, 1000.0);  // Before the slice.
  v.Add(1, 1.0);
  v.Add(7, 100.0);  // Beyond dim.
  v.Finalize();
  double weights[2] = {5.0, 3.0};
  EXPECT_DOUBLE_EQ(v.Dot(weights, 2), 3.0);
}

TEST(SparseVectorDeathTest, AddAfterFinalizeDies) {
  SparseVector v;
  v.Finalize();
  EXPECT_DEATH(v.Add(0, 1.0), "");
}

}  // namespace
}  // namespace ceres

#include "ml/lbfgs.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ceres {
namespace {

TEST(LbfgsTest, MinimizesQuadratic) {
  // f(x) = (x0 - 3)^2 + 2 (x1 + 1)^2.
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    (*grad)[0] = 2 * (x[0] - 3);
    (*grad)[1] = 4 * (x[1] + 1);
    return (x[0] - 3) * (x[0] - 3) + 2 * (x[1] + 1) * (x[1] + 1);
  };
  std::vector<double> x{0.0, 0.0};
  LbfgsResult result = MinimizeLbfgs(objective, &x, /*max_iterations=*/100);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(x[0], 3.0, 1e-4);
  EXPECT_NEAR(x[1], -1.0, 1e-4);
  EXPECT_NEAR(result.final_objective, 0.0, 1e-7);
}

TEST(LbfgsTest, MinimizesRosenbrock) {
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    double a = 1 - x[0];
    double b = x[1] - x[0] * x[0];
    (*grad)[0] = -2 * a - 400 * x[0] * b;
    (*grad)[1] = 200 * b;
    return a * a + 100 * b * b;
  };
  std::vector<double> x{-1.2, 1.0};
  LbfgsResult result = MinimizeLbfgs(objective, &x, /*max_iterations=*/500);
  EXPECT_NEAR(x[0], 1.0, 1e-3);
  EXPECT_NEAR(x[1], 1.0, 1e-3);
  EXPECT_LT(result.final_objective, 1e-6);
}

TEST(LbfgsTest, HighDimensionalConvexProblem) {
  const int dim = 50;
  LbfgsObjective objective = [&](const std::vector<double>& x,
                                 std::vector<double>* grad) {
    double sum = 0;
    for (int i = 0; i < dim; ++i) {
      double target = 0.1 * i;
      double scale = 1.0 + (i % 5);
      (*grad)[static_cast<size_t>(i)] = 2 * scale * (x[static_cast<size_t>(i)] - target);
      sum += scale * (x[static_cast<size_t>(i)] - target) *
             (x[static_cast<size_t>(i)] - target);
    }
    return sum;
  };
  std::vector<double> x(dim, 5.0);
  LbfgsResult result = MinimizeLbfgs(objective, &x, /*max_iterations=*/100);
  EXPECT_TRUE(result.converged);
  for (int i = 0; i < dim; ++i) {
    EXPECT_NEAR(x[static_cast<size_t>(i)], 0.1 * i, 1e-3);
  }
}

TEST(LbfgsTest, StartingAtMinimumConvergesImmediately) {
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    (*grad)[0] = 2 * x[0];
    return x[0] * x[0];
  };
  std::vector<double> x{0.0};
  LbfgsResult result = MinimizeLbfgs(objective, &x, /*max_iterations=*/100);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 1);
}

TEST(LbfgsTest, RespectsIterationCap) {
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    (*grad)[0] = 2 * (x[0] - 100);
    return (x[0] - 100) * (x[0] - 100);
  };
  std::vector<double> x{0.0};
  LbfgsResult result = MinimizeLbfgs(objective, &x, /*max_iterations=*/2);
  EXPECT_LE(result.iterations, 2);
}

TEST(LbfgsTest, NonSmoothAbsoluteValueStillDescends) {
  // |x| with subgradient; L-BFGS won't converge exactly but must descend.
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    (*grad)[0] = x[0] >= 0 ? 1.0 : -1.0;
    return std::fabs(x[0]);
  };
  std::vector<double> x{10.0};
  LbfgsResult result = MinimizeLbfgs(objective, &x, /*max_iterations=*/100);
  EXPECT_LT(result.final_objective, 10.0);
}

}  // namespace
}  // namespace ceres

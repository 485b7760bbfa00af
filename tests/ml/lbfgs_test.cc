#include "ml/lbfgs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>

#include "util/random.h"

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

// The solver as the textbook writes it, one vector operation per loop:
// the reference the fused passes of MinimizeLbfgs must match bit for bit.
// It also counts the two rare branches, so the test can show it ran them.
struct ReferenceBranches {
  int resets = 0;
  int skipped_pairs = 0;
};

double ReferenceDot(const double* a, const double* b, size_t n) {
  double s0 = 0;
  double s1 = 0;
  double s2 = 0;
  double s3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

double ReferenceInfNorm(const std::vector<double>& v) {
  double best = 0;
  for (double x : v) best = std::max(best, std::fabs(x));
  return best;
}

LbfgsResult ReferenceLbfgs(const LbfgsObjective& objective,
                           std::vector<double>* x, int max_iterations,
                           ReferenceBranches* branches) {
  constexpr size_t kHistory = 10;
  const size_t dim = x->size();
  LbfgsResult result;
  std::vector<double> grad(dim, 0.0);
  double fx = objective(*x, &grad);
  result.evaluations = 1;
  struct Pair {
    std::vector<double> s, y;
    double rho;
  };
  std::deque<Pair> history;
  std::vector<double> direction(dim);
  std::vector<double> x_next(dim);
  std::vector<double> grad_next(dim, 0.0);

  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (ReferenceInfNorm(grad) / std::max(1.0, ReferenceInfNorm(*x)) <
        1e-5) {
      result.converged = true;
      break;
    }
    direction = grad;
    std::vector<double> alpha(history.size());
    for (size_t i = history.size(); i-- > 0;) {
      alpha[i] = history[i].rho *
                 ReferenceDot(history[i].s.data(), direction.data(), dim);
      for (size_t j = 0; j < dim; ++j) {
        direction[j] -= alpha[i] * history[i].y[j];
      }
    }
    if (!history.empty()) {
      const Pair& newest = history.back();
      double sy = ReferenceDot(newest.s.data(), newest.y.data(), dim);
      double yy = ReferenceDot(newest.y.data(), newest.y.data(), dim);
      double gamma = yy > 0 ? sy / yy : 1.0;
      for (double& d : direction) d *= gamma;
    }
    for (size_t i = 0; i < history.size(); ++i) {
      double beta = history[i].rho *
                    ReferenceDot(history[i].y.data(), direction.data(), dim);
      for (size_t j = 0; j < dim; ++j) {
        direction[j] += (alpha[i] - beta) * history[i].s[j];
      }
    }
    for (double& d : direction) d = -d;

    double directional = ReferenceDot(grad.data(), direction.data(), dim);
    if (directional >= 0) {
      ++branches->resets;
      history.clear();
      for (size_t j = 0; j < dim; ++j) direction[j] = -grad[j];
      directional = -ReferenceDot(grad.data(), grad.data(), dim);
      if (directional == 0) {
        result.converged = true;
        break;
      }
    }

    double step =
        iter == 0 ? std::min(1.0, 1.0 / ReferenceInfNorm(grad)) : 1.0;
    double fx_next = fx;
    bool accepted = false;
    for (int ls = 0; ls < 40; ++ls) {
      for (size_t j = 0; j < dim; ++j) {
        x_next[j] = (*x)[j] + step * direction[j];
      }
      fx_next = objective(x_next, &grad_next);
      ++result.evaluations;
      if (fx_next <= fx + 1e-4 * step * directional) {
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;

    Pair pair{std::vector<double>(dim), std::vector<double>(dim), 0.0};
    for (size_t j = 0; j < dim; ++j) {
      pair.s[j] = x_next[j] - (*x)[j];
      pair.y[j] = grad_next[j] - grad[j];
    }
    double sy = ReferenceDot(pair.s.data(), pair.y.data(), dim);
    if (sy > 1e-12) {
      pair.rho = 1.0 / sy;
      history.push_back(std::move(pair));
      if (history.size() > kHistory) history.pop_front();
    } else {
      ++branches->skipped_pairs;
    }

    double improvement = fx - fx_next;
    *x = x_next;
    grad = grad_next;
    fx = fx_next;
    if (improvement >= 0 &&
        improvement <= 1e-9 * std::max(1.0, std::fabs(fx))) {
      result.converged = true;
      break;
    }
  }
  result.final_objective = fx;
  return result;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// A seeded smooth problem of the given dimension: a badly scaled convex
// quadratic, plus (when `ripple` > 0) a cosine ripple that makes it
// non-convex, so some steps see negative curvature.
LbfgsObjective SeededProblem(size_t dim, uint64_t seed, double ripple) {
  Rng rng(seed);
  std::vector<double> scale(dim);
  std::vector<double> center(dim);
  std::vector<double> freq(dim);
  for (size_t i = 0; i < dim; ++i) {
    scale[i] = std::pow(10.0, rng.Uniform(-3, 3)) * (0.5 + rng.UniformDouble());
    center[i] = rng.Gaussian(0, 3);
    freq[i] = 0.5 + 4 * rng.UniformDouble();
  }
  return [=](const std::vector<double>& x, std::vector<double>* grad) {
    double f = 0;
    for (size_t i = 0; i < dim; ++i) {
      const double d = x[i] - center[i];
      f += 0.5 * scale[i] * d * d + ripple * std::cos(freq[i] * x[i]);
      (*grad)[i] = scale[i] * d - ripple * freq[i] * std::sin(freq[i] * x[i]);
    }
    return f;
  };
}

// A cliff across x0 = 0.5 in dim >= 2: the gradient is -1e154 e0 left of
// it and +1e154 e1 right of it. The first step crosses the cliff, and the
// pair it leaves has y'y = 2e308, which overflows: gamma = s'y / y'y is 0,
// the next two-loop direction is exactly zero, and the solver must fall
// back to steepest descent.
LbfgsObjective CliffProblem() {
  return [](const std::vector<double>& x, std::vector<double>* grad) {
    std::fill(grad->begin(), grad->end(), 0.0);
    if (x[0] < 0.5) {
      (*grad)[0] = -1e154;
      return 1e151;
    }
    (*grad)[1] = 1e154;
    return 0.0;
  };
}

TEST(LbfgsTest, FusedPassesMatchTextbookTwoLoop) {
  ReferenceBranches branches;
  for (size_t dim = 1; dim <= 13; ++dim) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      for (double ripple : {0.0, 0.3, 3.0, -1.0}) {
        // ripple -1: the cliff, which needs a second coordinate.
        if (ripple < 0 && dim < 2) continue;
        const LbfgsObjective objective =
            ripple < 0 ? CliffProblem()
                       : SeededProblem(dim, 1000 * dim + seed, ripple);
        Rng start_rng(seed + 7);
        std::vector<double> start(dim);
        for (double& v : start) v = start_rng.Gaussian(0, 5);
        std::vector<double> x = start;
        std::vector<double> x_ref = start;
        const LbfgsResult fused = MinimizeLbfgs(objective, &x, 100);
        const LbfgsResult ref =
            ReferenceLbfgs(objective, &x_ref, 100, &branches);
        SCOPED_TRACE(testing::Message() << "dim " << dim << " seed " << seed
                                        << " ripple " << ripple);
        EXPECT_EQ(fused.converged, ref.converged);
        EXPECT_EQ(fused.iterations, ref.iterations);
        EXPECT_EQ(fused.evaluations, ref.evaluations);
        EXPECT_TRUE(SameBits(fused.final_objective, ref.final_objective));
        for (size_t i = 0; i < dim; ++i) {
          EXPECT_TRUE(SameBits(x[i], x_ref[i])) << "x[" << i << "]";
        }
      }
    }
  }
  EXPECT_GT(branches.resets, 0);
  EXPECT_GT(branches.skipped_pairs, 0);
}

}  // namespace
}  // namespace ceres

#include "ml/lbfgs.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "util/logging.h"

namespace ceres {

namespace {

// Fixed solver settings.
/// Number of curvature pairs kept for the two-loop recursion.
constexpr int kHistory = 10;
/// Convergence: stop when ||g||_inf / max(1, ||x||_inf) falls below this.
constexpr double kGradientTolerance = 1e-5;
/// Convergence: stop when the relative objective decrease falls below this.
constexpr double kObjectiveTolerance = 1e-9;
/// Armijo sufficient-decrease constant for the backtracking line search.
constexpr double kArmijoC = 1e-4;
/// Line-search shrink factor.
constexpr double kBacktrack = 0.5;
/// Maximum backtracking steps per iteration.
constexpr int kMaxLineSearch = 40;

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double InfNorm(const std::vector<double>& v) {
  double best = 0;
  for (double x : v) best = std::max(best, std::fabs(x));
  return best;
}

}  // namespace

LbfgsResult MinimizeLbfgs(const LbfgsObjective& objective,
                          std::vector<double>* x, int max_iterations) {
  const size_t dim = x->size();
  LbfgsResult result;
  std::vector<double> grad(dim, 0.0);
  double fx = objective(*x, &grad);
  result.evaluations = 1;

  // Curvature history: s_i = x_{i+1} - x_i, y_i = g_{i+1} - g_i.
  std::deque<std::vector<double>> s_hist;
  std::deque<std::vector<double>> y_hist;
  std::deque<double> rho_hist;

  std::vector<double> direction(dim);
  std::vector<double> x_next(dim);
  std::vector<double> grad_next(dim, 0.0);

  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (InfNorm(grad) / std::max(1.0, InfNorm(*x)) < kGradientTolerance) {
      result.converged = true;
      break;
    }

    // Two-loop recursion computing d = -H * g.
    direction = grad;
    std::vector<double> alpha(s_hist.size());
    for (size_t i = s_hist.size(); i-- > 0;) {
      alpha[i] = rho_hist[i] * Dot(s_hist[i], direction);
      for (size_t j = 0; j < dim; ++j) {
        direction[j] -= alpha[i] * y_hist[i][j];
      }
    }
    if (!s_hist.empty()) {
      // Initial Hessian scaling gamma = s'y / y'y.
      double sy = Dot(s_hist.back(), y_hist.back());
      double yy = Dot(y_hist.back(), y_hist.back());
      double gamma = yy > 0 ? sy / yy : 1.0;
      for (double& d : direction) d *= gamma;
    }
    for (size_t i = 0; i < s_hist.size(); ++i) {
      double beta = rho_hist[i] * Dot(y_hist[i], direction);
      for (size_t j = 0; j < dim; ++j) {
        direction[j] += (alpha[i] - beta) * s_hist[i][j];
      }
    }
    for (double& d : direction) d = -d;

    double directional = Dot(grad, direction);
    if (directional >= 0) {
      // Not a descent direction (history gone stale); reset to steepest
      // descent.
      s_hist.clear();
      y_hist.clear();
      rho_hist.clear();
      for (size_t j = 0; j < dim; ++j) direction[j] = -grad[j];
      directional = -Dot(grad, grad);
      if (directional == 0) {
        result.converged = true;
        break;
      }
    }

    // Backtracking Armijo line search.
    double step = iter == 0 ? std::min(1.0, 1.0 / InfNorm(grad)) : 1.0;
    double fx_next = fx;
    bool accepted = false;
    for (int ls = 0; ls < kMaxLineSearch; ++ls) {
      for (size_t j = 0; j < dim; ++j) {
        x_next[j] = (*x)[j] + step * direction[j];
      }
      fx_next = objective(x_next, &grad_next);
      ++result.evaluations;
      if (fx_next <= fx + kArmijoC * step * directional) {
        accepted = true;
        break;
      }
      step *= kBacktrack;
    }
    if (!accepted) break;  // Line search failed; best point so far kept.

    // Update curvature history.
    std::vector<double> s(dim);
    std::vector<double> y(dim);
    for (size_t j = 0; j < dim; ++j) {
      s[j] = x_next[j] - (*x)[j];
      y[j] = grad_next[j] - grad[j];
    }
    double sy = Dot(s, y);
    if (sy > 1e-12) {
      s_hist.push_back(std::move(s));
      y_hist.push_back(std::move(y));
      rho_hist.push_back(1.0 / sy);
      if (static_cast<int>(s_hist.size()) > kHistory) {
        s_hist.pop_front();
        y_hist.pop_front();
        rho_hist.pop_front();
      }
    }

    double improvement = fx - fx_next;
    *x = x_next;
    grad = grad_next;
    fx = fx_next;
    if (improvement >= 0 &&
        improvement <= kObjectiveTolerance * std::max(1.0, std::fabs(fx))) {
      result.converged = true;
      break;
    }
  }
  result.final_objective = fx;
  return result;
}

}  // namespace ceres

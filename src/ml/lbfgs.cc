#include "ml/lbfgs.h"

#include <algorithm>
#include <array>
#include <cmath>

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

// Four independent partial sums: a single add chain over the ~1k
// parameters of a fit waits on each add's latency; four chains overlap.
double Dot(const double* a, const double* b, size_t n) {
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

double InfNorm(const std::vector<double>& v) {
  double best = 0;
  for (double x : v) best = std::max(best, std::fabs(x));
  return best;
}

/// The last kHistory curvature pairs s_i = x_{i+1} - x_i,
/// y_i = g_{i+1} - g_i with rho_i = 1 / s_i'y_i, in two flat ring buffers.
/// One slot more than kHistory is kept so that a candidate pair can be
/// written before it is accepted without overwriting the oldest live pair.
class CurvatureHistory {
 public:
  explicit CurvatureHistory(size_t dim)
      : dim_(dim), s_(kSlots * dim), y_(kSlots * dim) {}

  int size() const { return size_; }
  void Clear() { size_ = 0; }

  /// Pair i, oldest first (0 <= i < size()).
  const double* s(int i) const { return s_.data() + Slot(i) * dim_; }
  const double* y(int i) const { return y_.data() + Slot(i) * dim_; }
  double rho(int i) const { return rho_[Slot(i)]; }

  /// The free slot a candidate pair is written into.
  double* candidate_s() { return s_.data() + Slot(size_) * dim_; }
  double* candidate_y() { return y_.data() + Slot(size_) * dim_; }

  /// Keeps the candidate pair, dropping the oldest one when full.
  void Accept(double sy) {
    rho_[Slot(size_)] = 1.0 / sy;
    if (size_ < kHistory) {
      ++size_;
    } else {
      start_ = (start_ + 1) % kSlots;
    }
  }

 private:
  static constexpr int kSlots = kHistory + 1;
  size_t Slot(int i) const {
    return static_cast<size_t>((start_ + i) % kSlots);
  }

  size_t dim_;
  std::vector<double> s_;
  std::vector<double> y_;
  std::array<double, kSlots> rho_{};
  int start_ = 0;
  int size_ = 0;
};

}  // namespace

LbfgsResult MinimizeLbfgs(const LbfgsObjective& objective,
                          std::vector<double>* x, int max_iterations) {
  const size_t dim = x->size();
  LbfgsResult result;
  std::vector<double> grad(dim, 0.0);
  double fx = objective(*x, &grad);
  result.evaluations = 1;

  CurvatureHistory history(dim);
  std::array<double, kHistory> alpha{};
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
    std::copy(grad.begin(), grad.end(), direction.begin());
    for (int i = history.size(); i-- > 0;) {
      const double* y = history.y(i);
      alpha[i] = history.rho(i) * Dot(history.s(i), direction.data(), dim);
      for (size_t j = 0; j < dim; ++j) direction[j] -= alpha[i] * y[j];
    }
    if (history.size() > 0) {
      // Initial Hessian scaling gamma = s'y / y'y.
      const int newest = history.size() - 1;
      double sy = Dot(history.s(newest), history.y(newest), dim);
      double yy = Dot(history.y(newest), history.y(newest), dim);
      double gamma = yy > 0 ? sy / yy : 1.0;
      for (double& d : direction) d *= gamma;
    }
    for (int i = 0; i < history.size(); ++i) {
      const double* s = history.s(i);
      double beta = history.rho(i) * Dot(history.y(i), direction.data(), dim);
      for (size_t j = 0; j < dim; ++j) direction[j] += (alpha[i] - beta) * s[j];
    }
    for (double& d : direction) d = -d;

    double directional = Dot(grad.data(), direction.data(), dim);
    if (directional >= 0) {
      // Not a descent direction (history gone stale); reset to steepest
      // descent.
      history.Clear();
      for (size_t j = 0; j < dim; ++j) direction[j] = -grad[j];
      directional = -Dot(grad.data(), grad.data(), dim);
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
    double* s = history.candidate_s();
    double* y = history.candidate_y();
    for (size_t j = 0; j < dim; ++j) {
      s[j] = x_next[j] - (*x)[j];
      y[j] = grad_next[j] - grad[j];
    }
    double sy = Dot(s, y, dim);
    if (sy > 1e-12) history.Accept(sy);

    double improvement = fx - fx_next;
    x->swap(x_next);
    grad.swap(grad_next);
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

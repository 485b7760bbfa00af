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

// Every sum of products below keeps four partial sums: element j goes to
// sum j % 4 (a tail of fewer than four to the first), and the sums are
// added as (s0 + s1) + (s2 + s3). A single add chain over the ~1k
// parameters of a fit waits on each add's latency; four chains overlap.
// The fused passes accumulate in exactly this order, so fusing a vector
// update with the dot product that reads it moves no bit of the result.
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

// max is exact in any order, so four lanes give the one-lane result.
double InfNorm(const double* v, size_t n) {
  std::array<double, 4> lane{};
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    for (size_t l = 0; l < 4; ++l) {
      lane[l] = std::max(lane[l], std::fabs(v[j + l]));
    }
  }
  for (; j < n; ++j) lane[0] = std::max(lane[0], std::fabs(v[j]));
  return std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
}

/// One fused pass of the two-loop recursion: d[j] = update(j, d[j]) for
/// every j, returning next'd summed as Dot sums. `update` reads only
/// element j of its vectors, and d only through its argument.
///
/// Each group of four elements is computed before any of it is stored;
/// computing, storing and multiplying one element after the other made
/// GCC vectorize the loop badly (3x slower). The __restrict qualifiers let
/// the compiler assume a store to d changes nothing else the pass reads;
/// without them the fused pass runs slower than the separate loops. GCC
/// drops them when the pass is inlined into its caller, so it stays a call
/// of its own.
template <typename Update>
[[gnu::noinline]] double UpdateThenDot(double* __restrict d,
                                       const double* __restrict next,
                                       size_t n, Update update) {
  double s0 = 0;
  double s1 = 0;
  double s2 = 0;
  double s3 = 0;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const double t0 = update(j, d[j]);
    const double t1 = update(j + 1, d[j + 1]);
    const double t2 = update(j + 2, d[j + 2]);
    const double t3 = update(j + 3, d[j + 3]);
    d[j] = t0;
    d[j + 1] = t1;
    d[j + 2] = t2;
    d[j + 3] = t3;
    s0 += next[j] * t0;
    s1 += next[j + 1] * t1;
    s2 += next[j + 2] * t2;
    s3 += next[j + 3] * t3;
  }
  for (; j < n; ++j) {
    const double t = update(j, d[j]);
    d[j] = t;
    s0 += next[j] * t;
  }
  return (s0 + s1) + (s2 + s3);
}

/// What the pass that writes a curvature pair also measures.
struct PairStats {
  double sy = 0;
  double yy = 0;
  /// ∞-norms of x_next and g_next, read by the next convergence test.
  double x_norm = 0;
  double g_norm = 0;
};

/// s = x_next - x and y = g_next - g in one pass with s'y, y'y (summed
/// as Dot sums) and the ∞-norms of x_next and g_next.
PairStats WritePair(double* __restrict s, double* __restrict y,
                    const double* __restrict x,
                    const double* __restrict x_next,
                    const double* __restrict g,
                    const double* __restrict g_next, size_t n) {
  std::array<double, 4> sy{};
  std::array<double, 4> yy{};
  std::array<double, 4> x_norm{};
  std::array<double, 4> g_norm{};
  const auto step = [&](size_t j, size_t l) {
    const double sj = x_next[j] - x[j];
    const double yj = g_next[j] - g[j];
    s[j] = sj;
    y[j] = yj;
    sy[l] += sj * yj;
    yy[l] += yj * yj;
    x_norm[l] = std::max(x_norm[l], std::fabs(x_next[j]));
    g_norm[l] = std::max(g_norm[l], std::fabs(g_next[j]));
  };
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    for (size_t l = 0; l < 4; ++l) step(j + l, l);
  }
  for (; j < n; ++j) step(j, 0);
  const auto sum = [](const std::array<double, 4>& v) {
    return (v[0] + v[1]) + (v[2] + v[3]);
  };
  const auto max = [](const std::array<double, 4>& v) {
    return std::max(std::max(v[0], v[1]), std::max(v[2], v[3]));
  };
  return {sum(sy), sum(yy), max(x_norm), max(g_norm)};
}

/// The last kHistory curvature pairs s_i = x_{i+1} - x_i,
/// y_i = g_{i+1} - g_i with s_i'y_i and y_i'y_i, in two flat ring
/// buffers. One slot more than kHistory is kept so that a candidate pair
/// can be written before it is accepted without overwriting the oldest
/// live pair.
class CurvatureHistory {
 public:
  explicit CurvatureHistory(size_t dim)
      : dim_(dim), s_(kSlots * dim), y_(kSlots * dim) {}

  int size() const { return size_; }
  void Clear() { size_ = 0; }

  /// Pair i, oldest first (0 <= i < size()).
  const double* s(int i) const { return s_.data() + Slot(i) * dim_; }
  const double* y(int i) const { return y_.data() + Slot(i) * dim_; }
  double sy(int i) const { return sy_[Slot(i)]; }
  double rho(int i) const { return 1.0 / sy(i); }
  double yy(int i) const { return yy_[Slot(i)]; }

  /// The free slot a candidate pair is written into.
  double* candidate_s() { return s_.data() + Slot(size_) * dim_; }
  double* candidate_y() { return y_.data() + Slot(size_) * dim_; }

  /// Keeps the candidate pair, dropping the oldest one when full.
  void Accept(double sy, double yy) {
    const size_t slot = Slot(size_);
    sy_[slot] = sy;
    yy_[slot] = yy;
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
  std::array<double, kSlots> sy_{};
  std::array<double, kSlots> yy_{};
  int start_ = 0;
  int size_ = 0;
};

/// Writes d = -H g by the two-loop recursion and returns g'd. The first
/// loop runs newest pair first (alpha_i = rho_i s_i'd, d -= alpha_i y_i),
/// then d *= gamma = s'y / y'y of the newest pair, then the second loop
/// oldest first (beta_i = rho_i y_i'd, d += (alpha_i - beta_i) s_i), then
/// d = -d. Each update shares its pass with the next dot product: the
/// copy of g with alpha of the newest pair, the gamma scale with the last
/// subtraction, the negation and g'd with the last addition.
double TwoLoopDirection(const CurvatureHistory& history, const double* g,
                        double* d, size_t dim) {
  const int m = history.size();
  if (m == 0) {
    return UpdateThenDot(d, g, dim, [&](size_t j, double) { return -g[j]; });
  }
  std::array<double, kHistory> alpha{};
  alpha[m - 1] = history.rho(m - 1) *
                 UpdateThenDot(d, history.s(m - 1), dim,
                               [&](size_t j, double) { return g[j]; });
  for (int i = m - 1; i > 0; --i) {
    const double* y = history.y(i);
    const double a = alpha[i];
    alpha[i - 1] = history.rho(i - 1) *
                   UpdateThenDot(d, history.s(i - 1), dim,
                                 [&](size_t j, double dj) {
                                   return dj - a * y[j];
                                 });
  }
  const double* y0 = history.y(0);
  const double a0 = alpha[0];
  const double yy = history.yy(m - 1);
  const double gamma = yy > 0 ? history.sy(m - 1) / yy : 1.0;
  double beta = history.rho(0) *
                UpdateThenDot(d, y0, dim, [&](size_t j, double dj) {
                  return (dj - a0 * y0[j]) * gamma;
                });
  for (int i = 0; i + 1 < m; ++i) {
    const double* s = history.s(i);
    const double c = alpha[i] - beta;
    beta = history.rho(i + 1) *
           UpdateThenDot(d, history.y(i + 1), dim,
                         [&](size_t j, double dj) { return dj + c * s[j]; });
  }
  const double* s = history.s(m - 1);
  const double c = alpha[m - 1] - beta;
  return UpdateThenDot(d, g, dim, [&](size_t j, double dj) {
    return -(dj + c * s[j]);
  });
}

}  // namespace

LbfgsResult MinimizeLbfgs(const LbfgsObjective& objective,
                          std::vector<double>* x, int max_iterations) {
  const size_t dim = x->size();
  LbfgsResult result;
  std::vector<double> grad(dim, 0.0);
  double fx = objective(*x, &grad);
  result.evaluations = 1;

  CurvatureHistory history(dim);
  std::vector<double> direction(dim);
  std::vector<double> x_next(dim);
  std::vector<double> grad_next(dim, 0.0);
  // ∞-norms of x and grad; after the first iteration the pass that writes
  // each curvature pair measures them.
  double x_norm = InfNorm(x->data(), dim);
  double grad_norm = InfNorm(grad.data(), dim);

  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (grad_norm / std::max(1.0, x_norm) < kGradientTolerance) {
      result.converged = true;
      break;
    }

    double directional =
        TwoLoopDirection(history, grad.data(), direction.data(), dim);
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
    double step = iter == 0 ? std::min(1.0, 1.0 / grad_norm) : 1.0;
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
    const PairStats pair =
        WritePair(history.candidate_s(), history.candidate_y(), x->data(),
                  x_next.data(), grad.data(), grad_next.data(), dim);
    if (pair.sy > 1e-12) history.Accept(pair.sy, pair.yy);
    x_norm = pair.x_norm;
    grad_norm = pair.g_norm;

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

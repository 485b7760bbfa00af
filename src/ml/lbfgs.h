#ifndef CERES_ML_LBFGS_H_
#define CERES_ML_LBFGS_H_

#include <functional>
#include <vector>

namespace ceres {

/// Configuration for the L-BFGS minimizer.
struct LbfgsConfig {
  /// Number of curvature pairs kept for the two-loop recursion.
  int history = 10;
  /// Hard cap on iterations.
  int max_iterations = 200;
  /// Convergence: stop when ||g||_inf / max(1, ||x||_inf) falls below this.
  double gradient_tolerance = 1e-5;
  /// Convergence: stop when the relative objective decrease falls below this.
  double objective_tolerance = 1e-9;
  /// Armijo sufficient-decrease constant for the backtracking line search.
  double armijo_c = 1e-4;
  /// Line-search shrink factor.
  double backtrack = 0.5;
  /// Maximum backtracking steps per iteration.
  int max_line_search = 40;
};

/// Outcome of a minimization run.
struct LbfgsResult {
  bool converged = false;
  int iterations = 0;
  /// Objective calls, counting the initial point and every line-search
  /// trial (backtracks included).
  int evaluations = 0;
  double final_objective = 0.0;
};

/// Objective callback: writes the gradient at `x` into `grad` (same length)
/// and returns the objective value.
using LbfgsObjective =
    std::function<double(const std::vector<double>& x,
                         std::vector<double>* grad)>;

/// Minimizes `objective` starting from *x using limited-memory BFGS with an
/// Armijo backtracking line search. On return *x holds the best point
/// found. This powers ml::LogisticRegression, matching the paper's choice
/// of scikit-learn's LBFGS solver (§5.2).
LbfgsResult MinimizeLbfgs(const LbfgsObjective& objective,
                          std::vector<double>* x,
                          const LbfgsConfig& config = {});

}  // namespace ceres

#endif  // CERES_ML_LBFGS_H_

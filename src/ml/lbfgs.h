#ifndef CERES_ML_LBFGS_H_
#define CERES_ML_LBFGS_H_

#include <functional>
#include <vector>

namespace ceres {

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
/// Armijo backtracking line search, for at most `max_iterations`
/// iterations. On return *x holds the best point found. This powers
/// ml::LogisticRegression, matching the paper's choice of scikit-learn's
/// LBFGS solver (§5.2). The iteration cap is the caller's
/// (kLogRegMaxIterations for the classifier); the solver's other
/// settings are fixed constants.
///
/// The vector work is fused into few passes: each update of the two-loop
/// recursion computes the dot product that reads its result in the same
/// pass, each curvature pair keeps its s'y and y'y, and one pass writes a
/// pair together with s'y, y'y and the next iteration's ∞-norms. Every dot
/// product keeps the four partial sums of the textbook loop, in the same
/// order, so the result is bit-identical to one vector operation per
/// loop (LbfgsTest.FusedPassesMatchTextbookTwoLoop).
LbfgsResult MinimizeLbfgs(const LbfgsObjective& objective,
                          std::vector<double>* x, int max_iterations);

}  // namespace ceres

#endif  // CERES_ML_LBFGS_H_

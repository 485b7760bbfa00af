#ifndef CERES_UTIL_DEADLINE_H_
#define CERES_UTIL_DEADLINE_H_

#include <chrono>
#include <string_view>

#include "util/status.h"

namespace ceres {

/// A cooperative time budget: one fixed expiry point, so copies are free
/// and never allocate. The serving tier carries one per request (admission
/// and queue shedding) and one per drain, and the dist coordinator one per
/// run. The batch pipeline has none: its inputs bound its work.
///
/// Callers poll `expired()` (cheap), or `Check(stage)` for a typed
/// kDeadlineExceeded Status. A default-constructed Deadline never expires.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  Deadline() = default;

  /// Expires `budget` from now. Non-positive budgets are already expired;
  /// a budget that would run past the clock's range never expires.
  template <typename Rep, typename Period>
  static Deadline After(std::chrono::duration<Rep, Period> budget) {
    const Clock::time_point now = Clock::now();
    // Compared in floating point: converting a huge budget to the clock's
    // nanosecond count first would overflow.
    const std::chrono::duration<double> headroom =
        Clock::time_point::max() - now;
    Deadline deadline;
    if (budget <= budget.zero()) {
      deadline.at_ = now;
    } else if (budget < headroom) {
      deadline.at_ = now + std::chrono::duration_cast<Clock::duration>(budget);
    }
    return deadline;
  }

  /// True once the budget is spent.
  bool expired() const {
    return at_ != Clock::time_point::max() && Clock::now() >= at_;
  }

  /// OK while live; kDeadlineExceeded naming `stage` once expired.
  Status Check(std::string_view stage) const;

 private:
  Clock::time_point at_ = Clock::time_point::max();
};

}  // namespace ceres

#endif  // CERES_UTIL_DEADLINE_H_

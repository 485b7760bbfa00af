// Corpus: violation-free code exercising every rule's compliant form plus
// a deliberate, suppressed sleep. The linter must report zero diagnostics
// even when this content is placed under a src/serve/ path.
// Never compiled — linted by tests/lint/ceres_lint_test.cc.

#include <chrono>
#include <thread>

#include "util/status.h"
#include "util/sync.h"

namespace ceres::serve {

struct ReplayConfig {
  int rate_limit_qps = 100;
};

Status Warm();

class Replayer {
 public:
  Status Run() {
    MutexLock lock(mu_);
    CERES_RETURN_IF_ERROR(Warm());
    (void)Warm();
    // Paced replay is a real rate limiter, not a poll loop.
    std::this_thread::sleep_for(  // ceres-lint: allow(thread-hygiene)
        std::chrono::milliseconds(1));
    return Status::Ok();
  }

 private:
  CheckedMutex mu_{"Replayer.mu"};
};

}  // namespace ceres::serve

#include "serve/serve_diagnostics.h"

namespace ceres::serve {

const char* ShedCauseName(ShedCause cause) {
  switch (cause) {
    case ShedCause::kNone:
      return "none";
    case ShedCause::kQueueFull:
      return "queue_full";
    case ShedCause::kDeadlineBeforeAdmission:
      return "deadline_before_admission";
    case ShedCause::kTimedOutInQueue:
      return "timed_out_in_queue";
    case ShedCause::kModelLoadFailed:
      return "model_load_failed";
    case ShedCause::kParseFailed:
      return "parse_failed";
    case ShedCause::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

int64_t ServiceStats::total_shed() const {
  int64_t total = 0;
  for (int cause = 1; cause < kNumShedCauses; ++cause) total += shed[cause];
  return total;
}

}  // namespace ceres::serve

#include "util/deadline.h"

#include <string>

namespace ceres {

Status Deadline::Check(std::string_view stage) const {
  if (expired()) {
    return Status::DeadlineExceeded(std::string(stage) +
                                    ": deadline exceeded");
  }
  return Status::Ok();
}

}  // namespace ceres

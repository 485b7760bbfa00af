#include "util/deadline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace ceres {
namespace {

using std::chrono::hours;
using std::chrono::milliseconds;

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline deadline;
  EXPECT_FALSE(deadline.expired());
  EXPECT_TRUE(deadline.Check("stage").ok());
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  Deadline deadline = Deadline::After(milliseconds(0));
  EXPECT_TRUE(deadline.expired());
  Status status = deadline.Check("clustering");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("clustering"), std::string::npos);
  EXPECT_TRUE(Deadline::After(milliseconds(-1)).expired());
}

TEST(DeadlineTest, GenerousBudgetIsLive) {
  Deadline deadline = Deadline::After(hours(1));
  EXPECT_FALSE(deadline.expired());
  EXPECT_TRUE(deadline.Check("stage").ok());
}

TEST(DeadlineTest, HugeBudgetNeverExpires) {
  // Such budgets overflow the clock's nanosecond count if converted
  // before they are added; they must saturate to "never" instead.
  for (Deadline deadline : {Deadline::After(milliseconds::max()),
                            Deadline::After(hours::max())}) {
    EXPECT_FALSE(deadline.expired());
    EXPECT_TRUE(deadline.Check("stage").ok());
  }
}

TEST(DeadlineTest, ShortBudgetExpiresOverTime) {
  Deadline deadline = Deadline::After(milliseconds(5));
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_TRUE(deadline.expired());
}

}  // namespace
}  // namespace ceres

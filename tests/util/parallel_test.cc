#include "util/parallel.h"

#include <gtest/gtest.h>

#include <numeric>

namespace ceres {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h = 0;
  ParallelFor(n, 4, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroItemsIsNoop) {
  bool called = false;
  ParallelFor(0, 4, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, MoreThreadsThanItems) {
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h = 0;
  ParallelFor(3, 64, [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0] + hits[1] + hits[2], 3);
}

TEST(ParallelForTest, ResultsMatchSequential) {
  const size_t n = 200;
  std::vector<double> parallel_out(n);
  std::vector<double> sequential_out(n);
  auto work = [](size_t i) {
    double x = static_cast<double>(i);
    for (int k = 0; k < 50; ++k) x = x * 1.0000001 + 0.5;
    return x;
  };
  ParallelFor(n, 8, [&](size_t i) { parallel_out[i] = work(i); });
  for (size_t i = 0; i < n; ++i) sequential_out[i] = work(i);
  EXPECT_EQ(parallel_out, sequential_out);
}

TEST(ParallelForTest, RethrowsBodyExceptionOnCallingThread) {
  try {
    ParallelFor(1000, 4, [&](size_t i) {
      if (i == 17) throw std::runtime_error("boom at 17");
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 17");
  }
}

TEST(ParallelForTest, RethrowsInSingleThreadFallback) {
  EXPECT_THROW(
      ParallelFor(5, 1, [](size_t i) {
        if (i == 3) throw std::logic_error("bad");
      }),
      std::logic_error);
}

TEST(ParallelForTest, FailureStopsWorkersFromClaimingNewIndices) {
  // Workers stop picking up indices once a failure is recorded; with the
  // failure on the very first index, a 1e6-item loop must end far short of
  // completing (each in-flight iteration may still finish).
  std::atomic<size_t> executed{0};
  const size_t n = 1000000;
  EXPECT_THROW(ParallelFor(n, 4,
                           [&](size_t i) {
                             if (i == 0) throw std::runtime_error("early");
                             ++executed;
                           }),
               std::runtime_error);
  EXPECT_LT(executed.load(), n / 2);
}

TEST(ParallelForTest, AllIndicesRunWhenNothingThrows) {
  std::atomic<int> hits{0};
  ParallelFor(64, 8, [&](size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 64);
}

TEST(ParallelConfigTest, WorkerCountNeverExceedsItems) {
  ParallelConfig config;
  config.threads = 16;
  EXPECT_EQ(config.WorkerCount(3), 3u);
  EXPECT_EQ(config.WorkerCount(16), 16u);
  EXPECT_EQ(config.WorkerCount(0), 0u);
}

TEST(ParallelConfigTest, SequentialAlwaysResolvesToOneWorker) {
  const ParallelConfig config = ParallelConfig::Sequential();
  EXPECT_EQ(config.WorkerCount(1), 1u);
  EXPECT_EQ(config.WorkerCount(1000000), 1u);
}

TEST(ParallelConfigTest, ZeroThreadsUsesHardwareConcurrency) {
  ParallelConfig config;
  const size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(config.WorkerCount(1000000), hardware);
}

TEST(ParallelConfigTest, SequentialConfigRunsInOrderOnCallingThread) {
  // The sequential fast path must run inline: same thread, ascending order.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  ParallelFor(5, ParallelConfig::Sequential(), [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelConfigTest, ConfigOverloadCoversEveryIndexExactlyOnce) {
  const size_t n = 500;
  ParallelConfig config;
  config.threads = 4;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h = 0;
  ParallelFor(n, config, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace ceres

// Micro-regression: a default PipelineConfig is built per run, and a
// default ServeRequest and its Deadline per request, so constructing one
// must not touch the heap. This binary links the counting allocator
// (util/alloc_counter.h); under sanitizers the counter is compiled out and
// the test skips itself.

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/pipeline.h"
#include "serve/extraction_service.h"
#include "util/alloc_counter.h"
#include "util/deadline.h"

namespace ceres {
namespace {

static_assert(std::is_trivially_copyable_v<Deadline>);

// Heap allocations made while default-constructing and destroying one T.
// The empty asm makes the object escape, so the compiler can neither skip
// the construction nor elide an allocation inside it.
template <typename T>
uint64_t AllocationsToBuild() {
  const uint64_t before = util::AllocationCount();
  {
    T value{};
    asm volatile("" : : "g"(&value) : "memory");
  }
  return util::AllocationCount() - before;
}

TEST(ConfigAllocTest, DefaultDeadlineAndConfigsDoNotAllocate) {
  if (util::AllocationCount() == 0) {
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build)";
  }
  EXPECT_EQ(AllocationsToBuild<Deadline>(), 0u);
  EXPECT_EQ(AllocationsToBuild<PipelineConfig>(), 0u);
  EXPECT_EQ(AllocationsToBuild<serve::ServeRequest>(), 0u);
}

}  // namespace
}  // namespace ceres

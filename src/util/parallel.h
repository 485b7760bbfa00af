#ifndef CERES_UTIL_PARALLEL_H_
#define CERES_UTIL_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace ceres {

/// How a batch loop may fan out. Carried by stage configs (pipeline,
/// feature mining, extraction) so callers decide the thread budget once and
/// every layer below honors it; call sites never hard-code thread counts.
struct ParallelConfig {
  /// Worker threads; 0 = hardware concurrency.
  int threads = 0;

  /// A config that always runs inline on the calling thread. Used by
  /// nested loops whose parent already fanned out.
  static ParallelConfig Sequential() {
    ParallelConfig config;
    config.threads = 1;
    return config;
  }

  /// Worker threads ParallelFor would use for `n` items: the resolved
  /// thread count, never more workers than items.
  size_t WorkerCount(size_t n) const {
    if (n == 0) return 0;
    const size_t workers =
        threads > 0 ? static_cast<size_t>(threads)
                    : std::max(1u, std::thread::hardware_concurrency());
    return std::min(workers, n);
  }
};

/// Runs `body(i)` for every i in [0, n) across the workers allowed by
/// `config` (see ParallelConfig::WorkerCount; a resolved count of one runs
/// inline with no threads spawned). Work is claimed dynamically via an
/// atomic counter, so uneven per-item costs (per-cluster pipeline runs)
/// balance naturally. The caller must ensure `body` is safe to run
/// concurrently for distinct indices; results should be written to
/// pre-sized per-index slots so no synchronization is needed.
///
/// If `body` throws, the first exception is captured and rethrown on the
/// calling thread after all workers have joined (an exception escaping a
/// worker thread would otherwise std::terminate the process). Remaining
/// unclaimed indices are abandoned once a failure is recorded; in-flight
/// iterations on other workers still run to completion.
inline void ParallelFor(size_t n, const ParallelConfig& config,
                        const std::function<void(size_t)>& body) {
  if (n == 0) return;
  const size_t worker_count = config.WorkerCount(n);
  if (worker_count <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_exception;
  CheckedMutex exception_mutex{"ParallelFor.exception_mutex"};
  std::vector<std::thread> workers;
  workers.reserve(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    workers.emplace_back([&]() {
      while (!failed.load(std::memory_order_relaxed)) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          body(i);
        } catch (...) {
          MutexLock lock(exception_mutex);
          if (first_exception == nullptr) {
            first_exception = std::current_exception();
          }
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (first_exception != nullptr) std::rethrow_exception(first_exception);
}

/// Raw-thread-count compatibility overload (0 = hardware concurrency).
/// Prefer the ParallelConfig overload in library code; stage configs carry
/// one so thread budgets flow from the caller.
inline void ParallelFor(size_t n, int threads,
                        const std::function<void(size_t)>& body) {
  ParallelConfig config;
  config.threads = threads;
  ParallelFor(n, config, body);
}

}  // namespace ceres

#endif  // CERES_UTIL_PARALLEL_H_

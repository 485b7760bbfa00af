#ifndef CERES_OBS_METRICS_H_
#define CERES_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"

/// Lightweight thread-safe metrics for the pipeline and the serving path.
///
/// Three instrument kinds, all lock-free on the record path:
///   - Counter:   monotonically increasing int64 (events, bytes, sheds).
///   - Gauge:     last-written int64 (cache occupancy, queue depth).
///   - Histogram: fixed-bucket distribution with p50/p95/p99 estimation
///                (latencies in microseconds, batch sizes).
///
/// Instruments live in a `MetricsRegistry` keyed by name and are handed out
/// as stable pointers — callers cache the pointer once (function-local
/// static on hot paths) and record through it without ever touching the
/// registry lock again. `MetricsRegistry::Default()` is the process-wide
/// registry every subsystem records into; tests may build private ones.
///
/// Recording is gated by a process-wide enable flag, default OFF, so
/// instrumented hot paths (e.g. `KnowledgeBase::MatchMentionsView`) cost a
/// single relaxed atomic load + branch when observability is not requested.
/// Drivers that want metrics (`ceres_httpd`, perfbench, tests) call
/// `SetEnabled(true)`.
///
/// Naming scheme (see DESIGN.md "Observability"):
///   ceres_<subsystem>_<what>[_<unit>][_total]
/// e.g. `ceres_serve_queue_wait_us`, `ceres_registry_hits_total`.

namespace ceres::obs {

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// True when metric recording has been requested for this process.
/// Hot paths guard instrumentation behind this — one relaxed load.
inline bool Enabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Turns metric recording on or off process-wide.
void SetEnabled(bool enabled);

/// Monotonically increasing counter. Thread-safe, lock-free.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<int64_t> value_{0};
};

/// Last-written value. Thread-safe, lock-free.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram over int64 samples. Bucket `i` counts samples
/// `<= bounds[i]`; one extra overflow bucket catches the rest. Recording is
/// a binary search over the (immutable) bounds plus one relaxed increment;
/// percentile estimates interpolate linearly within the containing bucket,
/// using the observed max as the upper edge of the overflow bucket.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<int64_t> bounds);

  void Record(int64_t value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  /// Estimated value at quantile `p` in [0, 1]. Returns 0 when empty.
  double Percentile(double p) const;
  int64_t Min() const;
  int64_t Max() const;

  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// Count in bucket `i` (i == bounds().size() is the overflow bucket).
  int64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  void Reset();

  const std::vector<int64_t> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_;
  std::atomic<int64_t> max_;
};

/// Default bucket bounds for microsecond latencies: 1µs .. 10s in a
/// 1-2-5 progression (22 finite buckets).
const std::vector<int64_t>& LatencyBucketsUs();

/// Default bucket bounds for small cardinalities (batch sizes, queue
/// depths): 1 .. 1024 in powers of two.
const std::vector<int64_t>& SizeBuckets();

/// Named instrument registry. Get* calls find-or-create and return a
/// pointer that stays valid (and keeps its identity across `Reset`) for
/// the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry all subsystems record into.
  static MetricsRegistry& Default();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// Find-or-create with LatencyBucketsUs(); `bounds` is used only on
  /// first creation.
  Histogram* GetHistogram(std::string_view name);
  Histogram* GetHistogram(std::string_view name, std::vector<int64_t> bounds);

  /// Current value of a counter, 0 if it was never created. For tests.
  int64_t CounterValue(std::string_view name) const;

  /// All instruments as one JSON object:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"mean":..,
  ///                          "p50":..,"p95":..,"p99":..,"max":..},...}}
  std::string ToJson() const;

  /// Prometheus text exposition format (# TYPE lines, cumulative
  /// `_bucket{le="..."}` rows plus `_sum`/`_count` for histograms).
  std::string ToPrometheusText() const;

  /// Zeroes every instrument in place; handed-out pointers stay valid.
  /// For benches that measure one cell at a time, and for tests.
  void Reset();

 private:
  mutable CheckedMutex mu_{"MetricsRegistry.mu"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      CERES_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      CERES_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      CERES_GUARDED_BY(mu_);
};

}  // namespace ceres::obs

#endif  // CERES_OBS_METRICS_H_

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
/// Every count has one owner. A component that records on a hot path owns
/// its instruments as typed members (`ExtractionService`'s stage
/// histograms, `HttpServer`'s request latency) and records into them
/// unconditionally; run-level counts travel in the run's own result
/// (`PipelineDiagnostics`, `TrainedModel::fit`, `DistDiagnostics`). A
/// `MetricsRegistry` is a local, named set of instruments that a driver
/// fills from those owners just before exporting it (`GET /metrics`,
/// `ceres_extract --trace_json`).
///
/// Naming scheme (see DESIGN.md "Observability"):
///   ceres_<subsystem>_<what>[_<unit>][_total]
/// e.g. `ceres_serve_queue_wait_us`, `ceres_registry_hits_total`.

namespace ceres::obs {

/// Monotonically increasing counter. Thread-safe, lock-free.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
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
  /// Adds every sample `other` has seen, as if both streams had been
  /// recorded here. `other` must have the same bounds.
  void Merge(const Histogram& other);

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
/// pointer that stays valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// Find-or-create with LatencyBucketsUs(); `bounds` is used only on
  /// first creation.
  Histogram* GetHistogram(std::string_view name);
  Histogram* GetHistogram(std::string_view name, std::vector<int64_t> bounds);

  /// All instruments as one JSON object:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"mean":..,
  ///                          "p50":..,"p95":..,"p99":..,"max":..},...}}
  std::string ToJson() const;

  /// Prometheus text exposition format (# TYPE lines, cumulative
  /// `_bucket{le="..."}` rows plus `_sum`/`_count` for histograms).
  std::string ToPrometheusText() const;

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

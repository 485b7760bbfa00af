#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>

#include "util/logging.h"

namespace ceres::obs {

namespace {

/// Escapes a string for embedding in a JSON double-quoted literal.
/// Metric names are code-controlled identifiers, but export must stay
/// well-formed even for odd test names.
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Moves `*slot` to `value` while `better(value, *slot)`; safe against
/// concurrent updates.
template <typename Better>
void StoreIf(std::atomic<int64_t>* slot, int64_t value, Better better) {
  int64_t seen = slot->load(std::memory_order_relaxed);
  while (better(value, seen) &&
         !slot->compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      min_(std::numeric_limits<int64_t>::max()),
      max_(std::numeric_limits<int64_t>::min()) {
  CERES_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    CERES_CHECK(bounds_[i - 1] < bounds_[i]);
  }
}

void Histogram::Record(int64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  StoreIf(&min_, value, std::less<>());
  StoreIf(&max_, value, std::greater<>());
}

double Histogram::Mean() const {
  const int64_t n = Count();
  return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
}

int64_t Histogram::Min() const {
  return Count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

int64_t Histogram::Max() const {
  return Count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
}

double Histogram::Percentile(double p) const {
  const int64_t total = Count();
  if (total <= 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(total);
  int64_t cumulative = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const int64_t in_bucket = buckets_[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < target) continue;
    // Interpolate within the containing bucket. The overflow bucket has no
    // finite upper bound; the observed max stands in for it.
    const double lower =
        b == 0 ? 0.0 : static_cast<double>(bounds_[b - 1]);
    const double upper = b < bounds_.size()
                             ? static_cast<double>(bounds_[b])
                             : static_cast<double>(Max());
    const double fraction = std::clamp(
        (target - before) / static_cast<double>(in_bucket), 0.0, 1.0);
    return lower + (std::max(upper, lower) - lower) * fraction;
  }
  return static_cast<double>(Max());
}

void Histogram::Merge(const Histogram& other) {
  CERES_CHECK(bounds_ == other.bounds_);
  const int64_t n = other.Count();
  if (n == 0) return;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b].fetch_add(other.BucketCount(b), std::memory_order_relaxed);
  }
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(other.Sum(), std::memory_order_relaxed);
  StoreIf(&min_, other.min_.load(std::memory_order_relaxed), std::less<>());
  StoreIf(&max_, other.max_.load(std::memory_order_relaxed),
          std::greater<>());
}

const std::vector<int64_t>& LatencyBucketsUs() {
  static const std::vector<int64_t>* const kBuckets = [] {
    auto* bounds = new std::vector<int64_t>;
    for (int64_t decade = 1; decade <= 1'000'000; decade *= 10) {
      bounds->push_back(1 * decade);
      bounds->push_back(2 * decade);
      bounds->push_back(5 * decade);
    }
    bounds->push_back(10'000'000);  // 10s
    return bounds;
  }();
  return *kBuckets;
}

const std::vector<int64_t>& SizeBuckets() {
  static const std::vector<int64_t>* const kBuckets = [] {
    auto* bounds = new std::vector<int64_t>;
    for (int64_t b = 1; b <= 1024; b *= 2) bounds->push_back(b);
    return bounds;
  }();
  return *kBuckets;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  return GetHistogram(name, LatencyBucketsUs());
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<int64_t> bounds) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":" + std::to_string(counter->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":" + std::to_string(gauge->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":{";
    out += "\"count\":" + std::to_string(histogram->Count());
    out += ",\"sum\":" + std::to_string(histogram->Sum());
    out += ",\"mean\":" + FormatDouble(histogram->Mean());
    out += ",\"p50\":" + FormatDouble(histogram->Percentile(0.50));
    out += ",\"p95\":" + FormatDouble(histogram->Percentile(0.95));
    out += ",\"p99\":" + FormatDouble(histogram->Percentile(0.99));
    out += ",\"max\":" + std::to_string(histogram->Max());
    out += '}';
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += "# TYPE " + name + " counter\n";
    out += name + ' ' + std::to_string(counter->Value()) + '\n';
  }
  for (const auto& [name, gauge] : gauges_) {
    out += "# TYPE " + name + " gauge\n";
    out += name + ' ' + std::to_string(gauge->Value()) + '\n';
  }
  for (const auto& [name, histogram] : histograms_) {
    out += "# TYPE " + name + " histogram\n";
    int64_t cumulative = 0;
    const auto& bounds = histogram->bounds();
    for (size_t b = 0; b < bounds.size(); ++b) {
      cumulative += histogram->BucketCount(b);
      out += name + "_bucket{le=\"" + std::to_string(bounds[b]) + "\"} " +
             std::to_string(cumulative) + '\n';
    }
    cumulative += histogram->BucketCount(bounds.size());
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + '\n';
    out += name + "_sum " + std::to_string(histogram->Sum()) + '\n';
    out += name + "_count " + std::to_string(histogram->Count()) + '\n';
  }
  return out;
}

}  // namespace ceres::obs

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace ceres::obs {
namespace {

TEST(CounterTest, IncrementsAndReadsBack) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  EXPECT_EQ(gauge.Value(), 10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Set(2);
  EXPECT_EQ(gauge.Value(), 2);
}

TEST(HistogramTest, CountSumMeanMinMax) {
  Histogram histogram({10, 100, 1000});
  EXPECT_EQ(histogram.Count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 0.0);
  EXPECT_EQ(histogram.Min(), 0);
  EXPECT_EQ(histogram.Max(), 0);
  histogram.Record(5);
  histogram.Record(50);
  histogram.Record(5000);  // Overflow bucket.
  EXPECT_EQ(histogram.Count(), 3);
  EXPECT_EQ(histogram.Sum(), 5055);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 5055.0 / 3.0);
  EXPECT_EQ(histogram.Min(), 5);
  EXPECT_EQ(histogram.Max(), 5000);
  EXPECT_EQ(histogram.BucketCount(0), 1);
  EXPECT_EQ(histogram.BucketCount(1), 1);
  EXPECT_EQ(histogram.BucketCount(2), 0);
  EXPECT_EQ(histogram.BucketCount(3), 1);  // Overflow.
}

TEST(HistogramTest, PercentileInterpolatesWithinBuckets) {
  Histogram histogram({100});
  for (int i = 0; i < 100; ++i) histogram.Record(50);
  // Every sample in [0, 100]: the median interpolates inside that bucket.
  const double p50 = histogram.Percentile(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 100.0);
  // Quantiles are monotone in p.
  EXPECT_LE(histogram.Percentile(0.1), histogram.Percentile(0.9));
  // Empty histogram reports 0.
  Histogram empty({100});
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 0.0);
}

TEST(HistogramTest, OverflowBucketUsesObservedMaxAsUpperEdge) {
  Histogram histogram({10});
  histogram.Record(1000);
  histogram.Record(2000);
  // Both samples in the overflow bucket; estimates must not exceed the
  // observed max.
  EXPECT_LE(histogram.Percentile(0.99), 2000.0);
  EXPECT_GT(histogram.Percentile(0.99), 10.0);
}

TEST(HistogramTest, MergeEqualsOneHistogramThatSawBothStreams) {
  const std::vector<int64_t> bounds{10, 100, 1000};
  Histogram a(bounds);
  Histogram b(bounds);
  Histogram both(bounds);
  for (int64_t v : {3, 40, 40, 700}) {
    a.Record(v);
    both.Record(v);
  }
  for (int64_t v : {1, 90, 5000, 20000}) {
    b.Record(v);
    both.Record(v);
  }
  Histogram merged(bounds);
  merged.Merge(a);
  merged.Merge(b);
  merged.Merge(Histogram(bounds));  // An empty merge changes nothing.
  EXPECT_EQ(merged.Count(), both.Count());
  EXPECT_EQ(merged.Sum(), both.Sum());
  EXPECT_EQ(merged.Min(), 1);
  EXPECT_EQ(merged.Max(), 20000);
  for (size_t i = 0; i <= bounds.size(); ++i) {
    EXPECT_EQ(merged.BucketCount(i), both.BucketCount(i)) << "bucket " << i;
  }
  for (double p : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), both.Percentile(p)) << "p" << p;
  }
  // Merging into a histogram that already has samples adds to them.
  a.Merge(b);
  EXPECT_EQ(a.Count(), both.Count());
  EXPECT_EQ(a.Sum(), both.Sum());
  EXPECT_EQ(a.Min(), both.Min());
  EXPECT_EQ(a.Max(), both.Max());
}

TEST(HistogramTest, DefaultLatencyAndSizeBucketsAreStrictlyIncreasing) {
  for (const std::vector<int64_t>* bounds :
       {&LatencyBucketsUs(), &SizeBuckets()}) {
    ASSERT_FALSE(bounds->empty());
    for (size_t i = 1; i < bounds->size(); ++i) {
      EXPECT_LT((*bounds)[i - 1], (*bounds)[i]);
    }
  }
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  EXPECT_EQ(counter, registry.GetCounter("c"));
  EXPECT_NE(counter, registry.GetCounter("other"));
  Histogram* histogram = registry.GetHistogram("h");
  EXPECT_EQ(histogram, registry.GetHistogram("h"));
  // Bounds are applied on first creation only.
  Histogram* sized = registry.GetHistogram("sized", {1, 2, 3});
  EXPECT_EQ(sized->bounds().size(), 3u);
  EXPECT_EQ(registry.GetHistogram("sized"), sized);
}

TEST(MetricsRegistryTest, JsonExportNamesEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("ceres_test_events_total")->Increment(2);
  registry.GetGauge("ceres_test_depth")->Set(4);
  registry.GetHistogram("ceres_test_latency_us")->Record(100);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"ceres_test_events_total\":2"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ceres_test_depth\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ceres_test_latency_us\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, PrometheusExportHasTypesAndCumulativeBuckets) {
  MetricsRegistry registry;
  registry.GetCounter("ceres_test_events_total")->Increment(2);
  Histogram* histogram = registry.GetHistogram("ceres_test_latency_us",
                                               {10, 100});
  histogram->Record(5);
  histogram->Record(50);
  histogram->Record(500);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE ceres_test_events_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ceres_test_events_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ceres_test_latency_us histogram"),
            std::string::npos);
  // Cumulative le buckets: 1, 2, then +Inf carrying the full count.
  EXPECT_NE(text.find("le=\"10\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("le=\"100\"} 2"), std::string::npos) << text;
  EXPECT_NE(text.find("le=\"+Inf\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("ceres_test_latency_us_count 3"), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("shared");
  Histogram* histogram = registry.GetHistogram("latency");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Record(t * kPerThread + i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(histogram->Count(), kThreads * kPerThread);
  EXPECT_EQ(histogram->Min(), 0);
  EXPECT_EQ(histogram->Max(), kThreads * kPerThread - 1);
}

TEST(MetricsRegistryTest, ConcurrentGetOfOneNameYieldsOneInstrument) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[static_cast<size_t>(t)] = registry.GetCounter("contended");
      seen[static_cast<size_t>(t)]->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  EXPECT_EQ(seen[0]->Value(), kThreads);
}

}  // namespace
}  // namespace ceres::obs

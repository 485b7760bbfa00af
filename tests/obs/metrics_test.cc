#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "kb/knowledge_base.h"
#include "ml/logistic_regression.h"

namespace ceres::obs {
namespace {

/// Saves and restores the process-wide enable flag so tests that flip it
/// cannot leak state into each other.
class EnabledFlagGuard {
 public:
  EnabledFlagGuard() : saved_(Enabled()) {}
  ~EnabledFlagGuard() { SetEnabled(saved_); }

 private:
  bool saved_;
};

TEST(ObsEnabledTest, DefaultsToOffAndToggles) {
  EnabledFlagGuard guard;
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
}

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

TEST(MetricsRegistryTest, CounterValueReportsZeroForUnknownName) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("never_created"), 0);
  registry.GetCounter("created")->Increment(3);
  EXPECT_EQ(registry.CounterValue("created"), 3);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsPointers) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Gauge* gauge = registry.GetGauge("g");
  Histogram* histogram = registry.GetHistogram("h");
  counter->Increment(5);
  gauge->Set(7);
  histogram->Record(11);
  registry.Reset();
  // Handed-out pointers stay valid and identical; values are zero.
  EXPECT_EQ(registry.GetCounter("c"), counter);
  EXPECT_EQ(registry.GetGauge("g"), gauge);
  EXPECT_EQ(registry.GetHistogram("h"), histogram);
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(gauge->Value(), 0);
  EXPECT_EQ(histogram->Count(), 0);
  EXPECT_EQ(histogram->Max(), 0);
  counter->Increment();
  EXPECT_EQ(registry.CounterValue("c"), 1);
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
  EXPECT_EQ(registry.CounterValue("contended"), kThreads);
}

TEST(MetricsRegistryTest, DefaultRegistryIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Default(), &MetricsRegistry::Default());
}

TEST(KbMentionCountersTest, CountEveryLookupAndEveryHit) {
  EnabledFlagGuard guard;
  SetEnabled(true);
  Ontology ontology;
  const TypeId film = ontology.AddEntityType("film");
  KnowledgeBase kb(std::move(ontology));
  kb.AddEntity(film, "Do the Right Thing");
  kb.AddEntity(film, "Crooklyn");
  kb.Freeze();

  MetricsRegistry& registry = MetricsRegistry::Default();
  const int64_t lookups_before =
      registry.CounterValue("ceres_kb_mention_lookups_total");
  const int64_t hits_before =
      registry.CounterValue("ceres_kb_mention_hits_total");
  // Two hits (one through the year-stripping retry), two misses (one of
  // them blank text); each call is one lookup.
  EXPECT_FALSE(kb.MatchMentions("Crooklyn").empty());
  EXPECT_FALSE(kb.MatchMentions("Do the Right Thing (1989)").empty());
  EXPECT_TRUE(kb.MatchMentions("Nobody").empty());
  EXPECT_TRUE(kb.MatchMentionsView("").empty());
  EXPECT_EQ(registry.CounterValue("ceres_kb_mention_lookups_total"),
            lookups_before + 4);
  EXPECT_EQ(registry.CounterValue("ceres_kb_mention_hits_total"),
            hits_before + 2);

  // Recording off: lookups still answer but nothing is counted.
  SetEnabled(false);
  EXPECT_FALSE(kb.MatchMentions("Crooklyn").empty());
  EXPECT_EQ(registry.CounterValue("ceres_kb_mention_lookups_total"),
            lookups_before + 4);
}

TEST(TrainCountersTest, CountFitsIterationsEvaluationsAndCappedFits) {
  EnabledFlagGuard guard;
  SetEnabled(true);
  auto example = [](int32_t feature, int32_t label) {
    LabeledExample out;
    out.features.Add(feature, 1.0);
    out.features.Finalize();
    out.label = label;
    return out;
  };
  // Classes {0, 2} of 3 observed; class 1 is never fitted.
  const std::vector<LabeledExample> examples{example(0, 0), example(1, 2),
                                             example(0, 0), example(1, 2)};
  MetricsRegistry& registry = MetricsRegistry::Default();
  auto value = [&](const char* name) { return registry.CounterValue(name); };
  const int64_t fits = value("ceres_train_fits_total");
  const int64_t capped = value("ceres_train_fits_capped_total");
  const int64_t iterations = value("ceres_train_lbfgs_iterations_total");
  const int64_t evals = value("ceres_train_objective_evals_total");

  LogisticRegression model;
  Result<LbfgsResult> converged = model.Train(examples, 2, 3);
  ASSERT_TRUE(converged.ok());
  ASSERT_TRUE(converged->converged);
  ASSERT_GT(converged->iterations, 0);
  EXPECT_EQ(value("ceres_train_fits_total"), fits + 1);
  EXPECT_EQ(value("ceres_train_fits_capped_total"), capped);
  EXPECT_EQ(value("ceres_train_lbfgs_iterations_total"),
            iterations + converged->iterations);
  EXPECT_EQ(value("ceres_train_objective_evals_total"),
            evals + converged->evaluations);

  // A two-iteration cap stops the same problem short of convergence.
  LogRegConfig tight;
  tight.max_iterations = 2;
  Result<LbfgsResult> cut = model.Train(examples, 2, 3, tight);
  ASSERT_TRUE(cut.ok());
  ASSERT_FALSE(cut->converged);
  EXPECT_EQ(cut->iterations, 2);
  EXPECT_EQ(value("ceres_train_fits_total"), fits + 2);
  EXPECT_EQ(value("ceres_train_fits_capped_total"), capped + 1);
  EXPECT_EQ(value("ceres_train_lbfgs_iterations_total"),
            iterations + converged->iterations + 2);
  EXPECT_EQ(value("ceres_train_objective_evals_total"),
            evals + converged->evaluations + cut->evaluations);

  // Recording off: fits still run but nothing is counted.
  SetEnabled(false);
  ASSERT_TRUE(model.Train(examples, 2, 3).ok());
  EXPECT_EQ(value("ceres_train_fits_total"), fits + 2);
}

}  // namespace
}  // namespace ceres::obs

#include "serve/extraction_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve_test_util.h"
#include "serve/sharded_service.h"

namespace ceres::serve {
namespace {

using ceres::testing::ParseOrDie;
using ceres::testing::TrainedFilmSite;
using std::chrono::milliseconds;

constexpr char kSite[] = "films.example";

class ExtractionServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/service_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    registry_ = std::make_unique<ModelRegistry>(site_.kb.kb.ontology(),
                                                ModelRegistryConfig{root_});
    ASSERT_TRUE(registry_->Publish(kSite, *site_.model).ok());
  }

  ServeRequest Request(int variant = 0) {
    ServeRequest request;
    request.site = kSite;
    request.html = TrainedFilmSite::UnseenPageHtml(variant);
    request.url = "http://films.example/fresh/" + std::to_string(variant);
    return request;
  }

  TrainedFilmSite site_;
  std::string root_;
  std::unique_ptr<ModelRegistry> registry_;
};

TEST_F(ExtractionServiceTest, ServesSameTriplesAsTheOfflinePath) {
  ExtractionService service(registry_.get());
  ASSERT_TRUE(service.Start().ok());
  std::future<ServeResult> future = service.Submit(Request());
  ServeResult result = future.get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.diagnostics.shed_cause, ShedCause::kNone);
  EXPECT_EQ(result.diagnostics.model_version, 1);
  EXPECT_GE(result.diagnostics.batch_size, 1);

  // Reference: apply the published model directly.
  DomDocument unseen = ParseOrDie(TrainedFilmSite::UnseenPageHtml());
  FeatureExtractor featurizer = MakeFeaturizer(*site_.model);
  std::vector<Extraction> direct =
      ExtractFromPages({&unseen}, {0}, site_.model.get(), featurizer, {});
  ASSERT_EQ(result.triples.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(result.triples[i].predicate, direct[i].predicate);
    EXPECT_EQ(result.triples[i].object, direct[i].object);
    EXPECT_NEAR(result.triples[i].confidence, direct[i].confidence, 1e-12);
  }
  EXPECT_EQ(service.stats().completed, 1);
}

TEST_F(ExtractionServiceTest, MicroBatchesRequestsOfTheSameSite) {
  registry_->Invalidate(kSite);  // Publish pre-warmed the cache; start cold
  ExtractionServiceConfig config;
  config.worker_threads = 1;
  ExtractionService service(registry_.get(), config);

  // Submit-before-Start makes the first drain deterministic: all six
  // requests are pending when the single worker wakes.
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(service.Submit(Request(i)));
  ASSERT_TRUE(service.Start().ok());

  bool saw_cold_batch = false;
  for (std::future<ServeResult>& future : futures) {
    ServeResult result = future.get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.diagnostics.batch_size, 6);
    EXPECT_GE(result.diagnostics.queue_wait.count(), 0);
    if (!result.diagnostics.model_cache_hit) saw_cold_batch = true;
  }
  EXPECT_TRUE(saw_cold_batch) << "first batch pays the one cold load";
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.batched_requests, 6);
  EXPECT_EQ(registry_->stats().loads, 1);

  // A later lone request rides the now-warm cache.
  ServeResult warm = service.Submit(Request(7)).get();
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.diagnostics.model_cache_hit);
}

TEST_F(ExtractionServiceTest, RespectsMaxBatch) {
  ExtractionServiceConfig config;
  config.worker_threads = 1;
  ExtractionService service(registry_.get(), config);
  // More requests than one batch holds (16), all pending at the first
  // drain.
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 20; ++i) futures.push_back(service.Submit(Request(i)));
  ASSERT_TRUE(service.Start().ok());
  for (std::future<ServeResult>& future : futures) {
    ServeResult result = future.get();
    ASSERT_TRUE(result.status.ok());
    EXPECT_LE(result.diagnostics.batch_size, 16);
  }
  EXPECT_GE(service.stats().batches, 2);
}

TEST_F(ExtractionServiceTest, QueueFullShedsWithResourceExhausted) {
  ExtractionService service(registry_.get());  // workers not started

  // The queue holds 1024 pending requests; the 1025th is shed.
  std::vector<std::future<ServeResult>> admitted;
  for (int i = 0; i < 1024; ++i) {
    admitted.push_back(service.Submit(Request(i)));
  }
  ServeResult shed = service.Submit(Request(1024)).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.diagnostics.shed_cause, ShedCause::kQueueFull);

  // The admitted ones still complete once workers exist.
  ASSERT_TRUE(service.Start().ok());
  for (std::future<ServeResult>& future : admitted) {
    EXPECT_TRUE(future.get().status.ok());
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed[static_cast<int>(ShedCause::kQueueFull)], 1);
  EXPECT_EQ(stats.completed, 1024);
}

TEST_F(ExtractionServiceTest, PreExpiredDeadlineIsShedAtAdmission) {
  ExtractionService service(registry_.get());
  ASSERT_TRUE(service.Start().ok());

  ServeRequest late = Request();
  late.deadline = Deadline::After(milliseconds(0));
  ServeResult result = service.Submit(std::move(late)).get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.diagnostics.shed_cause,
            ShedCause::kDeadlineBeforeAdmission);
}

TEST_F(ExtractionServiceTest, DeadlineExpiringInQueueShedsTyped) {
  ExtractionService service(registry_.get());  // not started: requests wait

  ServeRequest doomed = Request();
  doomed.deadline = Deadline::After(milliseconds(5));
  std::future<ServeResult> future = service.Submit(std::move(doomed));
  std::this_thread::sleep_for(milliseconds(30));
  ASSERT_TRUE(service.Start().ok());

  ServeResult result = future.get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.diagnostics.shed_cause, ShedCause::kTimedOutInQueue);
  EXPECT_GT(result.diagnostics.queue_wait.count(), 0);
}

TEST_F(ExtractionServiceTest, ParseFailureFailsOnlyItsOwnRequest) {
  ExtractionServiceConfig config;
  config.worker_threads = 1;
  config.parse.max_nodes = 200;
  ExtractionService service(registry_.get(), config);

  ServeRequest bomb;
  bomb.site = kSite;
  bomb.url = "http://films.example/bomb";
  bomb.html = "<body>";
  for (int i = 0; i < 400; ++i) bomb.html += "<div>x</div>";
  bomb.html += "</body>";

  std::future<ServeResult> good_future = service.Submit(Request());
  std::future<ServeResult> bomb_future = service.Submit(std::move(bomb));
  ASSERT_TRUE(service.Start().ok());

  ServeResult good = good_future.get();
  ASSERT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_FALSE(good.triples.empty());

  ServeResult failed = bomb_future.get();
  EXPECT_EQ(failed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(failed.diagnostics.shed_cause, ShedCause::kParseFailed);
  EXPECT_EQ(
      service.stats().shed[static_cast<int>(ShedCause::kParseFailed)], 1);
}

TEST_F(ExtractionServiceTest, UnknownSiteShedsWholeBatchTyped) {
  ExtractionService service(registry_.get());
  ASSERT_TRUE(service.Start().ok());
  ServeRequest request = Request();
  request.site = "unpublished.example";
  ServeResult result = service.Submit(std::move(request)).get();
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(result.diagnostics.shed_cause, ShedCause::kModelLoadFailed);
}

TEST_F(ExtractionServiceTest, ServesMultipleSitesIndependently) {
  ASSERT_TRUE(registry_->Publish("second.example", *site_.model).ok());
  ExtractionServiceConfig config;
  config.worker_threads = 4;
  ExtractionService service(registry_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 12; ++i) {
    ServeRequest request = Request(i);
    if (i % 2 == 1) request.site = "second.example";
    futures.push_back(service.Submit(std::move(request)));
  }
  for (std::future<ServeResult>& future : futures) {
    ServeResult result = future.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  EXPECT_EQ(service.stats().completed, 12);
}

TEST_F(ExtractionServiceTest, PublishMidStreamServesTheNewVersionAfterward) {
  ExtractionServiceConfig config;
  config.worker_threads = 2;
  ExtractionService service(registry_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  std::vector<std::future<ServeResult>> before;
  for (int i = 0; i < 16; ++i) before.push_back(service.Submit(Request(i)));
  ServeResult first = before.front().get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.diagnostics.model_version, 1);

  // The retrained model lands while the rest of the v1 traffic is queued
  // or running; a request submitted after Publish returns is dequeued
  // after the swap, so it must be served by v2.
  Result<int64_t> swapped = registry_->Publish(kSite, *site_.model);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  ASSERT_EQ(*swapped, 2);
  std::vector<std::future<ServeResult>> after;
  for (int i = 0; i < 16; ++i) {
    after.push_back(service.Submit(Request(16 + i)));
  }

  for (size_t i = 1; i < before.size(); ++i) {
    ServeResult result = before[i].get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  for (std::future<ServeResult>& future : after) {
    ServeResult result = future.get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.diagnostics.model_version, 2);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 32);
  EXPECT_EQ(stats.total_shed(), 0);
  EXPECT_EQ(stats.completed + stats.total_shed(), stats.submitted);
  EXPECT_EQ(registry_->stats().hot_swaps, 1);
}

TEST_F(ExtractionServiceTest, StageHistogramsCountEveryCompletedRequest) {
  ExtractionServiceConfig config;
  config.worker_threads = 2;
  ExtractionService service(registry_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(service.Submit(Request(i)));
  for (std::future<ServeResult>& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 12);
  const ServiceHistograms& histograms = service.histograms();
  // Parse is timed per request, inference once per batch.
  EXPECT_EQ(histograms.parse_us.Count(), stats.completed);
  EXPECT_EQ(histograms.inference_us.Count(), stats.batches);
}

TEST_F(ExtractionServiceTest, StopShedsQueuedRequestsAndRejectsNewOnes) {
  ExtractionService service(registry_.get());  // never started
  std::future<ServeResult> queued = service.Submit(Request());
  service.Stop();

  ServeResult shed = queued.get();
  EXPECT_EQ(shed.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(shed.diagnostics.shed_cause, ShedCause::kShutdown);

  ServeResult rejected = service.Submit(Request()).get();
  EXPECT_EQ(rejected.diagnostics.shed_cause, ShedCause::kShutdown);
  EXPECT_EQ(
      service.stats().shed[static_cast<int>(ShedCause::kShutdown)], 2);
}

TEST(ShardedServiceTest, PublishDropsTheResultOfARequestSubmittedBeforeIt) {
  TrainedFilmSite site;
  const std::string root =
      ::testing::TempDir() + "/sharded_publish_drops_in_flight_insert";
  std::filesystem::remove_all(root);
  ShardedServiceConfig config;
  config.num_shards = 1;
  config.service.worker_threads = 1;
  config.registry.root_dir = root;
  ShardedExtractionService service(site.kb.kb.ontology(), config);
  ASSERT_TRUE(service.Publish(kSite, *site.model).ok());

  ServeRequest request;
  request.site = kSite;
  request.html = TrainedFilmSite::UnseenPageHtml();
  // Submit before Start: the request misses the cache and is still queued
  // when the model is republished.
  std::future<ServeResult> in_flight = service.Submit(request);
  ASSERT_TRUE(service.Publish(kSite, *site.model).ok());
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(in_flight.get().status.ok());

  // Its completion hook ran after the Publish, so its result must not be
  // cached: the next near-duplicate goes to the shard again.
  EXPECT_EQ(service.cache().stats().entries, 0u);
  const ServeResult resend = service.Submit(request).get();
  ASSERT_TRUE(resend.status.ok()) << resend.status.ToString();
  EXPECT_FALSE(resend.diagnostics.near_dup_hit);
  EXPECT_EQ(resend.diagnostics.model_version, 2);
  EXPECT_EQ(service.cache().stats().misses, 2);
}

}  // namespace
}  // namespace ceres::serve

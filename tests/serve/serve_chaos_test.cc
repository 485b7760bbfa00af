// Chaos coverage for the online extraction service: model files and the
// request stream are corrupted through PR 1's fault injector, and the
// service must degrade into typed sheds — never crash, never hand back
// silently empty results.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "robustness/fault_injector.h"
#include "serve/extraction_service.h"
#include "serve/serve_test_util.h"
#include "util/random.h"

namespace ceres::serve {
namespace {

using ceres::testing::TrainedFilmSite;

constexpr char kSite[] = "films.example";

class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/serve_chaos_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    registry_ = std::make_unique<ModelRegistry>(site_.kb.kb.ontology(),
                                                ModelRegistryConfig{root_});
    ASSERT_TRUE(registry_->Publish(kSite, *site_.model).ok());
  }

  /// Rewrites the site's current model file with injector-corrupted bytes
  /// and drops the warm cache entry so the next request pays a load.
  void CorruptModelFile(FaultType fault, uint64_t seed) {
    Result<int64_t> version = LatestModelVersion(root_, kSite);
    ASSERT_TRUE(version.ok());
    const std::string path = ModelVersionPath(root_, kSite, *version);
    std::ifstream in(path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes.empty());
    FaultInjectionConfig config;
    Rng rng(seed);
    std::string corrupted = CorruptHtml(bytes, fault, config, &rng);
    std::ofstream out(path, std::ios::trunc);
    out << corrupted;
    out.close();
    registry_->Invalidate(kSite);
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

TEST_F(ServeChaosTest, TruncatedModelFileShedsTypedAndServiceRecovers) {
  CorruptModelFile(FaultType::kTruncate, 7);

  ExtractionService service(registry_.get());
  ASSERT_TRUE(service.Start().ok());
  ServeResult broken = service.Submit(Request()).get();
  EXPECT_FALSE(broken.status.ok());
  EXPECT_EQ(broken.diagnostics.shed_cause, ShedCause::kModelLoadFailed);
  EXPECT_EQ(broken.status.code(), StatusCode::kInvalidArgument)
      << broken.status.ToString();

  // The failure is not sticky: a retrain publishes a good version and the
  // same service instance serves again.
  ASSERT_TRUE(registry_->Publish(kSite, *site_.model).ok());
  ServeResult healed = service.Submit(Request()).get();
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();
  EXPECT_FALSE(healed.triples.empty());
  EXPECT_EQ(
      service.stats().shed[static_cast<int>(ShedCause::kModelLoadFailed)],
      1);
}

TEST_F(ServeChaosTest, CorruptModelFileShedsOnlyItsOwnSite) {
  constexpr char kHealthy[] = "healthy.example";
  constexpr char kUnpublished[] = "unpublished.example";
  ASSERT_TRUE(registry_->Publish(kHealthy, *site_.model).ok());
  // Start cold, as after a restart: each published site is loaded from
  // the store once and served warm from then on.
  registry_->Invalidate(kSite);
  registry_->Invalidate(kHealthy);

  ExtractionServiceConfig config;
  config.worker_threads = 4;
  ExtractionService service(registry_.get(), config);
  ASSERT_TRUE(service.Start().ok());
  for (const char* site : {kSite, kHealthy}) {
    ServeRequest request = Request();
    request.site = site;
    ServeResult result = service.Submit(std::move(request)).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  }
  CorruptModelFile(FaultType::kTruncate, 7);

  const char* const kMix[] = {kSite, kHealthy, kUnpublished};
  std::vector<std::string> sites;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 30; ++i) {
    ServeRequest request = Request(i);
    request.site = kMix[i % 3];
    sites.push_back(request.site);
    futures.push_back(service.Submit(std::move(request)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ServeResult result = futures[i].get();
    if (sites[i] == kHealthy) {
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      continue;
    }
    EXPECT_EQ(result.diagnostics.shed_cause, ShedCause::kModelLoadFailed)
        << sites[i];
    EXPECT_EQ(result.status.code(), sites[i] == kUnpublished
                                         ? StatusCode::kNotFound
                                         : StatusCode::kInvalidArgument)
        << result.status.ToString();
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2 + 10);
  EXPECT_EQ(stats.shed[static_cast<int>(ShedCause::kModelLoadFailed)], 20);
  EXPECT_EQ(stats.completed + stats.total_shed(), stats.submitted);
  // Failed reloads and the unknown site never count as loads, and the
  // healthy site is not reloaded while its neighbour fails.
  EXPECT_EQ(registry_->stats().loads, 2);
}

TEST_F(ServeChaosTest, GarbledModelFileShedsInsteadOfCrashing) {
  // Garbling flips bytes all over the file; whatever line breaks first,
  // the load must come back as a typed error.
  CorruptModelFile(FaultType::kGarble, 11);
  ExtractionService service(registry_.get());
  ASSERT_TRUE(service.Start().ok());
  ServeResult result = service.Submit(Request()).get();
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.diagnostics.shed_cause, ShedCause::kModelLoadFailed);
}

TEST_F(ServeChaosTest, CorruptedRequestStreamDegradesPerRequest) {
  ExtractionServiceConfig config;
  // A tight parse budget turns injected node bombs into per-request parse
  // failures (the service-side analogue of resilient-loader quarantine).
  config.parse.max_nodes = 3000;
  ExtractionService service(registry_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  // Build a request stream and corrupt half of it with page faults.
  std::vector<RawPage> raw;
  for (int i = 0; i < 24; ++i) {
    raw.push_back(RawPage{"http://films.example/fresh/" + std::to_string(i),
                          TrainedFilmSite::UnseenPageHtml(i)});
  }
  FaultInjectionConfig fault_config;
  fault_config.seed = 13;
  fault_config.page_fault_rate = 0.5;
  fault_config.node_bomb_weight = 2.0;
  fault_config.node_bomb_nodes = 1 << 13;  // above the parse budget
  FaultReport report;
  std::vector<RawPage> stream = InjectFaults(raw, fault_config, &report);

  std::vector<std::future<ServeResult>> futures;
  for (const RawPage& page : stream) {
    ServeRequest request;
    request.site = kSite;
    request.html = page.html;
    request.url = page.url;
    futures.push_back(service.Submit(std::move(request)));
  }

  int64_t ok_count = 0;
  int64_t typed_failures = 0;
  for (std::future<ServeResult>& future : futures) {
    ServeResult result = future.get();
    if (result.status.ok()) {
      ++ok_count;
    } else {
      // Every failure must be typed — a parse shed with a real cause.
      EXPECT_EQ(result.diagnostics.shed_cause, ShedCause::kParseFailed);
      EXPECT_NE(result.status.code(), StatusCode::kOk);
      ++typed_failures;
    }
  }
  // The injector's report gives ground truth: clean pages must be served.
  std::set<PageIndex> faulted;
  for (const InjectedFault& fault : report.faults) {
    faulted.insert(fault.source_page);
  }
  EXPECT_GE(ok_count,
            static_cast<int64_t>(raw.size() - faulted.size()))
      << "every uncorrupted page must extract";
  EXPECT_EQ(ok_count + typed_failures,
            static_cast<int64_t>(stream.size()));

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, ok_count);
  EXPECT_EQ(stats.completed + stats.total_shed(),
            static_cast<int64_t>(stream.size()));
}

TEST_F(ServeChaosTest, LoadFaultUnderConcurrentTrafficNeverCrashes) {
  // Repeatedly alternate a broken store and a healing publish while
  // traffic flows; the service must account for every request.
  ExtractionServiceConfig config;
  config.worker_threads = 4;
  ExtractionService service(registry_.get(), config);
  ASSERT_TRUE(service.Start().ok());

  int64_t submitted = 0;
  std::vector<std::future<ServeResult>> futures;
  for (int round = 0; round < 4; ++round) {
    if (round % 2 == 1) {
      CorruptModelFile(FaultType::kTruncate,
                       static_cast<uint64_t>(100 + round));
    } else if (round > 0) {
      ASSERT_TRUE(registry_->Publish(kSite, *site_.model).ok());
    }
    for (int i = 0; i < 8; ++i) {
      futures.push_back(service.Submit(Request(round * 8 + i)));
      ++submitted;
    }
  }
  int64_t resolved = 0;
  for (std::future<ServeResult>& future : futures) {
    ServeResult result = future.get();
    if (!result.status.ok()) {
      EXPECT_EQ(result.diagnostics.shed_cause, ShedCause::kModelLoadFailed);
    }
    ++resolved;
  }
  EXPECT_EQ(resolved, submitted);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed + stats.total_shed(), submitted);
}

}  // namespace
}  // namespace ceres::serve

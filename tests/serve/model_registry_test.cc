#include "serve/model_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/extractor.h"
#include "serve/serve_test_util.h"
#include "util/parallel.h"

namespace ceres::serve {
namespace {

using ceres::testing::TrainedFilmSite;

class ModelRegistryTest : public ::testing::Test {
 protected:
  std::string NewRoot(const std::string& name) {
    std::string root = ::testing::TempDir() + "/registry_" + name;
    std::filesystem::remove_all(root);
    return root;
  }

  TrainedFilmSite site_;
};

TEST_F(ModelRegistryTest, GetLoadsFromStoreThenServesWarm) {
  const std::string root = NewRoot("warm");
  ASSERT_TRUE(SaveModelVersion(root, "films.example", *site_.model,
                               site_.kb.kb.ontology())
                  .ok());
  ModelRegistry registry(site_.kb.kb.ontology(), {root});

  bool hit = true;
  Result<std::shared_ptr<const SiteModel>> cold =
      registry.Get("films.example", &hit);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(hit);
  EXPECT_EQ((*cold)->version, 1);
  EXPECT_GT((*cold)->bytes, 0u);

  Result<std::shared_ptr<const SiteModel>> warm =
      registry.Get("films.example", &hit);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(cold.value().get(), warm.value().get());

  RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.loads, 1);
  EXPECT_EQ(stats.models_cached, 1);
  EXPECT_EQ(stats.bytes_cached, (*cold)->bytes);
}

TEST_F(ModelRegistryTest, UnknownSiteFailsTypedAndIsNotNegativelyCached) {
  ModelRegistry registry(site_.kb.kb.ontology(), {NewRoot("unknown")});
  EXPECT_EQ(registry.Get("nope.example").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Get("nope.example").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.stats().load_failures, 2);
}

TEST_F(ModelRegistryTest, ByteBudgetEvictsLeastRecentlyUsed) {
  const std::string root = NewRoot("evict");
  ModelRegistry seeded(site_.kb.kb.ontology(), {root});
  ASSERT_TRUE(seeded.Publish("a.example", *site_.model).ok());
  ASSERT_TRUE(seeded.Publish("b.example", *site_.model).ok());
  ASSERT_TRUE(seeded.Publish("c.example", *site_.model).ok());

  // Budget for two copies of this model, not three.
  ModelRegistryConfig config;
  config.root_dir = root;
  config.byte_budget = 2 * EstimateModelBytes(*site_.model) +
                       EstimateModelBytes(*site_.model) / 2;
  ModelRegistry registry(site_.kb.kb.ontology(), config);

  ASSERT_TRUE(registry.Get("a.example").ok());
  ASSERT_TRUE(registry.Get("b.example").ok());
  ASSERT_TRUE(registry.Get("c.example").ok());  // evicts a (LRU)
  EXPECT_EQ(registry.stats().evictions, 1);
  EXPECT_EQ(registry.stats().models_cached, 2);

  bool hit = false;
  ASSERT_TRUE(registry.Get("b.example", &hit).ok());
  EXPECT_TRUE(hit) << "b was touched after a, must still be warm";
  ASSERT_TRUE(registry.Get("a.example", &hit).ok());
  EXPECT_FALSE(hit) << "a was the LRU victim, must reload";
  EXPECT_LE(registry.stats().bytes_cached, config.byte_budget);
}

TEST_F(ModelRegistryTest, OversizedModelStillServedThenEvicted) {
  const std::string root = NewRoot("oversized");
  ModelRegistry seeded(site_.kb.kb.ontology(), {root});
  ASSERT_TRUE(seeded.Publish("a.example", *site_.model).ok());
  ASSERT_TRUE(seeded.Publish("b.example", *site_.model).ok());

  ModelRegistryConfig config;
  config.root_dir = root;
  config.byte_budget = 1;  // below any model
  ModelRegistry registry(site_.kb.kb.ontology(), config);

  ASSERT_TRUE(registry.Get("a.example").ok());
  ASSERT_TRUE(registry.Get("b.example").ok());  // evicts a
  bool hit = true;
  ASSERT_TRUE(registry.Get("a.example", &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_GE(registry.stats().evictions, 2);
}

TEST_F(ModelRegistryTest, PublishHotSwapsWhileOldReadersFinish) {
  const std::string root = NewRoot("hotswap");
  ModelRegistry registry(site_.kb.kb.ontology(), {root});
  ASSERT_TRUE(registry.Publish("films.example", *site_.model).ok());

  Result<std::shared_ptr<const SiteModel>> v1 = registry.Get("films.example");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)->version, 1);
  std::shared_ptr<const SiteModel> held = v1.value();

  Result<int64_t> v2 = registry.Publish("films.example", *site_.model);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2);
  EXPECT_EQ(registry.stats().hot_swaps, 1);

  Result<std::shared_ptr<const SiteModel>> after =
      registry.Get("films.example");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->version, 2);
  // The reader that grabbed v1 before the swap still has a working model.
  EXPECT_EQ(held->version, 1);
  DomDocument unseen =
      ceres::testing::ParseOrDie(TrainedFilmSite::UnseenPageHtml());
  std::vector<Extraction> extractions = ExtractFromPages(
      {&unseen}, {0}, const_cast<TrainedModel*>(&held->model),
      held->featurizer, {});
  EXPECT_FALSE(extractions.empty());
}

TEST_F(ModelRegistryTest, ConcurrentColdGetsDeduplicateTheDiskLoad) {
  const std::string root = NewRoot("dedup");
  ModelRegistry seeded(site_.kb.kb.ontology(), {root});
  ASSERT_TRUE(seeded.Publish("films.example", *site_.model).ok());

  ModelRegistry registry(site_.kb.kb.ontology(), {root});
  std::atomic<int> failures{0};
  ParallelFor(8, 8, [&](size_t) {
    if (!registry.Get("films.example").ok()) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
  RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.loads, 1) << "one disk load, everyone else rides it";
  EXPECT_EQ(stats.hits + stats.misses, 8);
}

TEST_F(ModelRegistryTest, EvictionAndHotSwapUnderConcurrentReaders) {
  const std::string root = NewRoot("churn");
  ModelRegistry seeded(site_.kb.kb.ontology(), {root});
  const std::vector<std::string> sites = {"a.example", "b.example",
                                          "c.example"};
  for (const std::string& site : sites) {
    ASSERT_TRUE(seeded.Publish(site, *site_.model).ok());
  }

  // Budget for ~1.5 models: every reader round churns the cache while a
  // writer hot-swaps new versions underneath.
  ModelRegistryConfig config;
  config.root_dir = root;
  config.byte_budget = EstimateModelBytes(*site_.model) * 3 / 2;
  ModelRegistry registry(site_.kb.kb.ontology(), config);

  DomDocument unseen =
      ceres::testing::ParseOrDie(TrainedFilmSite::UnseenPageHtml());
  std::atomic<int> reader_failures{0};
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    for (int round = 0; round < 5 && !stop_writer.load(); ++round) {
      for (const std::string& site : sites) {
        if (!registry.Publish(site, *site_.model).ok()) {
          reader_failures.fetch_add(1);
        }
      }
    }
  });
  ParallelFor(4, 4, [&](size_t worker) {
    for (int i = 0; i < 30; ++i) {
      const std::string& site = sites[(worker + i) % sites.size()];
      Result<std::shared_ptr<const SiteModel>> model = registry.Get(site);
      if (!model.ok()) {
        reader_failures.fetch_add(1);
        continue;
      }
      std::vector<Extraction> extractions = ExtractFromPages(
          {&unseen}, {0}, const_cast<TrainedModel*>(&(*model)->model),
          (*model)->featurizer, {});
      if (extractions.empty()) reader_failures.fetch_add(1);
    }
  });
  stop_writer.store(true);
  writer.join();

  EXPECT_EQ(reader_failures.load(), 0);
  RegistryStats stats = registry.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytes_cached, config.byte_budget);
  // Every site's warm (or reloaded) model is the writer's newest version.
  for (const std::string& site : sites) {
    Result<std::shared_ptr<const SiteModel>> model = registry.Get(site);
    ASSERT_TRUE(model.ok());
    Result<int64_t> latest = LatestModelVersion(root, site);
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ((*model)->version, *latest) << site;
  }
}

TEST_F(ModelRegistryTest, AbsentClassModelServesIdenticallyAfterReload) {
  // The tiny film site annotates a few predicates only: the unfitted
  // classes carry a -inf intercept, which must survive the store.
  const LogisticRegression& trained = site_.model->model;
  int32_t absent = 0;
  for (int32_t cls = 0; cls < trained.num_classes(); ++cls) {
    if (trained.BiasAt(cls) == -std::numeric_limits<double>::infinity()) {
      ++absent;
    }
  }
  ASSERT_GT(absent, 0);

  const std::string root = NewRoot("absent_classes");
  ModelRegistry registry(site_.kb.kb.ontology(), {root});
  ASSERT_TRUE(registry.Publish("films.example", *site_.model).ok());
  registry.Invalidate("films.example");
  Result<std::shared_ptr<const SiteModel>> loaded =
      registry.Get("films.example");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->model.model.weights(), trained.weights());

  DomDocument unseen =
      ceres::testing::ParseOrDie(TrainedFilmSite::UnseenPageHtml());
  TrainedModel reloaded = (*loaded)->model;
  std::vector<Extraction> expected = ExtractFromPages(
      {&unseen}, {0}, site_.model.get(), *site_.featurizer, {});
  std::vector<Extraction> served = ExtractFromPages(
      {&unseen}, {0}, &reloaded, (*loaded)->featurizer, {});
  ASSERT_EQ(served.size(), expected.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].node, expected[i].node);
    EXPECT_EQ(served[i].predicate, expected[i].predicate);
    EXPECT_EQ(served[i].object, expected[i].object);
    EXPECT_EQ(served[i].confidence, expected[i].confidence);
  }
}

TEST_F(ModelRegistryTest, InvalidateForcesReload) {
  const std::string root = NewRoot("invalidate");
  ModelRegistry registry(site_.kb.kb.ontology(), {root});
  ASSERT_TRUE(registry.Publish("films.example", *site_.model).ok());
  ASSERT_TRUE(registry.Get("films.example").ok());

  registry.Invalidate("films.example");
  EXPECT_EQ(registry.stats().models_cached, 0);
  bool hit = true;
  ASSERT_TRUE(registry.Get("films.example", &hit).ok());
  EXPECT_FALSE(hit);
}

TEST_F(ModelRegistryTest, CorruptStoreFileYieldsTypedErrorAndRecovers) {
  const std::string root = NewRoot("corrupt");
  ModelRegistry registry(site_.kb.kb.ontology(), {root});
  ASSERT_TRUE(registry.Publish("films.example", *site_.model).ok());
  registry.Invalidate("films.example");

  // Truncate the snapshot behind the registry's back.
  const std::string path = ModelVersionPath(root, "films.example", 1);
  {
    std::ifstream in(path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 3);
  }
  Result<std::shared_ptr<const SiteModel>> broken =
      registry.Get("films.example");
  EXPECT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kInvalidArgument);

  // A retrain publishes version 2 and the site heals — no negative cache.
  ASSERT_TRUE(registry.Publish("films.example", *site_.model).ok());
  Result<std::shared_ptr<const SiteModel>> healed =
      registry.Get("films.example");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ((*healed)->version, 2);
}

}  // namespace
}  // namespace ceres::serve

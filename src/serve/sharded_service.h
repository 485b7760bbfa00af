#ifndef CERES_SERVE_SHARDED_SERVICE_H_
#define CERES_SERVE_SHARDED_SERVICE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "kb/ontology.h"
#include "serve/extraction_service.h"
#include "serve/model_registry.h"
#include "serve/page_cache.h"
#include "util/status.h"

namespace ceres::serve {

struct ShardedServiceConfig {
  /// Shard count; each shard is an independent ModelRegistry +
  /// ExtractionService pair. Must be >= 1.
  int num_shards = 2;
  /// Per-shard service configuration (worker pool, queue bounds, batching).
  ExtractionServiceConfig service;
  /// Per-shard model registry configuration. `root_dir` is the base path;
  /// shard i stores models under `<root_dir>/shard-<i>`.
  ModelRegistryConfig registry;
  /// The near-duplicate page cache fronting all shards.
  PageCacheConfig cache;
};

/// The shards' request and registry counters, each summed over shards,
/// plus the shared page cache. Requests answered from the near-duplicate
/// cache (never reached a shard) are `cache.hits`.
struct ShardedServiceStats {
  ServiceStats service;
  RegistryStats registry;
  PageCacheStats cache;
};

/// The service tier behind the HTTP front-end: N independent
/// ModelRegistry + ExtractionService pairs, partitioned by site.
///
/// Partitioning uses the stable site hash `dist::ShardOfSite` computes
/// (FNV-1a of the site name modulo shard count — reimplemented here so
/// the serving tier does not link the process-spawning dist library). All requests for one site land on one
/// shard, so each shard's registry warms exactly the models its sites
/// need and per-site batching keeps its locality; distinct shards share
/// nothing and never contend.
///
/// In front of the shards sits a NearDupCache: Submit fingerprints the
/// page and a near-duplicate hit resolves immediately with the cached
/// triples (`diagnostics.near_dup_hit`), skipping parse and inference.
/// Misses are forwarded to the owning shard; the completed result is
/// inserted into the cache by the shard's completion hook, on the worker
/// thread that resolved it, before the future becomes ready. Publishing
/// or invalidating a site's model drops the site's cached extractions in
/// the same call, and a miss submitted before that call cannot insert its
/// result afterwards (the insert carries the cache generation its miss
/// saw, see NearDupCache), so a hot-swap is never served stale results.
class ShardedExtractionService {
 public:
  ShardedExtractionService(Ontology ontology, ShardedServiceConfig config);
  ~ShardedExtractionService();

  ShardedExtractionService(const ShardedExtractionService&) = delete;
  ShardedExtractionService& operator=(const ShardedExtractionService&) =
      delete;

  /// Starts every shard's worker pool.
  Status Start();
  /// Stops every shard (queued work is shed with kShutdown).
  void Stop();

  /// The shard owning `site`: Fnv1a64(site) % num_shards, stable across
  /// runs and processes (matches dist::ShardOfSite).
  size_t ShardOf(std::string_view site) const;

  /// Cache-fronted submit. The returned future resolves immediately for a
  /// near-duplicate hit; otherwise it is the shard's own promise-backed
  /// future (poll-safe: wait_for eventually reports ready) with a
  /// cache-insert completion hook that runs before it becomes ready.
  std::future<ServeResult> Submit(ServeRequest request);

  /// Publishes `model` as the next version for `site` on its owning
  /// shard's registry and invalidates the site's cached extractions.
  Result<int64_t> Publish(const std::string& site,
                          const TrainedModel& model);

  /// Drops the site's warm model and cached extractions; the next request
  /// reloads from the store.
  void Invalidate(const std::string& site);

  int num_shards() const { return config_.num_shards; }
  ModelRegistry* registry(size_t shard) { return shards_[shard]->registry.get(); }
  const ExtractionService& service(size_t shard) const {
    return *shards_[shard]->service;
  }
  NearDupCache& cache() { return cache_; }

  ShardedServiceStats stats() const;

 private:
  struct Shard {
    std::unique_ptr<ModelRegistry> registry;
    std::unique_ptr<ExtractionService> service;
  };

  const ShardedServiceConfig config_;
  NearDupCache cache_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;
};

}  // namespace ceres::serve

#endif  // CERES_SERVE_SHARDED_SERVICE_H_

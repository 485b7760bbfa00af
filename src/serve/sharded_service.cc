#include "serve/sharded_service.h"

#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace ceres::serve {

ShardedExtractionService::ShardedExtractionService(Ontology ontology,
                                                   ShardedServiceConfig config)
    : config_(std::move(config)), cache_(config_.cache) {
  CERES_CHECK_MSG(config_.num_shards >= 1, "num_shards must be >= 1");
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    ModelRegistryConfig registry_config = config_.registry;
    registry_config.root_dir =
        StrCat(config_.registry.root_dir, "/shard-", i);
    shard->registry =
        std::make_unique<ModelRegistry>(ontology, registry_config);
    shard->service = std::make_unique<ExtractionService>(
        shard->registry.get(), config_.service);
    shards_.push_back(std::move(shard));
  }
}

ShardedExtractionService::~ShardedExtractionService() { Stop(); }

Status ShardedExtractionService::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  for (auto& shard : shards_) {
    CERES_RETURN_IF_ERROR(shard->service->Start());
  }
  started_ = true;
  return Status::Ok();
}

void ShardedExtractionService::Stop() {
  for (auto& shard : shards_) shard->service->Stop();
  started_ = false;
}

size_t ShardedExtractionService::ShardOf(std::string_view site) const {
  // Must agree with dist::ShardOfSite — stable FNV-1a, never std::hash.
  return static_cast<size_t>(
      Fnv1a64(site) % static_cast<uint64_t>(config_.num_shards));
}

std::future<ServeResult> ShardedExtractionService::Submit(
    ServeRequest request) {
  const std::string site = request.site;
  const uint64_t fingerprint = NearDupCache::Fingerprint(request.html);
  CachedExtraction cached;
  // A Publish or Invalidate after the miss makes the result stale, and
  // Insert then drops it.
  uint64_t generation = 0;
  if (cache_.Lookup(site, fingerprint, &cached, &generation)) {
    ServeResult result;
    result.status = Status::Ok();
    result.triples = std::move(cached.triples);
    result.diagnostics = cached.diagnostics;
    result.diagnostics.near_dup_hit = true;
    std::promise<ServeResult> promise;
    promise.set_value(std::move(result));
    return promise.get_future();
  }
  // The cache insert rides the shard's completion hook, which runs on the
  // resolving thread strictly before the future becomes ready — exactly
  // once per result, and never lazily. The returned future is the shard's
  // own promise-backed future: wait_for/wait_until work (a deferred
  // std::async future reports future_status::deferred forever), and the
  // hook's `this` capture lives only inside the shard service, which this
  // object owns and stops before the cache is destroyed — an unconsumed
  // future outliving *this cannot dangle.
  return shards_[ShardOf(site)]->service->Submit(
      std::move(request),
      [this, site, fingerprint, generation](const ServeResult& result) {
        if (result.status.ok() && !result.diagnostics.near_dup_hit) {
          CachedExtraction entry;
          entry.triples = result.triples;
          entry.diagnostics = result.diagnostics;
          cache_.Insert(site, fingerprint, std::move(entry), generation);
        }
      });
}

Result<int64_t> ShardedExtractionService::Publish(const std::string& site,
                                                  const TrainedModel& model) {
  Result<int64_t> version =
      shards_[ShardOf(site)]->registry->Publish(site, model);
  // Even a failed publish may have changed the store; dropping cached
  // extractions is always safe, serving stale ones is not.
  cache_.InvalidateSite(site);
  return version;
}

void ShardedExtractionService::Invalidate(const std::string& site) {
  shards_[ShardOf(site)]->registry->Invalidate(site);
  cache_.InvalidateSite(site);
}

ShardedServiceStats ShardedExtractionService::stats() const {
  ShardedServiceStats out;
  ServiceStats& service = out.service;
  RegistryStats& registry = out.registry;
  for (const auto& shard : shards_) {
    const ServiceStats s = shard->service->stats();
    service.submitted += s.submitted;
    service.completed += s.completed;
    service.extractions += s.extractions;
    service.batches += s.batches;
    service.batched_requests += s.batched_requests;
    for (int cause = 1; cause < kNumShedCauses; ++cause) {
      service.shed[cause] += s.shed[cause];
    }
    const RegistryStats r = shard->registry->stats();
    registry.hits += r.hits;
    registry.misses += r.misses;
    registry.loads += r.loads;
    registry.load_failures += r.load_failures;
    registry.evictions += r.evictions;
    registry.hot_swaps += r.hot_swaps;
    registry.bytes_cached += r.bytes_cached;
    registry.models_cached += r.models_cached;
  }
  out.cache = cache_.stats();
  return out;
}

}  // namespace ceres::serve

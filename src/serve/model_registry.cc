#include "serve/model_registry.h"

#include <utility>

#include "obs/trace.h"
#include "util/string_util.h"

namespace ceres::serve {

namespace {

/// Approximate heap overhead of one string stored in a node-based
/// container (node, hash bucket, small-string buffer).
constexpr size_t kPerStringOverhead = 64;

}  // namespace

size_t EstimateModelBytes(const TrainedModel& model) {
  const size_t classes = static_cast<size_t>(model.model.num_classes());
  const size_t features = static_cast<size_t>(model.model.num_features());
  // Dense weight matrix incl. bias column.
  size_t bytes = classes * (features + 1) * sizeof(double);
  // Feature dictionary: flat id array plus open-addressing probe table.
  bytes += model.features.MemoryBytes();
  for (const std::string& entry : model.frequent_strings) {
    bytes += entry.size() + kPerStringOverhead;
  }
  return bytes;
}

SiteModel::SiteModel(std::string site_in, int64_t version_in,
                     TrainedModel model_in)
    : site(std::move(site_in)),
      version(version_in),
      model(std::move(model_in)),
      featurizer(MakeFeaturizer(model)) {
  bytes = EstimateModelBytes(model);
}

ModelRegistry::ModelRegistry(Ontology ontology, ModelRegistryConfig config)
    : ontology_(std::move(ontology)), config_(std::move(config)) {}

Result<std::shared_ptr<const SiteModel>> ModelRegistry::Get(
    const std::string& site, bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  std::shared_ptr<InflightLoad> load;
  {
    UniqueMutexLock lock(mu_);
    auto it = cache_.find(site);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_position);
      ++stats_.hits;
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second.model;
    }
    ++stats_.misses;
    auto in = inflight_.find(site);
    if (in != inflight_.end()) {
      // Another thread is already loading this site; ride its result.
      load = in->second;
      ++load->waiters;
      load->done.wait(lock, [&load] { return load->finished; });
      --load->waiters;
      return load->result;
    }
    load = std::make_shared<InflightLoad>();
    inflight_[site] = load;
  }

  // Disk load and featurizer rebuild happen outside the lock, so distinct
  // cold sites load concurrently and warm hits never wait on a load.
  int64_t version = -1;
  const obs::TimePoint load_start = obs::MonotonicNow();
  Result<TrainedModel> trained =
      LoadLatestModel(config_.root_dir, site, ontology_, &version);
  load_us_.Record(
      obs::ElapsedMicros(load_start, obs::MonotonicNow()).count());
  Result<std::shared_ptr<const SiteModel>> result =
      Status::Internal("unreachable");
  if (trained.ok()) {
    result = std::shared_ptr<const SiteModel>(std::make_shared<SiteModel>(
        site, version, std::move(trained).value()));
  } else {
    result = PrependContext(trained.status(), StrCat("loading model ", site));
  }

  {
    MutexLock lock(mu_);
    if (result.ok()) {
      ++stats_.loads;
      InstallLocked(site, result.value());
    } else {
      ++stats_.load_failures;
    }
    load->result = result;
    load->finished = true;
    inflight_.erase(site);
  }
  load->done.notify_all();
  return result;
}

Result<int64_t> ModelRegistry::Publish(const std::string& site,
                                       const TrainedModel& model) {
  CERES_ASSIGN_OR_RETURN(
      int64_t version,
      SaveModelVersion(config_.root_dir, site, model, ontology_),
      StrCat("publishing model ", site));
  auto site_model = std::make_shared<SiteModel>(site, version, model);
  MutexLock lock(mu_);
  if (cache_.count(site) > 0) ++stats_.hot_swaps;
  InstallLocked(site, std::move(site_model));
  return version;
}

void ModelRegistry::Invalidate(const std::string& site) {
  MutexLock lock(mu_);
  auto it = cache_.find(site);
  if (it == cache_.end()) return;
  stats_.bytes_cached -= it->second.model->bytes;
  --stats_.models_cached;
  lru_.erase(it->second.lru_position);
  cache_.erase(it);
}

RegistryStats ModelRegistry::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void ModelRegistry::InstallLocked(const std::string& site,
                                  std::shared_ptr<const SiteModel> model) {
  auto it = cache_.find(site);
  if (it != cache_.end()) {
    // Never step a published entry backwards: a racing cold load must not
    // overwrite the newer model a concurrent Publish just installed.
    if (it->second.model->version >= model->version) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_position);
      return;
    }
    stats_.bytes_cached -= it->second.model->bytes;
    stats_.bytes_cached += model->bytes;
    it->second.model = std::move(model);
    lru_.splice(lru_.begin(), lru_, it->second.lru_position);
  } else {
    lru_.push_front(site);
    stats_.bytes_cached += model->bytes;
    ++stats_.models_cached;
    cache_.emplace(site, CacheEntry{std::move(model), lru_.begin()});
  }
  EvictOverBudgetLocked(site);
}

void ModelRegistry::EvictOverBudgetLocked(const std::string& keep) {
  while (stats_.bytes_cached > config_.byte_budget && !lru_.empty()) {
    const std::string& victim = lru_.back();
    if (victim == keep) break;  // the fresh entry survives its own insert
    auto it = cache_.find(victim);
    stats_.bytes_cached -= it->second.model->bytes;
    --stats_.models_cached;
    ++stats_.evictions;
    cache_.erase(it);
    lru_.pop_back();
  }
}

}  // namespace ceres::serve

#ifndef CERES_SERVE_MODEL_REGISTRY_H_
#define CERES_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/features.h"
#include "core/model_io.h"
#include "core/training.h"
#include "kb/ontology.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/sync.h"

namespace ceres::serve {

/// A trained per-site extractor, resident in memory and ready to apply:
/// the persisted TrainedModel plus the featurizer rebuilt from its lexicon.
/// Immutable once constructed — the feature map is frozen, so concurrent
/// extraction through a shared SiteModel is safe. Handed out as
/// shared_ptr so a hot-swap or eviction never invalidates an extraction
/// already in flight.
struct SiteModel {
  std::string site;
  int64_t version = -1;
  /// Estimated resident size, charged against the cache byte budget.
  size_t bytes = 0;
  TrainedModel model;
  FeatureExtractor featurizer;

  /// Rebuilds the featurizer and fills in the byte estimate.
  SiteModel(std::string site_in, int64_t version_in, TrainedModel model_in);
};

/// Rough resident-memory estimate of a trained model (weight matrix,
/// feature dictionary, lexicon). Used for byte-budget cache accounting;
/// exactness is not required, proportionality across models is.
size_t EstimateModelBytes(const TrainedModel& model);

struct ModelRegistryConfig {
  /// Root of the versioned on-disk model store (core/model_io.h layout:
  /// <root>/<site>/<version>.model + CURRENT).
  std::string root_dir;
  /// Warm-cache budget. When the resident set exceeds it, least-recently
  /// used site models are dropped (in-flight extractions keep theirs alive
  /// through the shared_ptr). A single model larger than the budget is
  /// still served — it just gets evicted by the next insertion.
  size_t byte_budget = size_t{256} << 20;
};

/// Cache and load-path counters. `bytes_cached` / `models_cached` are the
/// current resident set; the rest are monotonic since construction.
struct RegistryStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t loads = 0;
  int64_t load_failures = 0;
  int64_t evictions = 0;
  int64_t hot_swaps = 0;
  size_t bytes_cached = 0;
  int64_t models_cached = 0;
};

/// Thread-safe registry of per-site extractor models for the online serve
/// path.
///
/// `Get(site)` returns the warm cached model or loads the site's CURRENT
/// version from the store. Concurrent Gets of the same cold site are
/// deduplicated: one caller performs the disk load while the others wait
/// on it, and distinct sites load in parallel (the disk parse happens
/// outside the registry lock). Failed loads are NOT negatively cached —
/// a retrain can publish a good model at any moment, so every request for
/// a broken site re-attempts the load and reports the typed error.
///
/// `Publish(site, model)` persists a new version through the store's
/// atomic rename protocol and hot-swaps the cache entry in the same
/// critical section, so readers see either the old model or the new one,
/// never a mixture; extractions already running on the old version finish
/// on it.
class ModelRegistry {
 public:
  ModelRegistry(Ontology ontology, ModelRegistryConfig config);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The warm model for `site`, loading on miss. `cache_hit` (optional)
  /// reports whether this call was served from the warm cache.
  Result<std::shared_ptr<const SiteModel>> Get(const std::string& site,
                                               bool* cache_hit = nullptr);

  /// Saves `model` as the next version of `site` and atomically installs
  /// it as the warm entry. Returns the version assigned.
  Result<int64_t> Publish(const std::string& site, const TrainedModel& model);

  /// Drops the warm entry (e.g. after an external writer updated the
  /// store); the next Get reloads from disk.
  void Invalidate(const std::string& site);

  RegistryStats stats() const;

  /// Microseconds per disk load (failed loads included), one sample per
  /// load this registry performed.
  const obs::Histogram& load_us() const { return load_us_; }

 private:
  struct InflightLoad {
    /// Signalled (under mu_) when the owning load finishes; fields below
    /// are guarded by the registry's mu_, not a per-load mutex.
    CondVar done;
    bool finished = false;
    Result<std::shared_ptr<const SiteModel>> result{
        Status::Internal("load not finished")};
    int waiters = 0;
  };

  struct CacheEntry {
    std::shared_ptr<const SiteModel> model;
    std::list<std::string>::iterator lru_position;
  };

  /// Inserts (or replaces) `site` -> `model` and evicts LRU entries over
  /// budget. Never evicts the entry just inserted.
  void InstallLocked(const std::string& site,
                     std::shared_ptr<const SiteModel> model)
      CERES_REQUIRES(mu_);
  void EvictOverBudgetLocked(const std::string& keep) CERES_REQUIRES(mu_);

  const Ontology ontology_;
  const ModelRegistryConfig config_;

  mutable CheckedMutex mu_{"ModelRegistry.mu"};
  /// Most-recently used at the front.
  std::list<std::string> lru_ CERES_GUARDED_BY(mu_);
  std::unordered_map<std::string, CacheEntry> cache_ CERES_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_ptr<InflightLoad>> inflight_
      CERES_GUARDED_BY(mu_);
  RegistryStats stats_ CERES_GUARDED_BY(mu_);
  obs::Histogram load_us_{obs::LatencyBucketsUs()};
};

}  // namespace ceres::serve

#endif  // CERES_SERVE_MODEL_REGISTRY_H_

#ifndef CERES_SERVE_PAGE_CACHE_H_
#define CERES_SERVE_PAGE_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "serve/serve_diagnostics.h"
#include "util/simhash.h"
#include "util/status.h"
#include "util/sync.h"

namespace ceres::serve {

/// Configuration of the near-duplicate page cache.
struct PageCacheConfig {
  /// Master switch; a disabled cache never hits and never stores.
  bool enabled = true;
  /// Byte budget for resident entries (site keys + triples). LRU entries
  /// are evicted when the resident estimate exceeds it.
  size_t max_bytes = size_t{32} << 20;
  /// Two fingerprints within this Hamming distance are near-duplicates.
  /// 0 requires identical fingerprints; 64 would match anything.
  int hamming_threshold = 3;
};

/// Monotonic counters plus the current resident set. The counters keep
/// the identity `insertions == entries + evictions + invalidations`: an
/// exact-fingerprint refresh counts as one insertion plus one eviction
/// (of the payload it replaced), and Clear counts its drops as
/// invalidations. A result Insert drops as stale is not an insertion.
struct PageCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t invalidations = 0;
  size_t entries = 0;
  size_t bytes = 0;
};

/// The cached outcome of one extraction: the triples plus the diagnostics
/// of the request that produced them.
struct CachedExtraction {
  std::vector<Extraction> triples;
  ServeDiagnostics diagnostics;
};

/// A near-duplicate page cache keyed by (site, simhash fingerprint).
///
/// Crawled sites re-serve the same detail page with trivial churn — view
/// counters, ad markup, timestamp footers — and re-crawls hand the serving
/// tier near-identical HTML over and over. Parsing and model inference on
/// such a page reproduces the extractions of its near-twin, so the serving
/// tier fingerprints every page with a 64-bit simhash (util/simhash.h) and
/// remembers recent extraction results: a lookup whose fingerprint lies
/// within `hamming_threshold` bits of a cached page of the same site is
/// served from the cache, skipping parse and inference entirely.
///
/// Scoping by site keeps the Hamming scan short (a linear probe of the
/// site's resident fingerprints) and makes invalidation natural: when a
/// site's model is republished or invalidated, its cached extractions are
/// stale — InvalidateSite drops exactly them. It also advances the cache's
/// generation, which a missing Lookup reports, so that a request in flight
/// across the call cannot put its result back: Insert drops a result whose
/// miss saw an older generation. The generation is cache-wide, so a
/// publish also drops in-flight results of other sites; those requests
/// simply miss once more.
/// Eviction is global LRU under a byte budget, charging each entry its
/// triples' string bytes plus fixed overhead. Thread-safe; every operation
/// is one short critical section.
class NearDupCache {
 public:
  explicit NearDupCache(PageCacheConfig config = {});

  NearDupCache(const NearDupCache&) = delete;
  NearDupCache& operator=(const NearDupCache&) = delete;

  /// The fingerprint Lookup/Insert expect for `html`: Simhash64(html).
  static uint64_t Fingerprint(std::string_view html);

  /// True (and fills `out`) when a near-duplicate of `fingerprint` is
  /// resident for `site`; refreshes that entry's LRU position. On a miss,
  /// stores the cache's generation in `*generation` (when given) for the
  /// Insert of the result computed instead.
  bool Lookup(const std::string& site, uint64_t fingerprint,
              CachedExtraction* out, uint64_t* generation = nullptr);

  /// Stores `result` under (site, fingerprint), unless the cache was
  /// invalidated since the miss that reported `generation` (the default
  /// is never stale). An exact-fingerprint match already resident for the
  /// site is refreshed in place (latest result wins); near-but-not-
  /// identical twins are stored separately so the threshold keeps
  /// matching future variants of either.
  void Insert(const std::string& site, uint64_t fingerprint,
              CachedExtraction result,
              uint64_t generation = UINT64_MAX);

  /// Drops every entry of `site` (model republished / invalidated) and
  /// advances the generation.
  void InvalidateSite(const std::string& site);

  /// Drops every entry and advances the generation.
  void Clear();

  PageCacheStats stats() const;
  const PageCacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::string site;
    uint64_t fingerprint = 0;
    size_t bytes = 0;
    CachedExtraction result;
  };
  using EntryList = std::list<Entry>;

  static size_t EntryBytes(const std::string& site,
                           const CachedExtraction& result);
  void EvictOverBudgetLocked() CERES_REQUIRES(mu_);
  void EraseFromSiteIndexLocked(EntryList::iterator it) CERES_REQUIRES(mu_);

  const PageCacheConfig config_;

  mutable CheckedMutex mu_{"NearDupCache.mu"};
  /// Most-recently used at the front.
  EntryList lru_ CERES_GUARDED_BY(mu_);
  /// Per-site resident entries, the Hamming scan set for a lookup.
  std::unordered_map<std::string, std::vector<EntryList::iterator>> by_site_
      CERES_GUARDED_BY(mu_);
  size_t bytes_ CERES_GUARDED_BY(mu_) = 0;
  uint64_t generation_ CERES_GUARDED_BY(mu_) = 0;
  PageCacheStats stats_ CERES_GUARDED_BY(mu_);
};

}  // namespace ceres::serve

#endif  // CERES_SERVE_PAGE_CACHE_H_

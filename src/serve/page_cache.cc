#include "serve/page_cache.h"

#include <algorithm>
#include <utility>

namespace ceres::serve {

NearDupCache::NearDupCache(PageCacheConfig config)
    : config_(std::move(config)) {}

uint64_t NearDupCache::Fingerprint(std::string_view html) {
  return Simhash64(html);
}

size_t NearDupCache::EntryBytes(const std::string& site,
                                const CachedExtraction& result) {
  // Fixed overhead per entry: list node, site-index slot, bookkeeping.
  // The diagnostics payload is cached (and replayed on hits) too, so it
  // counts against the byte budget like everything else.
  size_t bytes = 128 + site.size() + sizeof(result.diagnostics);
  for (const Extraction& triple : result.triples) {
    bytes += sizeof(Extraction) + triple.subject.size() +
             triple.object.size();
  }
  return bytes;
}

bool NearDupCache::Lookup(const std::string& site, uint64_t fingerprint,
                          CachedExtraction* out, uint64_t* generation) {
  if (!config_.enabled) return false;
  MutexLock lock(mu_);
  auto site_it = by_site_.find(site);
  if (site_it != by_site_.end()) {
    for (EntryList::iterator entry : site_it->second) {
      if (HammingDistance(entry->fingerprint, fingerprint) <=
          config_.hamming_threshold) {
        lru_.splice(lru_.begin(), lru_, entry);
        ++stats_.hits;
        *out = entry->result;
        return true;
      }
    }
  }
  ++stats_.misses;
  if (generation != nullptr) *generation = generation_;
  return false;
}

void NearDupCache::Insert(const std::string& site, uint64_t fingerprint,
                          CachedExtraction result, uint64_t generation) {
  if (!config_.enabled) return;
  MutexLock lock(mu_);
  if (generation < generation_) return;
  auto site_it = by_site_.find(site);
  if (site_it != by_site_.end()) {
    for (EntryList::iterator entry : site_it->second) {
      if (entry->fingerprint == fingerprint) {
        // Refresh in place: latest extraction of this exact page wins.
        // Accounting-wise this is an insertion that evicts the payload it
        // replaces, keeping the identity
        //   insertions == entries + evictions + invalidations
        // intact (a plain refresh without the pair would leave an entry
        // no insertion ever claimed to produce).
        bytes_ -= entry->bytes;
        entry->bytes = EntryBytes(site, result);
        entry->result = std::move(result);
        bytes_ += entry->bytes;
        lru_.splice(lru_.begin(), lru_, entry);
        ++stats_.insertions;
        ++stats_.evictions;
        EvictOverBudgetLocked();
        return;
      }
    }
  }
  Entry entry;
  entry.site = site;
  entry.fingerprint = fingerprint;
  entry.bytes = EntryBytes(site, result);
  entry.result = std::move(result);
  bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  by_site_[site].push_back(lru_.begin());
  ++stats_.insertions;
  EvictOverBudgetLocked();
}

void NearDupCache::EraseFromSiteIndexLocked(EntryList::iterator it) {
  auto site_it = by_site_.find(it->site);
  if (site_it == by_site_.end()) return;
  auto& entries = site_it->second;
  entries.erase(std::remove(entries.begin(), entries.end(), it),
                entries.end());
  if (entries.empty()) by_site_.erase(site_it);
}

void NearDupCache::EvictOverBudgetLocked() {
  while (bytes_ > config_.max_bytes && !lru_.empty()) {
    EntryList::iterator victim = std::prev(lru_.end());
    bytes_ -= victim->bytes;
    EraseFromSiteIndexLocked(victim);
    lru_.erase(victim);
    ++stats_.evictions;
  }
}

void NearDupCache::InvalidateSite(const std::string& site) {
  MutexLock lock(mu_);
  ++generation_;
  auto site_it = by_site_.find(site);
  if (site_it == by_site_.end()) return;
  for (EntryList::iterator entry : site_it->second) {
    bytes_ -= entry->bytes;
    lru_.erase(entry);
    ++stats_.invalidations;
  }
  by_site_.erase(site_it);
}

void NearDupCache::Clear() {
  MutexLock lock(mu_);
  stats_.invalidations += static_cast<int64_t>(lru_.size());
  ++generation_;
  lru_.clear();
  by_site_.clear();
  bytes_ = 0;
}

PageCacheStats NearDupCache::stats() const {
  MutexLock lock(mu_);
  PageCacheStats out = stats_;
  out.entries = lru_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace ceres::serve

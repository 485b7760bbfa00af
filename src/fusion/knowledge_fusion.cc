#include "fusion/knowledge_fusion.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

#include "text/normalize.h"

namespace ceres::fusion {

namespace {

// Per-extraction confidences below this are ignored entirely.
constexpr double kMinExtractionConfidence = 0.5;

// Initial reliability assumed for every site.
constexpr double kInitialSiteReliability = 0.8;
// Reliability is clamped into [floor, ceiling] so no site is treated as
// perfect or as pure noise.
constexpr double kReliabilityFloor = 0.05;
constexpr double kReliabilityCeiling = 0.95;

// Canonical key of a triple across sites: normalized subject (with a
// trailing year stripped, so "Film (1989)" and "Film" merge), predicate,
// normalized object.
using TripleKey = std::tuple<std::string, PredicateId, std::string>;

struct Support {
  // Best extraction confidence per supporting site.
  std::map<std::string, double> site_confidence;
};

std::string CanonicalSubject(const std::string& raw) {
  return StripTrailingYear(NormalizeText(raw));
}

// Reliability-weighted noisy-or: each supporting site contributes
// p = reliability * extraction confidence; belief = 1 - prod(1 - p).
double Belief(const Support& support,
              const std::unordered_map<std::string, double>& reliability) {
  double miss = 1.0;
  for (const auto& [site, confidence] : support.site_confidence) {
    auto it = reliability.find(site);
    double r = it == reliability.end() ? 0.5 : it->second;
    miss *= 1.0 - r * confidence;
  }
  return 1.0 - miss;
}

}  // namespace

FusionResult FuseExtractions(const std::vector<SiteExtractions>& sites,
                             const Ontology& ontology,
                             const FusionConfig& config) {
  FusionResult result;

  // 1. Normalize and collect support.
  std::map<TripleKey, Support> support;
  std::unordered_map<std::string, double> reliability;
  for (const SiteExtractions& site : sites) {
    reliability.emplace(site.site, kInitialSiteReliability);
    for (const Extraction& extraction : site.extractions) {
      if (extraction.predicate == kNamePredicate) continue;
      if (extraction.confidence < kMinExtractionConfidence) continue;
      TripleKey key{CanonicalSubject(extraction.subject),
                    extraction.predicate,
                    NormalizeText(extraction.object)};
      if (std::get<0>(key).empty() || std::get<2>(key).empty()) continue;
      double& best = support[key].site_confidence[site.site];
      best = std::max(best, extraction.confidence);
    }
  }

  // 2. Alternate triple-belief and site-reliability updates. Each
  // iteration refines the estimate.
  for (int iteration = 0; iteration < config.reliability_iterations;
       ++iteration) {
    std::unordered_map<std::string, double> belief_sum;
    std::unordered_map<std::string, int64_t> belief_count;
    for (const auto& [key, sup] : support) {
      double belief = Belief(sup, reliability);
      for (const auto& [site, confidence] : sup.site_confidence) {
        belief_sum[site] += belief;
        ++belief_count[site];
      }
    }
    for (auto& [site, r] : reliability) {
      auto count_it = belief_count.find(site);
      if (count_it == belief_count.end() || count_it->second == 0) continue;
      double mean = belief_sum[site] / static_cast<double>(count_it->second);
      r = std::clamp(mean, kReliabilityFloor, kReliabilityCeiling);
    }
  }

  // 3. Score triples.
  result.triples.reserve(support.size());
  for (const auto& [key, sup] : support) {
    FusedTriple triple;
    triple.subject = std::get<0>(key);
    triple.predicate = std::get<1>(key);
    triple.object = std::get<2>(key);
    triple.score = Belief(sup, reliability);
    for (const auto& [site, confidence] : sup.site_confidence) {
      triple.sites.push_back(site);
    }
    result.triples.push_back(std::move(triple));
  }

  // 4. Functional-predicate conflict resolution: keep the best object per
  // (subject, predicate); drop the rest.
  std::map<std::pair<std::string, PredicateId>, const FusedTriple*> winner;
  for (const FusedTriple& triple : result.triples) {
    if (ontology.predicate(triple.predicate).multi_valued) continue;
    auto key = std::make_pair(triple.subject, triple.predicate);
    auto it = winner.find(key);
    if (it == winner.end() || triple.score > it->second->score) {
      winner[key] = &triple;
    }
  }
  std::vector<FusedTriple> resolved;
  resolved.reserve(result.triples.size());
  for (FusedTriple& triple : result.triples) {
    if (!ontology.predicate(triple.predicate).multi_valued) {
      auto key = std::make_pair(triple.subject, triple.predicate);
      if (winner.at(key) != &triple) continue;
    }
    resolved.push_back(std::move(triple));
  }
  result.triples = std::move(resolved);

  std::sort(result.triples.begin(), result.triples.end(),
            [](const FusedTriple& a, const FusedTriple& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.subject != b.subject) return a.subject < b.subject;
              if (a.predicate != b.predicate) return a.predicate < b.predicate;
              return a.object < b.object;
            });

  result.sites.reserve(reliability.size());
  std::unordered_map<std::string, int64_t> triple_counts;
  for (const FusedTriple& triple : result.triples) {
    for (const std::string& site : triple.sites) ++triple_counts[site];
  }
  // A site name may appear in several SiteExtractions entries (e.g. two
  // crawl shards of one site); its extractions were already pooled above,
  // so report it once — a row per entry would double-count triple_count
  // in any sum over result.sites.
  std::set<std::string> reported;
  for (const SiteExtractions& site : sites) {
    if (!reported.insert(site.site).second) continue;
    result.sites.push_back(SiteReliability{
        site.site, reliability.at(site.site), triple_counts[site.site]});
  }
  return result;
}

KnowledgeBase BuildKbFromFusedTriples(const FusionResult& fused,
                                      const Ontology& ontology,
                                      double min_score) {
  KnowledgeBase kb(ontology);
  std::map<std::pair<TypeId, std::string>, EntityId> entities;
  auto intern = [&](TypeId type, const std::string& name) {
    auto key = std::make_pair(type, name);
    auto it = entities.find(key);
    if (it != entities.end()) return it->second;
    EntityId id = kb.AddEntity(type, name);
    entities.emplace(key, id);
    return id;
  };
  for (const FusedTriple& triple : fused.triples) {
    if (triple.score < min_score) continue;
    const PredicateDecl& predicate = ontology.predicate(triple.predicate);
    EntityId subject = intern(predicate.subject_type, triple.subject);
    EntityId object = intern(predicate.object_type, triple.object);
    kb.AddTriple(subject, triple.predicate, object);
  }
  kb.Freeze();
  return kb;
}

}  // namespace ceres::fusion

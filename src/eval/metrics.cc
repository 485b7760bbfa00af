#include "eval/metrics.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "text/normalize.h"

namespace ceres::eval {

namespace {

// Applies the page filter; empty filter means "all pages".
std::unordered_set<PageIndex> PageFilter(const std::vector<PageIndex>& pages,
                                         size_t num_pages) {
  std::unordered_set<PageIndex> out;
  if (pages.empty()) {
    for (size_t i = 0; i < num_pages; ++i) {
      out.insert(static_cast<PageIndex>(i));
    }
  } else {
    out.insert(pages.begin(), pages.end());
  }
  return out;
}

std::unordered_set<PredicateId> PredicateFilter(
    const std::vector<PredicateId>& predicates) {
  return {predicates.begin(), predicates.end()};
}

bool Allowed(const std::unordered_set<PredicateId>& filter,
             PredicateId predicate) {
  return filter.empty() || filter.count(predicate) > 0;
}

}  // namespace

bool SubjectMatchesTruth(const Extraction& extraction,
                         const PageTruth& truth) {
  std::string subject = NormalizeText(extraction.subject);
  std::string topic = NormalizeText(truth.topic_name);
  if (subject == topic) return true;
  return StripTrailingYear(subject) == topic;
}

namespace {
bool SubjectMatches(const Extraction& extraction, const PageTruth& truth) {
  return SubjectMatchesTruth(extraction, truth);
}
}  // namespace

bool PageTruth::Asserts(NodeId node, PredicateId predicate) const {
  for (const Fact& fact : facts) {
    if (fact.node == node && fact.predicate == predicate) return true;
  }
  return false;
}


std::map<PredicateId, Prf> ScoreExtractionsByPredicate(
    const std::vector<Extraction>& extractions, const SiteTruth& truth,
    const ScoreOptions& options) {
  const auto pages = PageFilter(options.pages, truth.pages.size());
  const auto predicates = PredicateFilter(options.predicates);
  std::map<PredicateId, Prf> out;

  // True-positive keys for recall accounting.
  std::set<std::tuple<PageIndex, NodeId, PredicateId>> correct;

  for (const Extraction& extraction : extractions) {
    if (extraction.confidence < options.confidence_threshold) continue;
    if (pages.count(extraction.page) == 0) continue;
    if (!Allowed(predicates, extraction.predicate)) continue;
    const PageTruth& page_truth =
        truth.pages[static_cast<size_t>(extraction.page)];
    const bool ok =
        page_truth.Asserts(extraction.node, extraction.predicate) &&
        SubjectMatches(extraction, page_truth);
    if (ok) {
      // A repeated extraction of the same (page, node, predicate) is not
      // new evidence: count the key once or precision inflates with
      // duplicate emissions.
      if (correct
              .emplace(extraction.page, extraction.node, extraction.predicate)
              .second) {
        ++out[extraction.predicate].tp;
      }
    } else {
      ++out[extraction.predicate].fp;
    }
  }
  for (PageIndex page : pages) {
    const PageTruth& page_truth = truth.pages[static_cast<size_t>(page)];
    for (const PageTruth::Fact& fact : page_truth.facts) {
      if (!Allowed(predicates, fact.predicate)) continue;
      if (correct.count({page, fact.node, fact.predicate}) == 0) {
        ++out[fact.predicate].fn;
      }
    }
  }
  return out;
}

Prf ScoreExtractions(const std::vector<Extraction>& extractions,
                     const SiteTruth& truth, const ScoreOptions& options) {
  Prf total;
  for (const auto& [predicate, prf] :
       ScoreExtractionsByPredicate(extractions, truth, options)) {
    total += prf;
  }
  return total;
}

Prf ScorePageHits(const std::vector<Extraction>& extractions,
                  const SiteTruth& truth, const ScoreOptions& options) {
  const auto pages = PageFilter(options.pages, truth.pages.size());
  const auto predicates = PredicateFilter(options.predicates);

  // Best extraction per (page, predicate).
  std::map<std::pair<PageIndex, PredicateId>, const Extraction*> best;
  for (const Extraction& extraction : extractions) {
    if (extraction.confidence < options.confidence_threshold) continue;
    if (pages.count(extraction.page) == 0) continue;
    if (!Allowed(predicates, extraction.predicate)) continue;
    auto key = std::make_pair(extraction.page, extraction.predicate);
    auto it = best.find(key);
    if (it == best.end() || extraction.confidence > it->second->confidence) {
      best[key] = &extraction;
    }
  }

  Prf prf;
  std::set<std::pair<PageIndex, PredicateId>> hit_keys;
  for (const auto& [key, extraction] : best) {
    const PageTruth& page_truth = truth.pages[static_cast<size_t>(key.first)];
    const bool ok =
        page_truth.Asserts(extraction->node, extraction->predicate) &&
        SubjectMatches(*extraction, page_truth);
    if (ok) {
      ++prf.tp;
      hit_keys.insert(key);
    } else {
      ++prf.fp;
    }
  }
  for (PageIndex page : pages) {
    const PageTruth& page_truth = truth.pages[static_cast<size_t>(page)];
    std::set<PredicateId> asserted;
    for (const PageTruth::Fact& fact : page_truth.facts) {
      if (Allowed(predicates, fact.predicate)) {
        asserted.insert(fact.predicate);
      }
    }
    for (PredicateId predicate : asserted) {
      if (hit_keys.count({page, predicate}) == 0) ++prf.fn;
    }
  }
  return prf;
}

namespace {

// True when (topic, predicate, object) is present in the seed KB, matching
// entities by surface name.
bool InSeedKb(const KnowledgeBase& seed_kb, const std::string& topic_name,
              PredicateId predicate, const std::string& object_text) {
  for (EntityId subject : seed_kb.MatchMentions(topic_name)) {
    for (EntityId object : seed_kb.MatchMentions(object_text)) {
      if (seed_kb.HasTriple(subject, predicate, object)) return true;
    }
  }
  return false;
}

}  // namespace

std::map<PredicateId, Prf> ScoreAnnotationsByPredicate(
    const std::vector<Annotation>& annotations, const SiteTruth& truth,
    const KnowledgeBase& seed_kb, const std::vector<PageIndex>& pages_in) {
  const auto pages = PageFilter(pages_in, truth.pages.size());
  std::map<PredicateId, Prf> out;
  std::set<std::tuple<PageIndex, NodeId, PredicateId>> correct;
  for (const Annotation& annotation : annotations) {
    if (pages.count(annotation.page) == 0) continue;
    const PageTruth& page_truth =
        truth.pages[static_cast<size_t>(annotation.page)];
    if (page_truth.Asserts(annotation.node, annotation.predicate)) {
      // Same duplicate guard as ScoreExtractionsByPredicate: repeated
      // annotations of one (page, node, predicate) count a single TP.
      if (correct
              .emplace(annotation.page, annotation.node, annotation.predicate)
              .second) {
        ++out[annotation.predicate].tp;
      }
    } else {
      ++out[annotation.predicate].fp;
    }
  }
  // Recall denominator: asserted facts that the seed KB knows (annotatable).
  for (PageIndex page : pages) {
    const PageTruth& page_truth = truth.pages[static_cast<size_t>(page)];
    if (page_truth.topic == kInvalidEntity) continue;
    for (const PageTruth::Fact& fact : page_truth.facts) {
      if (fact.predicate == kNamePredicate) continue;
      if (correct.count({page, fact.node, fact.predicate}) > 0) continue;
      if (InSeedKb(seed_kb, page_truth.topic_name, fact.predicate,
                   fact.object_text)) {
        ++out[fact.predicate].fn;
      }
    }
  }
  return out;
}

Prf ScoreAnnotations(const std::vector<Annotation>& annotations,
                     const SiteTruth& truth, const KnowledgeBase& seed_kb,
                     const std::vector<PageIndex>& pages) {
  Prf total;
  for (const auto& [predicate, prf] : ScoreAnnotationsByPredicate(
           annotations, truth, seed_kb, pages)) {
    if (predicate == kNamePredicate) continue;
    total += prf;
  }
  return total;
}

Prf ScoreTopics(const std::vector<EntityId>& predicted_topic,
                const SiteTruth& truth, const KnowledgeBase& seed_kb,
                const std::vector<PageIndex>& pages_in) {
  const auto pages = PageFilter(pages_in, truth.pages.size());
  Prf prf;
  for (PageIndex page : pages) {
    const PageTruth& page_truth = truth.pages[static_cast<size_t>(page)];
    // Callers may pass a prediction vector covering only a prefix of the
    // site's pages (e.g. a partial run); a missing entry means "no topic
    // identified", not an out-of-bounds read.
    const EntityId predicted =
        static_cast<size_t>(page) < predicted_topic.size()
            ? predicted_topic[static_cast<size_t>(page)]
            : kInvalidEntity;
    const bool has_truth =
        page_truth.topic != kInvalidEntity &&
        !seed_kb.MatchMentions(page_truth.topic_name).empty();
    if (predicted == kInvalidEntity) {
      if (has_truth) ++prf.fn;
      continue;
    }
    const bool correct =
        page_truth.topic != kInvalidEntity &&
        NormalizeText(seed_kb.entity(predicted).name) ==
            NormalizeText(page_truth.topic_name);
    if (correct) {
      ++prf.tp;
    } else {
      ++prf.fp;
      if (has_truth) ++prf.fn;
    }
  }
  return prf;
}

}  // namespace ceres::eval

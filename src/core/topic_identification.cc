#include "core/topic_identification.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "text/jaccard.h"
#include "text/normalize.h"
#include "util/logging.h"

namespace ceres {

namespace {

// Strings appearing in at least this fraction of KB triples are never topic
// candidates (§3.1.1, "e.g., 0.01%").
constexpr double kCommonStringFraction = 0.0001;

// Uniqueness filter: a candidate chosen as the local topic of at least this
// many pages is discarded (§3.1.2 step 1, "e.g., >= 5 pages").
constexpr int kMaxPagesPerTopic = 5;

// Score map for one page: topic candidate -> Jaccard score (Equation 1).
using CandidateScores = std::unordered_map<EntityId, double>;

// Memo of IsTopicCandidate over the run's pages: eligibility is
// page-independent, and the same entity appears in many pages' pageSets, so
// normalizing its name once per run (not once per page) matters.
using EligibilityCache = std::unordered_map<EntityId, bool>;

// True if `entity` may be considered a topic candidate at all.
bool IsTopicCandidate(const KnowledgeBase& kb, EntityId entity,
                      const std::unordered_set<std::string>& common_strings,
                      EligibilityCache* cache) {
  auto it = cache->find(entity);
  if (it != cache->end()) return it->second;
  const Entity& record = kb.entity(entity);
  const bool eligible =
      !kb.ontology().entity_type(record.type).is_literal &&
      common_strings.count(NormalizeText(record.name)) == 0;
  (*cache)[entity] = eligible;
  return eligible;
}

// ScoreEntitiesForPage of Algorithm 1: Jaccard between the page's entity
// set and each candidate's KB object set.
CandidateScores ScoreEntitiesForPage(
    const PageMentions& mentions, const KnowledgeBase& kb,
    const std::unordered_set<std::string>& common_strings,
    EligibilityCache* eligibility) {
  CandidateScores scores;
  for (EntityId entity : mentions.page_set) {
    if (!IsTopicCandidate(kb, entity, common_strings, eligibility)) continue;
    double score =
        JaccardSimilarity(mentions.page_set, kb.ObjectsOfSubject(entity));
    if (score > 0) scores[entity] = score;
  }
  return scores;
}

// Deterministic argmax: highest score, ties broken toward the smaller id.
EntityId BestCandidate(const CandidateScores& scores) {
  EntityId best = kInvalidEntity;
  double best_score = -1;
  for (const auto& [entity, score] : scores) {
    if (score > best_score || (score == best_score && entity < best)) {
      best = entity;
      best_score = score;
    }
  }
  return best;
}

// Number of KB triples of `topic` whose object is mentioned on the page —
// the potential annotation count driving the informativeness filter.
int PotentialAnnotationCount(const KnowledgeBase& kb, EntityId topic,
                             const PageMentions& mentions) {
  int count = 0;
  for (const Triple& triple : kb.TriplesWithSubject(topic)) {
    if (mentions.mentions_of.count(triple.object) > 0) ++count;
  }
  return count;
}

}  // namespace

TopicResult IdentifyTopics(const std::vector<const DomDocument*>& pages,
                           const std::vector<PageMentions>& mentions,
                           const KnowledgeBase& kb,
                           const TopicConfig& config) {
  CERES_CHECK(pages.size() == mentions.size());
  const size_t n = pages.size();
  TopicResult result;
  result.topic.assign(n, kInvalidEntity);
  result.topic_node.assign(n, kInvalidNode);
  result.score.assign(n, 0.0);

  const std::unordered_set<std::string> common_strings =
      kb.CommonObjectStrings(kCommonStringFraction,
                             config.common_string_min_count);

  // Local candidate identification (§3.1.1).
  std::vector<CandidateScores> page_scores(n);
  std::vector<EntityId> local_candidate(n, kInvalidEntity);
  std::unordered_map<EntityId, int> candidate_page_count;
  EligibilityCache eligibility;
  for (size_t i = 0; i < n; ++i) {
    page_scores[i] =
        ScoreEntitiesForPage(mentions[i], kb, common_strings, &eligibility);
    local_candidate[i] = BestCandidate(page_scores[i]);
    if (local_candidate[i] != kInvalidEntity) {
      ++candidate_page_count[local_candidate[i]];
    }
  }

  // Uniqueness filter (§3.1.2 step 1): an entity that is the best candidate
  // of many pages is boilerplate, not a topic.
  for (size_t i = 0; i < n; ++i) {
    for (auto it = page_scores[i].begin(); it != page_scores[i].end();) {
      auto count_it = candidate_page_count.find(it->first);
      if (count_it != candidate_page_count.end() &&
          count_it->second >= kMaxPagesPerTopic) {
        it = page_scores[i].erase(it);
      } else {
        ++it;
      }
    }
    if (local_candidate[i] != kInvalidEntity &&
        page_scores[i].count(local_candidate[i]) == 0) {
      local_candidate[i] = BestCandidate(page_scores[i]);
    }
  }

  // Dominant-XPath step (§3.1.2 step 2): count, across the site, the
  // XPaths at which each page's best candidate is mentioned. Counting is
  // order-insensitive (unordered_map + cached path strings); the sort
  // below makes the final ranking deterministic.
  std::unordered_map<std::string, int64_t> path_counts;
  std::unordered_map<std::string, XPath> path_by_string;
  for (size_t i = 0; i < n; ++i) {
    if (local_candidate[i] == kInvalidEntity) continue;
    XPathStringCache paths(*pages[i]);
    const auto& nodes = mentions[i].mentions_of.at(local_candidate[i]);
    for (NodeId node : nodes) {
      const std::string& key = paths.PathString(node);
      ++path_counts[key];
      if (path_by_string.count(key) == 0) {
        path_by_string.emplace(key, paths.Path(node));
      }
    }
  }
  std::vector<std::pair<std::string, int64_t>> ranked(path_counts.begin(),
                                                      path_counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  for (const auto& [key, count] : ranked) {
    result.ranked_paths.push_back(path_by_string.at(key));
  }

  // Re-examine each page at the highest-ranked path extant on it.
  for (size_t i = 0; i < n; ++i) {
    if (page_scores[i].empty()) continue;
    for (const XPath& path : result.ranked_paths) {
      NodeId node = path.Resolve(*pages[i]);
      if (node == kInvalidNode) continue;
      // Pick the best-scoring candidate entity mentioned at this field.
      EntityId best = kInvalidEntity;
      double best_score = -1;
      for (const auto& [entity, score] : page_scores[i]) {
        auto mention_it = mentions[i].mentions_of.find(entity);
        if (mention_it == mentions[i].mentions_of.end()) continue;
        const std::vector<NodeId>& entity_nodes = mention_it->second;
        if (std::find(entity_nodes.begin(), entity_nodes.end(), node) ==
            entity_nodes.end()) {
          continue;
        }
        if (score > best_score || (score == best_score && entity < best)) {
          best = entity;
          best_score = score;
        }
      }
      if (best != kInvalidEntity) {
        result.topic[i] = best;
        result.topic_node[i] = node;
        result.score[i] = best_score;
      }
      break;  // Only the highest-ranked extant path is consulted.
    }
  }

  // Informativeness filter (§3.1.2 step 3).
  for (size_t i = 0; i < n; ++i) {
    if (result.topic[i] == kInvalidEntity) continue;
    if (PotentialAnnotationCount(kb, result.topic[i], mentions[i]) <
        config.min_annotations_per_page) {
      result.topic[i] = kInvalidEntity;
      result.topic_node[i] = kInvalidNode;
      result.score[i] = 0.0;
    }
  }
  return result;
}

}  // namespace ceres

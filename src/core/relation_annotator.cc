#include "core/relation_annotator.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>

#include "dom/dom_utils.h"
#include "dom/xpath.h"
#include "ml/agglomerative.h"
#include "util/logging.h"

namespace ceres {

namespace {

// A predicate counts as "frequently duplicated" when more than this fraction
// of its (page, object) tasks have multiple mentions; ties in local evidence
// are then resolved by XPath clustering, otherwise dropped (Algorithm 2
// lines 24–29).
constexpr double kDuplicatedPredicateFraction = 0.5;

// Informativeness guard (§3.2.2 case 2): when one object value occurs as a
// value of a predicate on more than this fraction of annotated pages, its
// annotations must additionally fall in the predicate's largest XPath
// cluster (catches genre lists and search boxes repeated on every page).
constexpr double kDuplicatePageFraction = 0.5;

// Cap on distinct XPaths clustered per predicate; the most frequent paths
// are kept when exceeded.
constexpr size_t kMaxClusterPaths = 1200;

// One (page, predicate, object) annotation decision.
struct Task {
  PageIndex page = 0;
  PredicateId predicate = kInvalidPredicate;
  EntityId object = kInvalidEntity;
  std::vector<NodeId> mentions;
};

// BestLocalMention of Algorithm 2: the mention(s) whose highest exclusive
// ancestor subtree contains the most mentions of any object of the
// predicate.
std::vector<NodeId> BestLocalMentions(
    const DomDocument& doc, const std::vector<NodeId>& object_mentions,
    const std::vector<NodeId>& all_predicate_mentions) {
  int best_count = -1;
  std::vector<NodeId> best;
  for (NodeId mention : object_mentions) {
    NodeId ancestor = HighestExclusiveAncestor(doc, mention, object_mentions);
    int neighbor_count =
        CountInSubtree(doc, ancestor, all_predicate_mentions);
    if (neighbor_count > best_count) {
      best_count = neighbor_count;
      best = {mention};
    } else if (neighbor_count == best_count) {
      best.push_back(mention);
    }
  }
  return best;
}

// Membership of each distinct mention XPath of one predicate in a cluster,
// computed across all pages (§3.2.2). largest_cluster is the id whose
// member paths account for the most mention occurrences.
struct PredicateClusters {
  std::unordered_map<std::string, int> cluster_of_path;
  int largest_cluster = -1;
};

PredicateClusters ClusterPredicatePaths(
    const std::vector<std::pair<XPath, int64_t>>& path_occurrences,
    size_t num_clusters, size_t max_paths) {
  PredicateClusters out;
  if (path_occurrences.empty()) return out;

  // Keep the most frequent paths when over budget.
  std::vector<size_t> kept(path_occurrences.size());
  for (size_t i = 0; i < kept.size(); ++i) kept[i] = i;
  if (kept.size() > max_paths) {
    std::sort(kept.begin(), kept.end(), [&](size_t a, size_t b) {
      return path_occurrences[a].second > path_occurrences[b].second;
    });
    kept.resize(max_paths);
  }

  num_clusters = std::max<size_t>(1, std::min(num_clusters, kept.size()));
  std::vector<int> labels = AgglomerativeCluster(
      kept.size(),
      [&](size_t a, size_t b) {
        return XPathEditDistance(path_occurrences[kept[a]].first,
                                 path_occurrences[kept[b]].first);
      },
      num_clusters);

  std::unordered_map<int, int64_t> weight;
  for (size_t i = 0; i < kept.size(); ++i) {
    const auto& [path, count] = path_occurrences[kept[i]];
    out.cluster_of_path[path.ToString()] = labels[i];
    weight[labels[i]] += count;
  }
  // Precision-first: the "largest cluster" rule only applies when there IS
  // a unique largest cluster. With tied weights the global evidence is as
  // ambiguous as the local evidence was, and no annotation is made.
  int64_t best_weight = -1;
  int64_t second_weight = -1;
  for (const auto& [label, w] : weight) {
    if (w > best_weight) {
      second_weight = best_weight;
      best_weight = w;
      out.largest_cluster = label;
    } else if (w > second_weight) {
      second_weight = w;
    }
  }
  if (best_weight == second_weight) out.largest_cluster = -1;
  return out;
}

}  // namespace

AnnotationResult AnnotateRelations(
    const std::vector<const DomDocument*>& pages,
    const std::vector<PageMentions>& mentions, const TopicResult& topics,
    const KnowledgeBase& kb, const AnnotatorConfig& config) {
  CERES_CHECK(pages.size() == mentions.size());
  CERES_CHECK(pages.size() == topics.topic.size());
  AnnotationResult result;

  // Gather all annotation tasks, grouped by predicate.
  std::vector<Task> tasks;
  std::unordered_map<PredicateId, std::vector<size_t>> tasks_of_predicate;
  // Per predicate: mention nodes of any of its objects, per page.
  std::map<std::pair<PageIndex, PredicateId>, std::vector<NodeId>>
      predicate_mentions_on_page;
  int64_t annotated_page_count = 0;

  for (size_t i = 0; i < pages.size(); ++i) {
    EntityId topic = topics.topic[i];
    if (topic == kInvalidEntity) continue;
    ++annotated_page_count;
    for (const Triple& triple : kb.TriplesWithSubject(topic)) {
      auto mention_it = mentions[i].mentions_of.find(triple.object);
      if (mention_it == mentions[i].mentions_of.end()) continue;
      Task task;
      task.page = static_cast<PageIndex>(i);
      task.predicate = triple.predicate;
      task.object = triple.object;
      task.mentions = mention_it->second;
      tasks_of_predicate[triple.predicate].push_back(tasks.size());
      auto& pm = predicate_mentions_on_page[{task.page, task.predicate}];
      for (NodeId node : task.mentions) {
        if (std::find(pm.begin(), pm.end(), node) == pm.end()) {
          pm.push_back(node);
        }
      }
      tasks.push_back(std::move(task));
    }
  }

  // Lazy per-page XPath memos, shared by every predicate's clustering and
  // candidate lookups below; the same mention nodes are serialized many
  // times otherwise (once per predicate that shares them).
  std::vector<std::unique_ptr<XPathStringCache>> page_paths(pages.size());
  auto paths_for = [&](PageIndex page) -> XPathStringCache& {
    auto& slot = page_paths[static_cast<size_t>(page)];
    if (slot == nullptr) {
      slot = std::make_unique<XPathStringCache>(*pages[page]);
    }
    return *slot;
  };

  std::set<PageIndex> pages_with_annotations;
  auto emit = [&](PageIndex page, NodeId node, PredicateId predicate,
                  EntityId object) {
    result.annotations.push_back(Annotation{page, node, predicate, object});
    pages_with_annotations.insert(page);
  };

  if (!config.use_relation_filtering) {
    // CERES-Topic baseline: label every mention of the object with every
    // predicate it holds with the topic.
    for (const Task& task : tasks) {
      for (NodeId node : task.mentions) {
        emit(task.page, node, task.predicate, task.object);
      }
    }
  } else {
    // Predicate-level aggregates for the clustering triggers.
    for (auto& [predicate, task_indices] : tasks_of_predicate) {
      // Is the predicate frequently duplicated? (fraction of tasks whose
      // object has multiple mentions)
      int64_t duplicated = 0;
      size_t max_mentions_per_object = 1;
      std::unordered_map<EntityId, std::set<PageIndex>> pages_of_object;
      for (size_t index : task_indices) {
        const Task& task = tasks[index];
        if (task.mentions.size() > 1) ++duplicated;
        max_mentions_per_object =
            std::max(max_mentions_per_object, task.mentions.size());
        pages_of_object[task.object].insert(task.page);
      }
      const bool frequently_duplicated =
          static_cast<double>(duplicated) >
          kDuplicatedPredicateFraction *
              static_cast<double>(task_indices.size());

      // Does some object value recur across most annotated pages?
      bool suspicious_value = false;
      std::unordered_set<EntityId> suspicious_objects;
      for (const auto& [object, page_set] : pages_of_object) {
        if (static_cast<double>(page_set.size()) >
            kDuplicatePageFraction *
                static_cast<double>(annotated_page_count)) {
          suspicious_value = true;
          suspicious_objects.insert(object);
        }
      }

      // Global clustering, computed only when some decision needs it.
      PredicateClusters clusters;
      bool clusters_ready = false;
      auto ensure_clusters = [&]() {
        if (clusters_ready) return;
        // Count path-string occurrences without a string-keyed map: the
        // cached PathString references are stable for the caches'
        // lifetime, so string_views into them can be stable_sorted and
        // run-length counted. Output order (key-sorted) and the
        // representative XPath per key (first mention encountered) match
        // the std::map formulation exactly, so clustering stays
        // deterministic.
        std::vector<std::tuple<std::string_view, PageIndex, NodeId>> mentions;
        for (size_t index : task_indices) {
          const Task& task = tasks[index];
          XPathStringCache& page_paths = paths_for(task.page);
          for (NodeId node : task.mentions) {
            mentions.emplace_back(page_paths.PathString(node), task.page,
                                  node);
          }
        }
        std::stable_sort(mentions.begin(), mentions.end(),
                         [](const auto& a, const auto& b) {
                           return std::get<0>(a) < std::get<0>(b);
                         });
        std::vector<std::pair<XPath, int64_t>> paths;
        for (size_t i = 0; i < mentions.size();) {
          size_t j = i + 1;
          while (j < mentions.size() &&
                 std::get<0>(mentions[j]) == std::get<0>(mentions[i])) {
            ++j;
          }
          const auto& [key, page, node] = mentions[i];
          paths.emplace_back(paths_for(page).Path(node),
                             static_cast<int64_t>(j - i));
          i = j;
        }
        clusters = ClusterPredicatePaths(paths, max_mentions_per_object,
                                         kMaxClusterPaths);
        clusters_ready = true;
      };

      for (size_t index : task_indices) {
        const Task& task = tasks[index];
        const DomDocument& doc = *pages[task.page];
        const std::vector<NodeId>& all_pred_mentions =
            predicate_mentions_on_page.at({task.page, task.predicate});
        std::vector<NodeId> best =
            BestLocalMentions(doc, task.mentions, all_pred_mentions);
        NodeId chosen = kInvalidNode;
        if (best.size() == 1) {
          chosen = best.front();
        } else if (frequently_duplicated) {
          ensure_clusters();
          for (NodeId candidate : best) {
            const std::string& key = paths_for(task.page).PathString(candidate);
            auto it = clusters.cluster_of_path.find(key);
            if (it != clusters.cluster_of_path.end() &&
                it->second == clusters.largest_cluster) {
              chosen = candidate;
              break;
            }
          }
        }
        // Informativeness guard: values recurring on most pages must sit in
        // the dominant cluster to be trusted.
        if (chosen != kInvalidNode && suspicious_value &&
            suspicious_objects.count(task.object) > 0) {
          ensure_clusters();
          const std::string& key = paths_for(task.page).PathString(chosen);
          auto it = clusters.cluster_of_path.find(key);
          if (it == clusters.cluster_of_path.end() ||
              it->second != clusters.largest_cluster) {
            chosen = kInvalidNode;
          }
        }
        if (chosen != kInvalidNode) {
          emit(task.page, chosen, task.predicate, task.object);
        }
      }
    }
  }

  // NAME annotations for pages that kept at least one relation label.
  for (size_t i = 0; i < pages.size(); ++i) {
    PageIndex page = static_cast<PageIndex>(i);
    if (topics.topic[i] == kInvalidEntity) continue;
    if (pages_with_annotations.count(page) == 0) continue;
    CERES_CHECK(topics.topic_node[i] != kInvalidNode);
    result.annotations.push_back(Annotation{
        page, topics.topic_node[i], kNamePredicate, topics.topic[i]});
    result.annotated_pages.push_back(page);
  }
  std::sort(result.annotated_pages.begin(), result.annotated_pages.end());
  return result;
}

}  // namespace ceres

#include "core/training.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "dom/xpath.h"
#include "util/random.h"
#include "util/string_util.h"

namespace ceres {

namespace {

// Seed of the sampling of negatives and of the annotated-page subsample.
constexpr uint64_t kTrainingSeed = 42;

// True when `candidate` differs from some positive-example path of its page
// only at index positions where that predicate's positives already vary —
// i.e. it is probably an unlabelled member of the same value list (§4.1).
bool IsLikelyListMember(
    const XPath& candidate,
    const std::map<PredicateId, std::vector<XPath>>& positives_by_predicate) {
  for (const auto& [predicate, paths] : positives_by_predicate) {
    if (paths.size() < 2) continue;
    // Varying index positions among this predicate's positives.
    std::set<size_t> varying;
    bool same_shape_all = true;
    for (size_t i = 1; i < paths.size(); ++i) {
      bool same_shape = false;
      std::vector<size_t> diffs =
          IndexOnlyDifferences(paths[0], paths[i], &same_shape);
      if (!same_shape) {
        same_shape_all = false;
        break;
      }
      varying.insert(diffs.begin(), diffs.end());
    }
    if (!same_shape_all || varying.empty()) continue;
    for (const XPath& positive : paths) {
      bool same_shape = false;
      std::vector<size_t> diffs =
          IndexOnlyDifferences(candidate, positive, &same_shape);
      if (!same_shape) continue;
      bool all_in_varying = true;
      for (size_t pos : diffs) {
        if (varying.count(pos) == 0) {
          all_in_varying = false;
          break;
        }
      }
      if (all_in_varying) return true;
    }
  }
  return false;
}

}  // namespace

Result<TrainingSet> BuildTrainingSet(
    const std::vector<const DomDocument*>& pages,
    const std::vector<Annotation>& annotations,
    const FeatureExtractor& featurizer, const Ontology& ontology,
    const TrainingConfig& config) {
  if (annotations.empty()) {
    return Status::FailedPrecondition("no annotations to train from");
  }

  // Group annotations per page.
  std::map<PageIndex, std::vector<const Annotation*>> by_page;
  for (const Annotation& annotation : annotations) {
    by_page[annotation.page].push_back(&annotation);
  }

  Rng rng(kTrainingSeed);
  // Optional cap on the number of annotated pages used (Figure 5).
  std::vector<PageIndex> annotated_pages;
  annotated_pages.reserve(by_page.size());
  for (const auto& [page, list] : by_page) annotated_pages.push_back(page);
  if (config.max_annotated_pages > 0 &&
      annotated_pages.size() > config.max_annotated_pages) {
    rng.Shuffle(&annotated_pages);
    annotated_pages.resize(config.max_annotated_pages);
    std::sort(annotated_pages.begin(), annotated_pages.end());
  }
  if (annotated_pages.size() < config.min_annotated_pages) {
    return Status::FailedPrecondition(
        StrCat("only ", annotated_pages.size(),
               " annotated pages; need at least ",
               config.min_annotated_pages));
  }

  TrainingSet set;
  set.classes = ClassMap(ontology);

  for (PageIndex page : annotated_pages) {
    const DomDocument& doc = *pages[static_cast<size_t>(page)];
    const std::vector<const Annotation*>& page_annotations = by_page[page];
    // Featurization itself must stay serial (HashedFeatureMap interning order
    // defines the feature ids), but the normalized-label lookups it makes
    // are memoized per page.
    NormalizedTextCache text_cache(doc, featurizer.frequent_strings());

    std::set<NodeId> positive_nodes;
    std::map<PredicateId, std::vector<XPath>> positives_by_predicate;
    for (const Annotation* annotation : page_annotations) {
      positive_nodes.insert(annotation->node);
      positives_by_predicate[annotation->predicate].push_back(
          XPath::FromNode(doc, annotation->node));
    }

    // Positive examples.
    for (const Annotation* annotation : page_annotations) {
      LabeledExample example;
      example.features =
          featurizer.Extract(doc, annotation->node, &set.features,
                             /*name_prefix=*/{}, &text_cache);
      example.label = set.classes.ClassOf(annotation->predicate);
      set.examples.push_back(std::move(example));
    }

    // Negative candidates: unlabelled text fields, minus likely list
    // members.
    std::vector<NodeId> candidates;
    for (NodeId node : doc.TextFields()) {
      if (positive_nodes.count(node) > 0) continue;
      if (config.exclude_list_negatives &&
          IsLikelyListMember(XPath::FromNode(doc, node),
                             positives_by_predicate)) {
        continue;
      }
      candidates.push_back(node);
    }
    rng.Shuffle(&candidates);
    size_t wanted =
        static_cast<size_t>(kNegativesPerPositive) * page_annotations.size();
    if (candidates.size() > wanted) candidates.resize(wanted);
    for (NodeId node : candidates) {
      LabeledExample example;
      example.features = featurizer.Extract(doc, node, &set.features,
                                            /*name_prefix=*/{}, &text_cache);
      example.label = ClassMap::kOtherClass;
      set.examples.push_back(std::move(example));
    }
  }

  return set;
}

Result<TrainedModel> TrainExtractor(
    const std::vector<const DomDocument*>& pages,
    const std::vector<Annotation>& annotations,
    const FeatureExtractor& featurizer, const Ontology& ontology,
    const TrainingConfig& config) {
  CERES_ASSIGN_OR_RETURN(
      TrainingSet set,
      BuildTrainingSet(pages, annotations, featurizer, ontology, config));
  TrainedModel trained;
  trained.features = std::move(set.features);
  trained.classes = std::move(set.classes);
  trained.feature_config = featurizer.config();
  trained.frequent_strings = featurizer.frequent_strings();
  trained.features.Freeze();
  Result<LbfgsResult> fit =
      trained.model.Train(set.examples, trained.features.size(),
                          trained.classes.num_classes());
  if (!fit.ok()) return fit.status();
  trained.fit = *fit;
  return trained;
}

FeatureExtractor MakeFeaturizer(const TrainedModel& model) {
  return FeatureExtractor(model.frequent_strings, model.feature_config);
}

}  // namespace ceres

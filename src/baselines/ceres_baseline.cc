#include "baselines/ceres_baseline.h"

#include <algorithm>
#include <set>

#include "core/entity_matcher.h"
#include "ml/logistic_regression.h"
#include "util/random.h"
#include "util/string_util.h"

namespace ceres {

namespace {

// Negative pair examples sampled per candidate field of an annotated page.
constexpr size_t kNegativesPerField = 3;
// Minimum class probability for emitting a pair extraction.
constexpr double kConfidenceThreshold = 0.5;
// Seed of the negative sampling.
constexpr uint64_t kSeed = 7;

// Concatenates two finalized sparse vectors (their feature names are kept
// disjoint via the "A|" / "B|" prefixes).
SparseVector ConcatFeatures(const SparseVector& a, const SparseVector& b) {
  SparseVector out;
  for (const auto& [index, value] : a.entries()) out.Add(index, value);
  for (const auto& [index, value] : b.entries()) out.Add(index, value);
  out.Finalize();
  return out;
}

}  // namespace

Result<PairBaselineResult> RunPairBaseline(
    const std::vector<DomDocument>& pages, const KnowledgeBase& kb,
    const std::vector<PageIndex>& annotation_pages,
    const std::vector<PageIndex>& extraction_pages,
    const PairBaselineConfig& config) {
  if (!kb.frozen()) {
    return Status::FailedPrecondition("knowledge base must be frozen");
  }
  std::vector<const DomDocument*> all_docs;
  all_docs.reserve(pages.size());
  for (const DomDocument& page : pages) all_docs.push_back(&page);
  FeatureExtractor featurizer(all_docs, FeatureConfig{});
  HashedFeatureMap feature_map;
  ClassMap classes(kb.ontology());
  Rng rng(kSeed);

  // --- Annotation: label co-mentioned entity pairs ------------------------
  std::vector<LabeledExample> examples;
  int64_t positives = 0;
  for (PageIndex page : annotation_pages) {
    const DomDocument& doc = pages[static_cast<size_t>(page)];
    PageMentions mentions = MatchPageMentions(doc, kb);
    const size_t field_count = mentions.fields.size();

    // Per-field features, extracted once per side.
    std::vector<SparseVector> side_a(field_count);
    std::vector<SparseVector> side_b(field_count);
    for (size_t f = 0; f < field_count; ++f) {
      side_a[f] = featurizer.Extract(doc, mentions.fields[f], &feature_map,
                                     "A|");
      side_b[f] = featurizer.Extract(doc, mentions.fields[f], &feature_map,
                                     "B|");
    }

    std::vector<std::pair<size_t, size_t>> unrelated_pairs;
    for (size_t f1 = 0; f1 < field_count; ++f1) {
      for (size_t f2 = 0; f2 < field_count; ++f2) {
        if (f1 == f2) continue;
        std::set<PredicateId> found;
        for (EntityId e1 : mentions.candidates[f1]) {
          for (EntityId e2 : mentions.candidates[f2]) {
            for (PredicateId predicate : kb.PredicatesBetween(e1, e2)) {
              found.insert(predicate);
            }
          }
        }
        if (found.empty()) {
          unrelated_pairs.emplace_back(f1, f2);
          continue;
        }
        for (PredicateId predicate : found) {
          if (++positives > config.max_pair_annotations) {
            return Status::ResourceExhausted(
                StrCat("pair annotations exceed cap of ",
                       config.max_pair_annotations,
                       " — the quadratic DS assumption does not scale on "
                       "this site/KB"));
          }
          LabeledExample example;
          example.features = ConcatFeatures(side_a[f1], side_b[f2]);
          example.label = classes.ClassOf(predicate);
          examples.push_back(std::move(example));
        }
      }
    }
    // Negatives: random unrelated pairs, a few per field on this page.
    size_t wanted =
        std::min(unrelated_pairs.size(), kNegativesPerField * field_count);
    rng.Shuffle(&unrelated_pairs);
    for (size_t i = 0; i < wanted; ++i) {
      LabeledExample example;
      example.features = ConcatFeatures(side_a[unrelated_pairs[i].first],
                                        side_b[unrelated_pairs[i].second]);
      example.label = ClassMap::kOtherClass;
      examples.push_back(std::move(example));
    }
  }

  PairBaselineResult result;
  result.num_annotations = positives;
  if (examples.empty() || positives == 0) {
    return Status::FailedPrecondition("baseline produced no annotations");
  }

  feature_map.Freeze();
  LogisticRegression model;
  Result<LbfgsResult> fit =
      model.Train(examples, feature_map.size(), classes.num_classes());
  if (!fit.ok()) return fit.status();

  // --- Extraction: score candidate pairs per page -------------------------
  for (PageIndex page : extraction_pages) {
    const DomDocument& doc = pages[static_cast<size_t>(page)];
    PageMentions mentions = MatchPageMentions(doc, kb);
    size_t field_count = mentions.fields.size();
    if (static_cast<int>(field_count) > config.max_candidate_fields_per_page) {
      field_count =
          static_cast<size_t>(config.max_candidate_fields_per_page);
    }
    std::vector<SparseVector> side_a(field_count);
    std::vector<SparseVector> side_b(field_count);
    for (size_t f = 0; f < field_count; ++f) {
      side_a[f] = featurizer.Extract(doc, mentions.fields[f], &feature_map,
                                     "A|");
      side_b[f] = featurizer.Extract(doc, mentions.fields[f], &feature_map,
                                     "B|");
    }
    for (size_t f1 = 0; f1 < field_count; ++f1) {
      for (size_t f2 = 0; f2 < field_count; ++f2) {
        if (f1 == f2) continue;
        SparseVector pair = ConcatFeatures(side_a[f1], side_b[f2]);
        auto [cls, confidence] = model.Predict(pair);
        if (cls == ClassMap::kOtherClass || cls == ClassMap::kNameClass) {
          continue;
        }
        if (confidence < kConfidenceThreshold) continue;
        result.extractions.push_back(
            Extraction{page, mentions.fields[f2], classes.PredicateOf(cls),
                       std::string(doc.node(mentions.fields[f1]).text),
                       std::string(doc.node(mentions.fields[f2]).text),
                       confidence});
      }
    }
  }
  return result;
}

}  // namespace ceres

#include "core/extractor.h"

#include <algorithm>
#include <span>

#include "core/doc_cache.h"
#include "util/logging.h"

namespace ceres {

namespace {

// Minimum NAME probability for accepting a node as the page's topic name;
// a page without an accepted name node yields no extractions.
constexpr double kNameThreshold = 0.5;

// Extraction pass over one page, appending to `out`. Runs concurrently for
// distinct pages: the model is only read (the HashedFeatureMap is frozen, so
// featurization interns nothing), and each worker owns its output slot.
void ExtractFromPage(const DomDocument& doc, PageIndex page,
                     TrainedModel* model, const FeatureExtractor& featurizer,
                     const ExtractionConfig& config,
                     std::vector<Extraction>* out) {
  std::vector<NodeId> fields = doc.TextFields();
  if (fields.empty()) return;

  // Score all fields once, into one buffer: field f's class probabilities
  // are [f * classes, (f + 1) * classes).
  NormalizedTextCache text_cache(doc, featurizer.frequent_strings());
  const auto classes = static_cast<size_t>(model->model.num_classes());
  std::vector<double> probabilities(fields.size() * classes);
  const auto probabilities_of = [&](size_t f) {
    return std::span<double>(probabilities).subspan(f * classes, classes);
  };
  for (size_t f = 0; f < fields.size(); ++f) {
    SparseVector features = featurizer.Extract(doc, fields[f],
                                               &model->features,
                                               /*name_prefix=*/{}, &text_cache);
    model->model.PredictProbabilities(features, probabilities_of(f));
  }

  // Topic-name node: the field with the highest NAME probability.
  size_t name_field = 0;
  double name_prob = -1;
  for (size_t f = 0; f < fields.size(); ++f) {
    double prob = probabilities_of(f)[ClassMap::kNameClass];
    if (prob > name_prob) {
      name_prob = prob;
      name_field = f;
    }
  }
  if (name_prob < kNameThreshold) return;
  const std::string subject(doc.node(fields[name_field]).text);
  out->push_back(Extraction{page, fields[name_field], kNamePredicate,
                            subject, subject, name_prob});

  for (size_t f = 0; f < fields.size(); ++f) {
    if (f == name_field) continue;
    const std::span<double> probs = probabilities_of(f);
    auto it = std::max_element(probs.begin(), probs.end());
    int32_t cls = static_cast<int32_t>(it - probs.begin());
    if (cls == ClassMap::kOtherClass || cls == ClassMap::kNameClass) {
      continue;
    }
    if (*it < config.confidence_threshold) continue;
    out->push_back(Extraction{page, fields[f],
                              model->classes.PredicateOf(cls), subject,
                              std::string(doc.node(fields[f]).text), *it});
  }
}

}  // namespace

std::vector<Extraction> ExtractFromPages(
    const std::vector<const DomDocument*>& pages,
    const std::vector<PageIndex>& page_indices, TrainedModel* model,
    const FeatureExtractor& featurizer, const ExtractionConfig& config) {
  CERES_CHECK(pages.size() == page_indices.size());
  CERES_CHECK(model->features.frozen());

  // Per-page output slots, merged in page order below: the result is
  // byte-identical to a serial pass regardless of thread count.
  std::vector<std::vector<Extraction>> per_page(pages.size());
  ParallelFor(pages.size(), config.parallel, [&](size_t p) {
    ExtractFromPage(*pages[p], page_indices[p], model, featurizer, config,
                    &per_page[p]);
  });

  std::vector<Extraction> out;
  for (std::vector<Extraction>& slot : per_page) {
    out.insert(out.end(), std::make_move_iterator(slot.begin()),
               std::make_move_iterator(slot.end()));
  }
  return out;
}

}  // namespace ceres

#ifndef CERES_CORE_DOC_CACHE_H_
#define CERES_CORE_DOC_CACHE_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "dom/dom_tree.h"

namespace ceres {

/// Per-document memo of the featurizer's lexicon test: whether a node's
/// normalized direct text is one of the site's frequent strings. The
/// featurizer's nearby-node search visits the same label nodes once per
/// featurized field — hundreds of times per page — so training and
/// extraction hand one of these (per document, per worker) to
/// FeatureExtractor::Extract, which then normalizes and looks up each node
/// once per page. A cache answers for the one document and the one lexicon
/// it is built over. Lookups are lazy; the class is intentionally not
/// thread-safe.
class NormalizedTextCache {
 public:
  NormalizedTextCache(const DomDocument& doc,
                      const std::unordered_set<std::string>& lexicon)
      : doc_(&doc), lexicon_(&lexicon) {}

  /// The normalized direct text of `id` when the lexicon holds it, else
  /// nullptr. Built on first use; the string stays valid for the cache's
  /// lifetime.
  const std::string* Frequent(NodeId id);

  /// True when this cache was built over `doc` and `lexicon`.
  bool Serves(const DomDocument& doc,
              const std::unordered_set<std::string>& lexicon) const {
    return doc_ == &doc && lexicon_ == &lexicon;
  }

 private:
  enum class State : unsigned char { kUnknown, kFrequent, kAbsent };
  struct Entry {
    std::string text;
    State state = State::kUnknown;
  };

  const DomDocument* doc_;
  const std::unordered_set<std::string>* lexicon_;
  std::vector<Entry> entries_;
};

}  // namespace ceres

#endif  // CERES_CORE_DOC_CACHE_H_

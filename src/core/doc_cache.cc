#include "core/doc_cache.h"

#include "text/normalize.h"

namespace ceres {

const std::string* NormalizedTextCache::Frequent(NodeId id) {
  if (entries_.empty()) {
    entries_.resize(static_cast<size_t>(doc_->size()));
  }
  Entry& entry = entries_[static_cast<size_t>(id)];
  if (entry.state == State::kUnknown) {
    NormalizeTextInto(doc_->node(id).text, &entry.text);
    entry.state =
        lexicon_->count(entry.text) > 0 ? State::kFrequent : State::kAbsent;
  }
  return entry.state == State::kFrequent ? &entry.text : nullptr;
}

}  // namespace ceres

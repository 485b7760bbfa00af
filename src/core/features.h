#ifndef CERES_CORE_FEATURES_H_
#define CERES_CORE_FEATURES_H_

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/doc_cache.h"
#include "dom/dom_tree.h"
#include "ml/feature_id.h"
#include "ml/hashed_feature_map.h"
#include "ml/sparse_vector.h"
#include "util/parallel.h"

namespace ceres {

/// Width of the sibling window examined on each side of the node and of
/// every ancestor (§4.2: 5). Model files record it (core/model_io.h).
inline constexpr int kSiblingWindow = 5;
/// Ancestor levels examined for text features (nearby-node search). Model
/// files record it (core/model_io.h).
inline constexpr int kTextFeatureLevels = 3;
/// Most frequent strings mined per site: a bound on the lexicon (and on
/// the text features) a crawled site can produce. The strings on the most
/// pages are kept, ties broken by the string.
inline constexpr size_t kMaxFrequentStrings = 200;

/// Configuration of the §4.2 node featurizer.
struct FeatureConfig {
  /// Enable the Vertex-style structural features.
  bool structural_features = true;
  /// Enable the node-text features built from frequent site strings.
  bool text_features = true;
  /// Fan-out for lexicon mining: pages are scanned concurrently and their
  /// string sets merged in page order (the mined lexicon is identical at
  /// any thread count). The batch pipeline passes Sequential() here when it
  /// is already parallel across clusters.
  ParallelConfig parallel = ParallelConfig::Sequential();
};

/// Extracts the classifier features of one DOM node (§4.2).
///
/// Structural features follow the Vertex recipe [17]: for the node itself,
/// each ancestor, and every sibling of those ancestors within the window,
/// a 4-tuple (attribute name, attribute value, levels of ancestry, sibling
/// offset) over the tag, class, id, itemprop, itemtype, and property
/// attributes. Node-text features pair a frequent website string found in a
/// nearby node with the tree path to that node.
///
/// Features are identified by 64-bit ids — the Fnv1a64 hash of the legacy
/// string name (see ml/feature_id.h) — hashed incrementally from the tuple
/// components, so the hot path never materializes a name string. Pass a
/// FeatureNameTrace to additionally record the id → name table (debug
/// dumps, golden tests).
///
/// The extractor carries site-level state (the frequent-string lexicon), so
/// construct one per website from its training pages.
class FeatureExtractor {
 public:
  /// Mines the frequent-string lexicon from `pages` (the training pages of
  /// one site).
  FeatureExtractor(const std::vector<const DomDocument*>& pages,
                   FeatureConfig config = {});

  /// Restores an extractor from a previously mined lexicon (model
  /// persistence path; see core/model_io.h).
  FeatureExtractor(std::unordered_set<std::string> frequent_strings,
                   FeatureConfig config);

  /// Featurizes `node` of `doc`. New feature ids are interned into `map`
  /// unless it is frozen (then unknown features are dropped). The returned
  /// vector is finalized. `name_prefix` is folded into every feature id;
  /// the pair-based baseline uses it to keep subject-node and object-node
  /// features distinct. `text_cache`, when given, must be a cache over
  /// `doc` and this extractor's frequent_strings() (checked); the text
  /// features then reuse its per-node lexicon tests instead of normalizing
  /// and looking up the same label nodes for every field.
  /// `trace`, when given, records the legacy string name of every emitted
  /// feature id.
  SparseVector Extract(const DomDocument& doc, NodeId node,
                       HashedFeatureMap* map, std::string_view name_prefix = {},
                       NormalizedTextCache* text_cache = nullptr,
                       FeatureNameTrace* trace = nullptr) const;

  const std::unordered_set<std::string>& frequent_strings() const {
    return frequent_strings_;
  }
  const FeatureConfig& config() const { return config_; }

 private:
  void AddStructural(const DomDocument& doc, NodeId node,
                     std::string_view prefix, HashedFeatureMap* map,
                     SparseVector* out, FeatureNameTrace* trace) const;
  void AddText(const DomDocument& doc, NodeId node, std::string_view prefix,
               HashedFeatureMap* map, SparseVector* out,
               NormalizedTextCache* text_cache, FeatureNameTrace* trace) const;

  FeatureConfig config_;
  std::unordered_set<std::string> frequent_strings_;
};

}  // namespace ceres

#endif  // CERES_CORE_FEATURES_H_

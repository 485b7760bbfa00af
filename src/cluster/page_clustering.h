#ifndef CERES_CLUSTER_PAGE_CLUSTERING_H_
#define CERES_CLUSTER_PAGE_CLUSTERING_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "dom/dom_tree.h"

namespace ceres {

/// Configuration of the Vertex-style template clusterer (Gulhane et al.
/// [17]), which CERES runs first so that each extractor instance sees pages
/// of (roughly) one template (§2.1, §5.1.3).
struct PageClusteringConfig {
  /// Two pages belong to the same template when the Jaccard similarity of
  /// their structural signatures reaches this value.
  double similarity_threshold = 0.6;
};

/// Structural signature of a page: hashes of the index-free tag paths
/// (html/body/div/span, no sibling indices) of all element nodes, so that
/// two pages from one template match even when list lengths differ.
std::unordered_set<uint64_t> PageSignature(const DomDocument& page,
                                           size_t max_size);

/// Jaccard similarity of two signatures.
double SignatureSimilarity(const std::unordered_set<uint64_t>& a,
                           const std::unordered_set<uint64_t>& b);

/// Groups pages into template clusters.
///
/// Greedy leader clustering in document order: each page joins the first
/// cluster whose leader signature is similar enough, else founds a new
/// cluster. Returned ids are re-ranked so cluster 0 is the largest.
/// Like the strict Vertex implementation the paper uses, this is imperfect
/// by design: templates that share most of their skeleton (or boilerplate-
/// heavy non-detail pages) can land in one cluster, which §5.5.1 identifies
/// as a real failure mode the extractor must tolerate.
std::vector<int> ClusterPages(const std::vector<DomDocument>& pages,
                              const PageClusteringConfig& config = {});

}  // namespace ceres

#endif  // CERES_CLUSTER_PAGE_CLUSTERING_H_

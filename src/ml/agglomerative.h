#ifndef CERES_ML_AGGLOMERATIVE_H_
#define CERES_ML_AGGLOMERATIVE_H_

#include <functional>
#include <vector>

namespace ceres {

/// Pairwise distance callback over item indices.
using DistanceFn = std::function<double(size_t, size_t)>;

/// Agglomerative (bottom-up) clustering of `num_items` items.
///
/// Starts from singleton clusters and repeatedly merges the closest pair of
/// clusters until `target_clusters` remain, by single linkage: the distance
/// between two clusters is their minimum item-pair distance, the paper's
/// §3.2.2 procedure ("find two nodes with the closest distance and merge
/// the clusters they belong to"). Returns a cluster id in
/// [0, target_clusters) for each item; ids are ordered by decreasing cluster
/// size (cluster 0 is the largest), which is what the annotator's
/// prefer-the-largest-cluster rule consumes.
///
/// Complexity O(n^2 log n) with an O(n^2) distance matrix; callers cap n
/// (the relation annotator deduplicates XPaths first, keeping n small).
std::vector<int> AgglomerativeCluster(size_t num_items,
                                      const DistanceFn& distance,
                                      size_t target_clusters);

}  // namespace ceres

#endif  // CERES_ML_AGGLOMERATIVE_H_

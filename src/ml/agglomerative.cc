#include "ml/agglomerative.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace ceres {

namespace {

// Union-find over item indices.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

std::vector<int> AgglomerativeCluster(size_t num_items,
                                      const DistanceFn& distance,
                                      size_t target_clusters) {
  CERES_CHECK(target_clusters >= 1);
  if (num_items == 0) return {};
  if (target_clusters >= num_items) {
    std::vector<int> trivial(num_items);
    std::iota(trivial.begin(), trivial.end(), 0);
    return trivial;
  }

  // Materialize the distance matrix once.
  std::vector<std::vector<double>> dist(num_items,
                                        std::vector<double>(num_items, 0.0));
  for (size_t i = 0; i < num_items; ++i) {
    for (size_t j = i + 1; j < num_items; ++j) {
      dist[i][j] = dist[j][i] = distance(i, j);
    }
  }

  // Lance–Williams style cluster-distance maintenance: track live clusters
  // and, after each merge, set the merged cluster's distance to every other
  // live cluster to the smaller of its two parts' (single linkage).
  std::vector<bool> alive(num_items, true);
  DisjointSets sets(num_items);

  size_t live = num_items;
  while (live > target_clusters) {
    double best = std::numeric_limits<double>::infinity();
    size_t bi = 0;
    size_t bj = 0;
    for (size_t i = 0; i < num_items; ++i) {
      if (!alive[i]) continue;
      for (size_t j = i + 1; j < num_items; ++j) {
        if (!alive[j]) continue;
        if (dist[i][j] < best) {
          best = dist[i][j];
          bi = i;
          bj = j;
        }
      }
    }
    // Merge bj into bi.
    for (size_t k = 0; k < num_items; ++k) {
      if (!alive[k] || k == bi || k == bj) continue;
      dist[bi][k] = dist[k][bi] = std::min(dist[bi][k], dist[bj][k]);
    }
    sets.Union(bj, bi);
    alive[bj] = false;
    --live;
  }

  // Relabel roots to dense ids ordered by decreasing cluster size.
  std::vector<size_t> roots;
  for (size_t i = 0; i < num_items; ++i) {
    if (alive[i]) roots.push_back(sets.Find(i));
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());

  std::vector<size_t> sizes(roots.size(), 0);
  std::vector<size_t> item_root(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    item_root[i] = sets.Find(i);
    for (size_t r = 0; r < roots.size(); ++r) {
      if (roots[r] == item_root[i]) {
        ++sizes[r];
        break;
      }
    }
  }
  std::vector<size_t> order(roots.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return sizes[a] > sizes[b]; });
  std::vector<int> root_to_label(num_items, -1);
  for (size_t rank = 0; rank < order.size(); ++rank) {
    root_to_label[roots[order[rank]]] = static_cast<int>(rank);
  }
  std::vector<int> labels(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    labels[i] = root_to_label[item_root[i]];
  }
  return labels;
}

}  // namespace ceres

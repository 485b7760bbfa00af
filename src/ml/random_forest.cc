#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace ceres {

namespace {

// Trees in the ensemble.
constexpr int kNumTrees = 20;
// Nodes at this depth become leaves.
constexpr int kMaxDepth = 12;
// Seed of the bootstrap and candidate-feature draws.
constexpr uint64_t kSeed = 13;
// Nodes with fewer than twice this many examples become leaves.
constexpr int64_t kMinSamplesLeaf = 2;

// True when the example's sparse vector contains `feature` with a non-zero
// value. Entries are sorted after Finalize(), so binary search applies.
bool HasFeature(const SparseVector& features, int32_t feature) {
  const auto& entries = features.entries();
  auto it = std::lower_bound(
      entries.begin(), entries.end(), feature,
      [](const std::pair<int32_t, double>& entry, int32_t key) {
        return entry.first < key;
      });
  return it != entries.end() && it->first == feature && it->second != 0.0;
}

// Gini impurity of a class-count histogram.
double Gini(const std::vector<int64_t>& counts, int64_t total) {
  if (total == 0) return 0.0;
  double impurity = 1.0;
  for (int64_t count : counts) {
    double p = static_cast<double>(count) / static_cast<double>(total);
    impurity -= p * p;
  }
  return impurity;
}

}  // namespace

Status RandomForest::Train(const std::vector<LabeledExample>& examples,
                           int32_t num_features, int32_t num_classes) {
  if (examples.empty()) {
    return Status::InvalidArgument("no training examples");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  for (const LabeledExample& example : examples) {
    if (!example.features.finalized()) {
      return Status::InvalidArgument("example features not finalized");
    }
    if (example.label < 0 || example.label >= num_classes) {
      return Status::InvalidArgument(
          StrCat("label out of range: ", example.label));
    }
  }

  num_classes_ = num_classes;
  trees_.clear();
  trees_.resize(static_cast<size_t>(kNumTrees));
  const int candidates_per_split = std::max(
      1, static_cast<int>(
             std::ceil(std::sqrt(static_cast<double>(num_features)))));

  Rng rng(kSeed);
  for (Tree& tree : trees_) {
    Rng tree_rng = rng.Fork();
    // Bootstrap sample, as large as the training set.
    std::vector<int> sample(examples.size());
    for (int& index : sample) {
      index = static_cast<int>(tree_rng.Index(examples.size()));
    }

    // Iterative depth-first tree construction.
    struct Pending {
      int32_t node;
      std::vector<int> indices;
      int depth;
    };
    auto make_leaf = [&](Node* node, const std::vector<int>& indices) {
      std::vector<int64_t> counts(static_cast<size_t>(num_classes_), 0);
      for (int index : indices) {
        ++counts[static_cast<size_t>(
            examples[static_cast<size_t>(index)].label)];
      }
      node->feature = -1;
      node->distribution.assign(static_cast<size_t>(num_classes_), 0.0);
      for (int32_t cls = 0; cls < num_classes_; ++cls) {
        node->distribution[static_cast<size_t>(cls)] =
            static_cast<double>(counts[static_cast<size_t>(cls)]) /
            static_cast<double>(indices.size());
      }
    };

    tree.nodes.emplace_back();
    std::vector<Pending> stack{{0, std::move(sample), 0}};
    while (!stack.empty()) {
      Pending pending = std::move(stack.back());
      stack.pop_back();
      const std::vector<int>& indices = pending.indices;

      // Class counts to decide purity / leaf-ness.
      std::vector<int64_t> counts(static_cast<size_t>(num_classes_), 0);
      for (int index : indices) {
        ++counts[static_cast<size_t>(
            examples[static_cast<size_t>(index)].label)];
      }
      const int64_t total = static_cast<int64_t>(indices.size());
      const double parent_gini = Gini(counts, total);
      if (pending.depth >= kMaxDepth ||
          total < 2 * kMinSamplesLeaf || parent_gini == 0.0) {
        make_leaf(&tree.nodes[static_cast<size_t>(pending.node)], indices);
        continue;
      }

      // Candidate features: sampled from those PRESENT in the node's
      // examples (splitting on absent features is useless).
      std::unordered_set<int32_t> present;
      for (int index : indices) {
        for (const auto& [feature, value] :
             examples[static_cast<size_t>(index)].features.entries()) {
          if (value != 0.0) present.insert(feature);
        }
      }
      std::vector<int32_t> pool(present.begin(), present.end());
      std::sort(pool.begin(), pool.end());  // Determinism.
      tree_rng.Shuffle(&pool);
      if (static_cast<int>(pool.size()) > candidates_per_split) {
        pool.resize(static_cast<size_t>(candidates_per_split));
      }

      int32_t best_feature = -1;
      double best_score = parent_gini;  // Must strictly improve.
      for (int32_t feature : pool) {
        std::vector<int64_t> with(static_cast<size_t>(num_classes_), 0);
        int64_t with_total = 0;
        for (int index : indices) {
          const LabeledExample& example =
              examples[static_cast<size_t>(index)];
          if (HasFeature(example.features, feature)) {
            ++with[static_cast<size_t>(example.label)];
            ++with_total;
          }
        }
        if (with_total == 0 || with_total == total) continue;
        std::vector<int64_t> without(static_cast<size_t>(num_classes_), 0);
        for (int32_t cls = 0; cls < num_classes_; ++cls) {
          without[static_cast<size_t>(cls)] =
              counts[static_cast<size_t>(cls)] -
              with[static_cast<size_t>(cls)];
        }
        const int64_t without_total = total - with_total;
        const double weighted =
            (static_cast<double>(with_total) * Gini(with, with_total) +
             static_cast<double>(without_total) *
                 Gini(without, without_total)) /
            static_cast<double>(total);
        if (weighted + 1e-12 < best_score) {
          best_score = weighted;
          best_feature = feature;
        }
      }
      if (best_feature < 0) {
        make_leaf(&tree.nodes[static_cast<size_t>(pending.node)], indices);
        continue;
      }

      std::vector<int> left_indices;   // Feature absent.
      std::vector<int> right_indices;  // Feature present.
      for (int index : indices) {
        if (HasFeature(examples[static_cast<size_t>(index)].features,
                       best_feature)) {
          right_indices.push_back(index);
        } else {
          left_indices.push_back(index);
        }
      }
      const int32_t left = static_cast<int32_t>(tree.nodes.size());
      tree.nodes.emplace_back();
      const int32_t right = static_cast<int32_t>(tree.nodes.size());
      tree.nodes.emplace_back();
      Node& node = tree.nodes[static_cast<size_t>(pending.node)];
      node.feature = best_feature;
      node.left = left;
      node.right = right;
      stack.push_back({left, std::move(left_indices), pending.depth + 1});
      stack.push_back({right, std::move(right_indices), pending.depth + 1});
    }
  }
  trained_ = true;
  return Status::Ok();
}

std::vector<double> RandomForest::PredictProbabilities(
    const SparseVector& features) const {
  CERES_CHECK(trained_);
  std::vector<double> total(static_cast<size_t>(num_classes_), 0.0);
  for (const Tree& tree : trees_) {
    int32_t node = 0;
    while (tree.nodes[static_cast<size_t>(node)].feature >= 0) {
      const Node& current = tree.nodes[static_cast<size_t>(node)];
      node = HasFeature(features, current.feature) ? current.right
                                                   : current.left;
    }
    const std::vector<double>& leaf =
        tree.nodes[static_cast<size_t>(node)].distribution;
    for (int32_t cls = 0; cls < num_classes_; ++cls) {
      total[static_cast<size_t>(cls)] += leaf[static_cast<size_t>(cls)];
    }
  }
  for (double& p : total) p /= static_cast<double>(trees_.size());
  return total;
}

std::pair<int32_t, double> RandomForest::Predict(
    const SparseVector& features) const {
  std::vector<double> probs = PredictProbabilities(features);
  auto it = std::max_element(probs.begin(), probs.end());
  return {static_cast<int32_t>(it - probs.begin()), *it};
}

int64_t RandomForest::TotalNodes() const {
  int64_t total = 0;
  for (const Tree& tree : trees_) {
    total += static_cast<int64_t>(tree.nodes.size());
  }
  return total;
}

}  // namespace ceres

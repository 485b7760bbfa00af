#ifndef CERES_ML_SPARSE_VECTOR_H_
#define CERES_ML_SPARSE_VECTOR_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace ceres {

/// A sparse feature vector: strictly increasing feature indices paired with
/// values. Built unsorted via Add(), then Finalize() sorts and merges
/// duplicate indices by summation.
class SparseVector {
 public:
  SparseVector() = default;

  /// Pre-sizes the entry array (typical featurizer output is a few dozen
  /// entries; one up-front allocation beats doubling from empty).
  void Reserve(size_t n) { entries_.reserve(n); }

  void Add(int32_t index, double value) {
    CERES_CHECK(!finalized_);
    entries_.emplace_back(index, value);
  }

  /// Sorts by index and sums duplicates. Idempotent entries after this.
  void Finalize() {
    std::sort(entries_.begin(), entries_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    size_t out = 0;
    for (size_t i = 0; i < entries_.size();) {
      int32_t index = entries_[i].first;
      double sum = 0;
      while (i < entries_.size() && entries_[i].first == index) {
        sum += entries_[i].second;
        ++i;
      }
      entries_[out++] = {index, sum};
    }
    entries_.resize(out);
    finalized_ = true;
  }

  bool finalized() const { return finalized_; }
  size_t size() const { return entries_.size(); }
  const std::vector<std::pair<int32_t, double>>& entries() const {
    return entries_;
  }

  /// Dot product against a dense weight slice w[0..dim); entries outside
  /// it, negative indices included, are skipped.
  double Dot(const double* weights, int32_t dim) const {
    double sum = 0;
    for (const auto& [index, value] : entries_) {
      if (static_cast<uint32_t>(index) < static_cast<uint32_t>(dim)) {
        sum += weights[index] * value;
      }
    }
    return sum;
  }

 private:
  std::vector<std::pair<int32_t, double>> entries_;
  bool finalized_ = false;
};

}  // namespace ceres

#endif  // CERES_ML_SPARSE_VECTOR_H_

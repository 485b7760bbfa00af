#ifndef CERES_ML_HASHED_FEATURE_MAP_H_
#define CERES_ML_HASHED_FEATURE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ceres {

/// Bidirectional dictionary between 64-bit feature ids and dense indices.
///
/// Features are identified by the Fnv1a64 hash of their string name (see
/// ml/feature_id.h), so the hot path stores two flat arrays — dense index →
/// id, plus an open-addressing probe table of dense indices — instead of a
/// string-keyed unordered_map. Dense indices are assigned in
/// first-occurrence order, so the classifier weight layout follows the
/// feature emission order.
///
/// During training, GetOrAdd() grows the vocabulary; before applying a model
/// to unseen pages the map is frozen so unknown features map to -1 and are
/// dropped (the standard train/apply asymmetry of a linear extractor).
///
/// Copyable (classifier ablations snapshot the map) and cheap to move.
class HashedFeatureMap {
 public:
  HashedFeatureMap();

  /// Returns the dense index of `id`, inserting it when unseen and not
  /// frozen. Returns -1 for unseen ids once frozen.
  int32_t GetOrAdd(uint64_t id);

  /// Dense index of `id`, or -1 if absent. Never inserts.
  int32_t Get(uint64_t id) const;

  /// Feature id of dense `index`.
  uint64_t IdAt(int32_t index) const;

  /// Dense index → id, in first-occurrence order.
  const std::vector<uint64_t>& ids() const { return ids_; }

  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }
  int32_t size() const { return static_cast<int32_t>(ids_.size()); }

  /// Heap footprint of the dictionary (ids array + probe table), for model
  /// registry byte accounting.
  size_t MemoryBytes() const {
    return ids_.capacity() * sizeof(uint64_t) +
           table_.capacity() * sizeof(int32_t);
  }

 private:
  // Probe slot for `id`, either holding it already or free (-1). The probe
  // sequence is linear from id & mask; ids are FNV outputs, whose low bits
  // are well mixed.
  size_t SlotFor(uint64_t id) const;
  void Grow();

  std::vector<uint64_t> ids_;     // dense index -> feature id
  std::vector<int32_t> table_;    // open addressing; -1 == empty
  bool frozen_ = false;
};

}  // namespace ceres

#endif  // CERES_ML_HASHED_FEATURE_MAP_H_

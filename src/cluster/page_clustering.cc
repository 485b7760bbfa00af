#include "cluster/page_clustering.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace ceres {

namespace {

// Signature cap per page; very large pages are represented by their first
// this-many distinct tag paths.
constexpr size_t kMaxSignatureSize = 4096;

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::unordered_set<uint64_t> PageSignature(const DomDocument& page,
                                           size_t max_size) {
  std::unordered_set<uint64_t> signature;
  // Tag path per node, built incrementally: path(node) = path(parent)/tag.
  // Each path is sized exactly and appended into, so the per-node cost is
  // one allocation (no operator+ temporaries).
  std::vector<std::string> paths(static_cast<size_t>(page.size()));
  for (NodeId id = 0; id < page.size(); ++id) {
    const DomNode& node = page.node(id);
    std::string& path = paths[static_cast<size_t>(id)];
    if (node.parent == kInvalidNode) {
      path = node.tag;
    } else {
      const std::string& parent = paths[static_cast<size_t>(node.parent)];
      path.reserve(parent.size() + 1 + node.tag.size());
      path.append(parent);
      path.push_back('/');
      path.append(node.tag);
    }
    if (signature.size() < max_size) {
      signature.insert(HashString(path));
    }
  }
  return signature;
}

double SignatureSimilarity(const std::unordered_set<uint64_t>& a,
                           const std::unordered_set<uint64_t>& b) {
  if (a.empty() && b.empty()) return 0.0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  size_t intersection = 0;
  for (uint64_t h : small) {
    if (large.count(h) > 0) ++intersection;
  }
  return static_cast<double>(intersection) /
         static_cast<double>(a.size() + b.size() - intersection);
}

std::vector<int> ClusterPages(const std::vector<DomDocument>& pages,
                              const PageClusteringConfig& config) {
  std::vector<int> raw_labels(pages.size(), -1);
  std::vector<std::unordered_set<uint64_t>> leaders;
  std::vector<size_t> counts;
  for (size_t i = 0; i < pages.size(); ++i) {
    int assigned = -1;
    std::unordered_set<uint64_t> signature =
        PageSignature(pages[i], kMaxSignatureSize);
    for (size_t c = 0; c < leaders.size(); ++c) {
      if (SignatureSimilarity(signature, leaders[c]) >=
          config.similarity_threshold) {
        assigned = static_cast<int>(c);
        break;
      }
    }
    if (assigned < 0) {
      assigned = static_cast<int>(leaders.size());
      leaders.push_back(std::move(signature));
      counts.push_back(0);
    }
    raw_labels[i] = assigned;
    ++counts[static_cast<size_t>(assigned)];
  }
  // Re-rank so cluster 0 is the largest.
  std::vector<size_t> order(leaders.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return counts[a] > counts[b]; });
  std::vector<int> rank(leaders.size());
  for (size_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = static_cast<int>(r);
  }
  for (int& label : raw_labels) label = rank[static_cast<size_t>(label)];
  return raw_labels;
}

}  // namespace ceres

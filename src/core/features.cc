#include "core/features.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "dom/dom_utils.h"
#include "text/normalize.h"
#include "util/logging.h"
#include "util/string_pool.h"

namespace ceres {

namespace {

// A normalized string is "frequent on the website" when it occurs on at
// least this fraction of pages.
constexpr double kFrequentStringPageFraction = 0.2;

// Tracked attribute names, pre-interned so DomDocument::Attribute resolves
// them by pointer comparison against the parser-interned names.
const std::array<std::string_view, 5>& TrackedAttributes() {
  static const auto* kAttrs = [] {
    util::StringPool& pool = util::StringPool::Global();
    return new std::array<std::string_view, 5>{
        pool.Intern("class"), pool.Intern("id"), pool.Intern("itemprop"),
        pool.Intern("itemtype"), pool.Intern("property")};
  }();
  return *kAttrs;
}

void EmitFeature(const FeatureIdBuilder& feature, const std::string& name,
                 FeatureNameTrace* trace, HashedFeatureMap* map,
                 SparseVector* out) {
  const int32_t index = map->GetOrAdd(feature.id());
  if (index >= 0) out->Add(index, 1.0);
  if (trace != nullptr) trace->Record(feature.id(), name);
}

// Emits the (attribute, value, level, sibling) tuples of one examined node.
// The legacy names were "<prefix>S|l=<level>|s=<offset>|tag=<tag>" and
// "<prefix>S|l=<level>|s=<offset>|<attr>=<value>"; the shared stem is hashed
// once per examined node and forked per emission.
void EmitNodeTuples(const DomDocument& doc, NodeId id, int level,
                    int sibling_offset, std::string_view prefix,
                    HashedFeatureMap* map, SparseVector* out,
                    FeatureNameTrace* trace) {
  const bool tracing = trace != nullptr;
  std::string stem_name;
  std::string name;
  FeatureIdBuilder stem(tracing ? &stem_name : nullptr);
  stem.Add(prefix)
      .Add("S|l=")
      .AddInt(level)
      .Add("|s=")
      .AddInt(sibling_offset)
      .Add('|');
  const DomNode& node = doc.node(id);
  {
    if (tracing) name.assign(stem_name);
    FeatureIdBuilder feature = stem.WithSink(tracing ? &name : nullptr);
    feature.Add("tag=").Add(node.tag);
    EmitFeature(feature, name, trace, map, out);
  }
  for (std::string_view attr : TrackedAttributes()) {
    std::string_view value = doc.Attribute(id, attr);
    if (value.empty()) continue;
    if (tracing) name.assign(stem_name);
    FeatureIdBuilder feature = stem.WithSink(tracing ? &name : nullptr);
    feature.Add(attr).Add('=').Add(value);
    EmitFeature(feature, name, trace, map, out);
  }
}

}  // namespace

FeatureExtractor::FeatureExtractor(
    const std::vector<const DomDocument*>& pages, FeatureConfig config)
    : config_(config) {
  if (!config_.text_features || pages.empty()) return;
  // Mine strings that repeat across pages; these are the static labels
  // ("Director:", "Genres") that anchor text features. Pages are scanned
  // concurrently into per-page slots, then merged in page order; counting
  // is commutative, so the lexicon is identical at any thread count.
  std::vector<std::unordered_set<std::string>> per_page(pages.size());
  ParallelFor(pages.size(), config_.parallel, [&](size_t i) {
    std::unordered_set<std::string>& on_page = per_page[i];
    std::string norm;
    for (NodeId id : pages[i]->TextFields()) {
      NormalizeTextInto(pages[i]->node(id).text, &norm);
      if (!norm.empty()) on_page.insert(norm);
    }
  });
  std::unordered_map<std::string, size_t> page_counts;
  for (const std::unordered_set<std::string>& on_page : per_page) {
    for (const std::string& s : on_page) ++page_counts[s];
  }
  // Floor of two pages: a string seen on a single page is a value, not a
  // template label, no matter how small the site is.
  const double min_pages = std::max(
      pages.size() > 1 ? 2.0 : 1.0,
      kFrequentStringPageFraction * static_cast<double>(pages.size()));
  std::vector<std::pair<std::string, size_t>> qualified;
  for (auto& [text, count] : page_counts) {
    if (static_cast<double>(count) >= min_pages) {
      qualified.emplace_back(text, count);
    }
  }
  std::sort(qualified.begin(), qualified.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (qualified.size() > kMaxFrequentStrings) {
    qualified.resize(kMaxFrequentStrings);
  }
  for (auto& [text, count] : qualified) {
    frequent_strings_.insert(std::move(text));
  }
}

FeatureExtractor::FeatureExtractor(
    std::unordered_set<std::string> frequent_strings, FeatureConfig config)
    : config_(config), frequent_strings_(std::move(frequent_strings)) {}

void FeatureExtractor::AddStructural(const DomDocument& doc, NodeId node,
                                     std::string_view prefix,
                                     HashedFeatureMap* map, SparseVector* out,
                                     FeatureNameTrace* trace) const {
  // The node itself (level 0, sibling 0), its ancestors (level k, sibling
  // 0), and each examined node's siblings within the window.
  int level = 0;
  NodeId cur = node;
  while (cur != kInvalidNode) {
    EmitNodeTuples(doc, cur, level, 0, prefix, map, out, trace);
    ForEachSiblingInWindow(
        doc, cur, kSiblingWindow, [&](NodeId sibling) {
          int offset = doc.node(sibling).child_position -
                       doc.node(cur).child_position;
          EmitNodeTuples(doc, sibling, level, offset, prefix, map, out, trace);
        });
    cur = doc.node(cur).parent;
    ++level;
  }
}

void FeatureExtractor::AddText(const DomDocument& doc, NodeId node,
                               std::string_view prefix, HashedFeatureMap* map,
                               SparseVector* out,
                               NormalizedTextCache* text_cache,
                               FeatureNameTrace* trace) const {
  const bool tracing = trace != nullptr;
  // Scratch used only on the cache-less path; with a cache each node is
  // normalized and looked up in the lexicon once per document, not once
  // per featurized field.
  std::string scratch;
  std::string name;
  auto frequent = [&](NodeId id) -> const std::string* {
    if (text_cache != nullptr) return text_cache->Frequent(id);
    NormalizeTextInto(doc.node(id).text, &scratch);
    return frequent_strings_.count(scratch) > 0 ? &scratch : nullptr;
  };
  // Legacy names were "<prefix>T|<relation>|<norm>"; `compose_relation`
  // feeds the relation bytes ("self", "l2", "l1s-3", "l1s-3c").
  auto emit_text = [&](const std::string& norm, auto compose_relation) {
    name.clear();
    FeatureIdBuilder feature(tracing ? &name : nullptr);
    feature.Add(prefix).Add("T|");
    compose_relation(feature);
    feature.Add('|').Add(norm);
    EmitFeature(feature, name, trace, map, out);
  };
  auto consider = [&](NodeId nearby, auto compose_relation) {
    if (nearby == kInvalidNode || nearby == node) return;
    if (!doc.node(nearby).HasText()) return;
    if (const std::string* norm = frequent(nearby)) {
      emit_text(*norm, compose_relation);
    }
  };

  // The node's own text, when it is itself a frequent site string, is a
  // strong OTHER signal (boilerplate labels).
  if (doc.node(node).HasText()) {
    if (const std::string* norm = frequent(node)) {
      emit_text(*norm, [](FeatureIdBuilder& b) { b.Add("self"); });
    }
  }

  // Nearby nodes: for the node and its first few ancestors, the siblings
  // within the window (and the ancestor itself).
  NodeId cur = node;
  for (int level = 0; level <= kTextFeatureLevels && cur != kInvalidNode;
       ++level) {
    if (level > 0) {
      consider(cur, [&](FeatureIdBuilder& b) { b.Add('l').AddInt(level); });
    }
    ForEachSiblingInWindow(
        doc, cur, kSiblingWindow, [&](NodeId sibling) {
          int offset =
              doc.node(sibling).child_position - doc.node(cur).child_position;
          consider(sibling, [&](FeatureIdBuilder& b) {
            b.Add('l').AddInt(level).Add('s').AddInt(offset);
          });
          // Labels often live one level down inside a sibling wrapper
          // (e.g. <div><h4>Director:</h4>...</div>), so peek at its
          // children.
          for (NodeId child : doc.children(sibling)) {
            consider(child, [&](FeatureIdBuilder& b) {
              b.Add('l').AddInt(level).Add('s').AddInt(offset).Add('c');
            });
          }
        });
    cur = doc.node(cur).parent;
  }
}

SparseVector FeatureExtractor::Extract(const DomDocument& doc, NodeId node,
                                       HashedFeatureMap* map,
                                       std::string_view name_prefix,
                                       NormalizedTextCache* text_cache,
                                       FeatureNameTrace* trace) const {
  CERES_CHECK(text_cache == nullptr ||
              text_cache->Serves(doc, frequent_strings_));
  SparseVector out;
  out.Reserve(64);
  if (config_.structural_features) {
    AddStructural(doc, node, name_prefix, map, &out, trace);
  }
  if (config_.text_features) {
    AddText(doc, node, name_prefix, map, &out, text_cache, trace);
  }
  out.Finalize();
  return out;
}

}  // namespace ceres

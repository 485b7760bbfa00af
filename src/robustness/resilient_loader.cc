#include "robustness/resilient_loader.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace ceres {

Result<LoadedCrawl> LoadCrawl(const std::vector<RawPage>& raw,
                              const ResilientLoadOptions& options) {
  LoadedCrawl crawl;
  crawl.surviving_index.assign(raw.size(), -1);
  for (size_t i = 0; i < raw.size(); ++i) {
    Result<DomDocument> parsed = ParseHtml(raw[i].html, options.parse);
    if (!parsed.ok()) {
      crawl.quarantined.push_back(QuarantinedPage{
          static_cast<PageIndex>(i), raw[i].url,
          PrependContext(parsed.status(), raw[i].url)});
      continue;
    }
    crawl.surviving_index[i] = static_cast<PageIndex>(crawl.pages.size());
    crawl.source_index.push_back(static_cast<PageIndex>(i));
    crawl.pages.push_back(std::move(parsed).value());
  }
  // Division-free budget check (quarantined > budget * total): an empty
  // batch can never divide by zero or spuriously trip the budget — zero
  // quarantined pages always passes, whatever the batch size.
  if (static_cast<double>(crawl.quarantined.size()) >
      options.max_quarantine_fraction * static_cast<double>(raw.size())) {
    return Status::ResourceExhausted(
        StrCat("quarantined ", crawl.quarantined.size(), " of ", raw.size(),
               " pages, over the budget of ",
               options.max_quarantine_fraction));
  }
  if (!crawl.quarantined.empty()) {
    LogInfo(StrCat("resilient load: quarantined ", crawl.quarantined.size(),
                   " of ", raw.size(), " pages"));
  }
  return crawl;
}

namespace {

// Maps a caller page set (raw indexing) onto surviving indices, dropping
// quarantined members. `what` names the set in error messages.
Result<std::vector<PageIndex>> MapPageSet(const std::vector<PageIndex>& pages,
                                          const LoadedCrawl& crawl,
                                          const char* what) {
  std::vector<PageIndex> mapped;
  mapped.reserve(pages.size());
  for (PageIndex page : pages) {
    if (page < 0 ||
        static_cast<size_t>(page) >= crawl.surviving_index.size()) {
      return Status::InvalidArgument(
          StrCat(what, " page out of range: ", page));
    }
    PageIndex surviving = crawl.surviving_index[static_cast<size_t>(page)];
    if (surviving >= 0) mapped.push_back(surviving);
  }
  if (!pages.empty() && mapped.empty()) {
    // An empty set means "all pages" to the pipeline; a requested set that
    // was quarantined away must not silently widen into that.
    return Status::ResourceExhausted(
        StrCat("every requested ", what, " page was quarantined"));
  }
  return mapped;
}

}  // namespace

Result<PipelineResult> RunPipelineResilient(
    const std::vector<RawPage>& raw, const KnowledgeBase& kb,
    const PipelineConfig& config, const ResilientLoadOptions& load_options) {
  CERES_ASSIGN_OR_RETURN(LoadedCrawl crawl, LoadCrawl(raw, load_options),
                         "resilient load");

  // An empty surviving batch — an empty input crawl, or one whose pages all
  // quarantined under a permissive budget — degrades to an empty result
  // with exact diagnostics. Handing RunPipeline zero pages would turn a
  // data condition into a spurious InvalidArgument, which matters once
  // batches arrive as corpus shards: an emptied shard must cost nothing,
  // not fail its worker.
  if (crawl.pages.empty()) {
    PipelineResult empty;
    empty.cluster_of_page.assign(raw.size(), -1);
    empty.topic_of_page.assign(raw.size(), kInvalidEntity);
    empty.topic_node_of_page.assign(raw.size(), kInvalidNode);
    empty.diagnostics.quarantined_pages = std::move(crawl.quarantined);
    return empty;
  }

  PipelineConfig inner_config = config;
  CERES_ASSIGN_OR_RETURN(
      inner_config.annotation_pages,
      MapPageSet(config.annotation_pages, crawl, "annotation"));
  CERES_ASSIGN_OR_RETURN(
      inner_config.extraction_pages,
      MapPageSet(config.extraction_pages, crawl, "extraction"));

  CERES_ASSIGN_OR_RETURN(PipelineResult inner,
                         RunPipeline(crawl.pages, kb, inner_config));

  // Re-express every page index in the caller's raw-crawl indexing.
  PipelineResult result;
  result.cluster_of_page.assign(raw.size(), -1);
  result.topic_of_page.assign(raw.size(), kInvalidEntity);
  result.topic_node_of_page.assign(raw.size(), kInvalidNode);
  for (size_t i = 0; i < crawl.pages.size(); ++i) {
    const size_t source = static_cast<size_t>(crawl.source_index[i]);
    result.cluster_of_page[source] = inner.cluster_of_page[i];
    result.topic_of_page[source] = inner.topic_of_page[i];
    result.topic_node_of_page[source] = inner.topic_node_of_page[i];
  }
  result.annotations = std::move(inner.annotations);
  for (Annotation& annotation : result.annotations) {
    annotation.page = crawl.source_index[static_cast<size_t>(annotation.page)];
  }
  result.annotated_pages.reserve(inner.annotated_pages.size());
  for (PageIndex page : inner.annotated_pages) {
    result.annotated_pages.push_back(
        crawl.source_index[static_cast<size_t>(page)]);
  }
  std::sort(result.annotated_pages.begin(), result.annotated_pages.end());
  result.extractions = std::move(inner.extractions);
  for (Extraction& extraction : result.extractions) {
    extraction.page = crawl.source_index[static_cast<size_t>(extraction.page)];
  }
  result.models = std::move(inner.models);
  result.diagnostics = std::move(inner.diagnostics);
  result.diagnostics.quarantined_pages = std::move(crawl.quarantined);
  return result;
}

}  // namespace ceres

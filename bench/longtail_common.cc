#include "bench/longtail_common.h"

#include <cstdio>
#include <set>

#include "text/normalize.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace ceres::bench {

std::vector<LongTailSiteRun> RunLongTail(const ParsedCorpus& corpus) {
  std::vector<LongTailSiteRun> runs(corpus.sites.size());
  ForEachSite(corpus, [&](size_t s) {
    const ParsedSite& site = corpus.sites[s];
    LongTailSiteRun run;
    run.site = &site;
    run.num_pages = static_cast<int64_t>(site.pages.size());
    PipelineConfig config;
    config.extraction.confidence_threshold = 0.0;  // Sweep later.
    Result<PipelineResult> result =
        RunPipeline(site.pages, corpus.corpus.seed_kb, config);
    run.status = result.status();
    if (result.ok()) {
      run.result = std::move(result).value();
      run.annotated_pages =
          static_cast<int64_t>(run.result.annotated_pages.size());
      for (const Annotation& annotation : run.result.annotations) {
        if (annotation.predicate != kNamePredicate) ++run.annotations;
      }
    }
    std::fprintf(stderr, "[longtail] %s: %lld pages, %lld annotations\n",
                 site.name.c_str(), static_cast<long long>(run.num_pages),
                 static_cast<long long>(run.annotations));
    runs[s] = std::move(run);
  });
  return runs;
}

ThresholdPoint CountAtThreshold(const LongTailSiteRun& run,
                                double threshold) {
  ThresholdPoint point;
  point.threshold = threshold;
  for (const Extraction& extraction : run.result.extractions) {
    if (extraction.predicate == kNamePredicate) continue;
    if (extraction.confidence < threshold) continue;
    ++point.extractions;
    const eval::PageTruth& truth =
        run.site->truth.pages[static_cast<size_t>(extraction.page)];
    if (truth.Asserts(extraction.node, extraction.predicate) &&
        eval::SubjectMatchesTruth(extraction, truth)) {
      ++point.correct;
    }
  }
  return point;
}

std::string Table8ShapeViolation(const std::vector<LongTailSiteRun>& runs,
                                 const std::string& site, bool precise) {
  for (const LongTailSiteRun& run : runs) {
    if (run.site->name != site) continue;
    const ThresholdPoint point = CountAtThreshold(run, 0.5);
    const bool holds = run.status.ok() &&
                       (precise ? point.extractions > 0 &&
                                      point.precision() >= 0.9
                                : point.extractions == 0);
    if (holds) return "";
    return StrCat("SHAPE VIOLATION: ", site, ": ", point.correct, " of ",
                  point.extractions, " extractions correct, pipeline ",
                  run.status.ToString());
  }
  return StrCat("SHAPE VIOLATION: ", site, " missing");
}

}  // namespace ceres::bench

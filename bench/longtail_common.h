#ifndef CERES_BENCH_LONGTAIL_COMMON_H_
#define CERES_BENCH_LONGTAIL_COMMON_H_

#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace ceres::bench {

/// Results of running CERES-Full over one long-tail site with annotation
/// and extraction over all pages (the paper's CommonCrawl protocol — there
/// is no train/eval split in §5.5; extractions are judged by sampling).
struct LongTailSiteRun {
  const ParsedSite* site = nullptr;
  /// The pipeline's status; `result` is empty when it is not OK.
  Status status;
  PipelineResult result;
  int64_t num_pages = 0;
  int64_t annotated_pages = 0;
  int64_t annotations = 0;
};

/// Runs the full corpus; extraction confidence floor 0 so callers can
/// sweep thresholds.
std::vector<LongTailSiteRun> RunLongTail(const ParsedCorpus& corpus);

/// Extraction counts and ground-truth precision at a confidence threshold.
struct ThresholdPoint {
  double threshold = 0;
  int64_t extractions = 0;
  int64_t correct = 0;
  double precision() const {
    return extractions == 0
               ? 0.0
               : static_cast<double>(correct) /
                     static_cast<double>(extractions);
  }
};

/// Counts correct/total relation extractions (NAME excluded) for one site
/// at a threshold.
ThresholdPoint CountAtThreshold(const LongTailSiteRun& run,
                                double threshold);

/// The §5.5 shape at 0.5 confidence (Table 8): the near-zero KB overlap
/// sites and the chart-only site make no relation extractions...
inline constexpr const char* kTable8SilentSites[] = {
    "bcdb.com", "bmxmdb.com", "boxofficemojo.com"};
/// ...while the mainstream sites make some, at precision >= 0.9.
inline constexpr const char* kTable8PreciseSites[] = {"themoviedb.org",
                                                      "rottentomatoes.com"};

/// Checks `site` in `runs` against the Table 8 shape: present, its
/// pipeline OK, and at 0.5 confidence either extracting at precision
/// >= 0.9 (`precise`) or extracting nothing. Returns "" when the shape
/// holds, else a one-line `SHAPE VIOLATION: ...` message.
std::string Table8ShapeViolation(const std::vector<LongTailSiteRun>& runs,
                                 const std::string& site, bool precise);

}  // namespace ceres::bench

#endif  // CERES_BENCH_LONGTAIL_COMMON_H_

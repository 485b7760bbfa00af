// Table 8 — Per-site breakdown on the 33-site long-tail corpus at the 0.5
// confidence threshold: pages, annotated pages, annotations, extractions,
// the extraction/annotation leverage ratios, and ground-truth precision.
//
// Paper shape highlights reproduced by the synthetic corpus: mainstream
// sites (themoviedb, rottentomatoes) at >= 0.9 precision; non-English
// sites performing on par; sites with semantic-ambiguity quirks
// (spicyonion, christianfilmdatabase, laborfilms) well below average;
// chart-only boxofficemojo and near-zero-overlap bcdb/bmxmdb correctly
// producing nothing.
//
// Every run checks the §5.5 shape and exits 1 on a violation: bcdb,
// bmxmdb and boxofficemojo make 0 relation extractions at 0.5 confidence;
// themoviedb and rottentomatoes make some, at precision >= 0.9. ctest runs
// it as paper_shape.table8_longtail_sites; Table8ShapeTest runs the same
// check (Table8ShapeViolation) at scale 0.25.

#include <cstdio>
#include <set>
#include <string>

#include "bench/longtail_common.h"

int main() {
  using namespace ceres;         // NOLINT(build/namespaces)
  using namespace ceres::bench;  // NOLINT(build/namespaces)
  const double scale = synth::EnvScale();
  std::printf(
      "Table 8: long-tail per-site results at 0.5 confidence "
      "(scale=%.2f)\n\n",
      scale);

  ParsedCorpus corpus = ParseCorpus(synth::MakeLongTailCorpus(scale));
  std::vector<LongTailSiteRun> runs = RunLongTail(corpus);

  eval::TableReport table({"Website", "Focus", "#Pages", "#AnnPages",
                           "#Annotations", "#Extractions", "Extr/AnnPages",
                           "Extr/Ann", "Precision"});
  int64_t total_pages = 0;
  int64_t total_ann_pages = 0;
  int64_t total_annotations = 0;
  ThresholdPoint total;
  int64_t total_extracted_pages = 0;

  for (const LongTailSiteRun& run : runs) {
    ThresholdPoint point = CountAtThreshold(run, 0.5);
    std::set<PageIndex> extracted_pages;
    for (const Extraction& extraction : run.result.extractions) {
      if (extraction.confidence >= 0.5 &&
          extraction.predicate != kNamePredicate) {
        extracted_pages.insert(extraction.page);
      }
    }
    const bool any = point.extractions > 0;
    const double page_ratio =
        run.annotated_pages == 0
            ? 0.0
            : static_cast<double>(extracted_pages.size()) /
                  static_cast<double>(run.annotated_pages);
    const double ann_ratio =
        run.annotations == 0
            ? 0.0
            : static_cast<double>(point.extractions) /
                  static_cast<double>(run.annotations);
    table.AddRow({run.site->name, run.site->focus,
                  std::to_string(run.num_pages),
                  std::to_string(run.annotated_pages),
                  std::to_string(run.annotations),
                  std::to_string(point.extractions),
                  eval::FormatRatio(page_ratio),
                  eval::FormatRatio(ann_ratio),
                  eval::RatioOrNa(any, point.precision())});
    total_pages += run.num_pages;
    total_ann_pages += run.annotated_pages;
    total_annotations += run.annotations;
    total.extractions += point.extractions;
    total.correct += point.correct;
    total_extracted_pages += static_cast<int64_t>(extracted_pages.size());
  }
  table.AddRow(
      {"Total", "-", std::to_string(total_pages),
       std::to_string(total_ann_pages), std::to_string(total_annotations),
       std::to_string(total.extractions),
       eval::FormatRatio(total_ann_pages == 0
                             ? 0.0
                             : static_cast<double>(total_extracted_pages) /
                                   static_cast<double>(total_ann_pages)),
       eval::FormatRatio(total_annotations == 0
                             ? 0.0
                             : static_cast<double>(total.extractions) /
                                   static_cast<double>(total_annotations)),
       eval::FormatRatio(total.precision())});
  table.Print();
  std::printf(
      "\nPaper (Table 8): 433,832 pages; 70,050 annotated pages; 414,074 "
      "annotations; 1,688,913 extractions (ratio 4.08 per annotation); "
      "average precision 0.83.\n");

  std::string violations;
  for (const char* site : kTable8SilentSites) {
    const std::string violation = Table8ShapeViolation(runs, site, false);
    if (!violation.empty()) violations += violation + "\n";
  }
  for (const char* site : kTable8PreciseSites) {
    const std::string violation = Table8ShapeViolation(runs, site, true);
    if (!violation.empty()) violations += violation + "\n";
  }
  if (!violations.empty()) {
    std::printf("%s", violations.c_str());
    return 1;
  }
  std::printf(
      "Shape holds: bcdb, bmxmdb and boxofficemojo produce 0 extractions; "
      "themoviedb and rottentomatoes extract at >= 0.9 precision.\n");
  return 0;
}

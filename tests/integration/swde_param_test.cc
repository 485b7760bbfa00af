// Parameterized property sweep over the four SWDE-style verticals: for
// every vertical, the full pipeline must reach the quality band the paper
// establishes, and core invariants (ground truth resolvable, extraction
// determinism, confidence monotonicity) must hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/pipeline.h"
#include "dom/html_parser.h"
#include "eval/metrics.h"
#include "synth/corpora.h"
#include "synth/truth.h"

namespace ceres {
namespace {

// gtest lists a parameter without a PrintTo as its raw bytes, and ctest
// takes that listing into the test names; the padding is an explicit,
// zeroed member so those names do not carry stack bytes.
struct VerticalCase {
  VerticalCase(synth::SwdeVertical vertical_in, double min_f1_in)
      : vertical(vertical_in), min_f1(min_f1_in) {}

  synth::SwdeVertical vertical;
  int32_t zero_padding = 0;
  // Quality floor for the aggregate page-hit F1 over the KB-covered
  // predicates at tiny scale (well below the full-scale numbers, but the
  // property must hold even on small corpora).
  double min_f1;
};
static_assert(sizeof(VerticalCase) ==
                  sizeof(synth::SwdeVertical) + sizeof(int32_t) +
                      sizeof(double),
              "VerticalCase must have no implicit padding");

std::string CaseName(const ::testing::TestParamInfo<VerticalCase>& info) {
  std::string name = synth::SwdeVerticalName(info.param.vertical);
  name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
  return name;
}

class SwdeVerticalTest : public ::testing::TestWithParam<VerticalCase> {
 protected:
  static constexpr double kScale = 0.25;

  struct SiteRun {
    std::vector<DomDocument> pages;
    eval::SiteTruth truth;
    PipelineResult result;
    std::vector<PageIndex> eval_pages;
  };

  // Runs the pipeline over the first few sites of the vertical's corpus.
  std::vector<SiteRun> RunVertical(const synth::Corpus& corpus,
                                   size_t max_sites) {
    std::vector<SiteRun> runs;
    for (size_t s = 0; s < std::min(max_sites, corpus.sites.size()); ++s) {
      SiteRun run;
      for (const synth::GeneratedPage& page : corpus.sites[s].pages) {
        Result<DomDocument> parsed = ParseHtml(page.html);
        EXPECT_TRUE(parsed.ok());
        run.pages.push_back(std::move(parsed).value());
      }
      run.truth = synth::BuildSiteTruth(corpus.sites[s].pages, run.pages);
      EXPECT_EQ(run.truth.unresolved, 0) << corpus.sites[s].name;
      PipelineConfig config;
      for (size_t i = 0; i < run.pages.size(); ++i) {
        (i % 2 == 0 ? config.annotation_pages : config.extraction_pages)
            .push_back(static_cast<PageIndex>(i));
      }
      run.eval_pages = config.extraction_pages;
      config.extraction.confidence_threshold = 0.0;
      Result<PipelineResult> result =
          RunPipeline(run.pages, corpus.seed_kb, config);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      run.result = std::move(result).value();
      runs.push_back(std::move(run));
    }
    return runs;
  }
};

TEST_P(SwdeVerticalTest, PipelineMeetsQualityFloor) {
  synth::Corpus corpus = synth::MakeSwdeCorpus(GetParam().vertical, kScale);
  std::vector<PredicateId> predicates{kNamePredicate};
  for (const std::string& name : corpus.eval_predicates) {
    PredicateId id = *corpus.seed_kb.ontology().PredicateByName(name);
    // Only KB-covered predicates (e.g. MPAA rating is not).
    for (const Triple& triple : corpus.seed_kb.triples()) {
      if (triple.predicate == id) {
        predicates.push_back(id);
        break;
      }
    }
  }
  eval::Prf total;
  for (const SiteRun& run : RunVertical(corpus, 3)) {
    eval::ScoreOptions options;
    options.pages = run.eval_pages;
    options.predicates = predicates;
    options.confidence_threshold = 0.5;
    total += eval::ScorePageHits(run.result.extractions, run.truth,
                                 options);
  }
  EXPECT_GT(total.f1(), GetParam().min_f1)
      << "tp=" << total.tp << " fp=" << total.fp << " fn=" << total.fn;
}

TEST_P(SwdeVerticalTest, ExtractionsRespectConfidenceMonotonicity) {
  synth::Corpus corpus = synth::MakeSwdeCorpus(GetParam().vertical, kScale);
  for (const SiteRun& run : RunVertical(corpus, 2)) {
    eval::ScoreOptions low;
    low.pages = run.eval_pages;
    low.confidence_threshold = 0.5;
    eval::ScoreOptions high = low;
    high.confidence_threshold = 0.9;
    eval::Prf at_low =
        eval::ScoreExtractions(run.result.extractions, run.truth, low);
    eval::Prf at_high =
        eval::ScoreExtractions(run.result.extractions, run.truth, high);
    // Volume can only shrink as the threshold rises.
    EXPECT_LE(at_high.tp + at_high.fp, at_low.tp + at_low.fp);
  }
}

TEST_P(SwdeVerticalTest, AnnotationsLandOnAnnotationPagesOnly) {
  synth::Corpus corpus = synth::MakeSwdeCorpus(GetParam().vertical, kScale);
  for (const SiteRun& run : RunVertical(corpus, 2)) {
    for (const Annotation& annotation : run.result.annotations) {
      EXPECT_EQ(annotation.page % 2, 0);
    }
    for (const Extraction& extraction : run.result.extractions) {
      EXPECT_EQ(extraction.page % 2, 1);
    }
  }
}

TEST_P(SwdeVerticalTest, AtMostOneNameExtractionPerPage) {
  synth::Corpus corpus = synth::MakeSwdeCorpus(GetParam().vertical, kScale);
  for (const SiteRun& run : RunVertical(corpus, 2)) {
    std::map<PageIndex, int> names;
    for (const Extraction& extraction : run.result.extractions) {
      if (extraction.predicate == kNamePredicate) {
        ++names[extraction.page];
      }
    }
    for (const auto& [page, count] : names) EXPECT_EQ(count, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVerticals, SwdeVerticalTest,
    ::testing::Values(VerticalCase{synth::SwdeVertical::kMovie, 0.7},
                      VerticalCase{synth::SwdeVertical::kNbaPlayer, 0.8},
                      VerticalCase{synth::SwdeVertical::kUniversity, 0.7},
                      VerticalCase{synth::SwdeVertical::kBook, 0.5}),
    CaseName);

}  // namespace
}  // namespace ceres

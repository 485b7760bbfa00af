// Chaos integration tests: seeded fault injection over a synthetic site,
// run through the resilient pipeline. The contract under corruption is
// graceful degradation — no crash, exact quarantine accounting, overall F1
// that corruption does not raise, and clean pages scoring as well as they
// do without any corruption nearby.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "dom/html_parser.h"
#include "eval/metrics.h"
#include "robustness/fault_injector.h"
#include "robustness/resilient_loader.h"
#include "synth/corpora.h"
#include "synth/kb_builder.h"
#include "synth/truth.h"

namespace ceres {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::MovieWorldConfig config;
    config.scale = 0.25;
    world_ = new synth::World(synth::BuildMovieWorld(config));
    synth::SeedKbConfig kb_config;
    kb_config.default_coverage = 0.9;
    seed_kb_ = new KnowledgeBase(synth::BuildSeedKb(*world_, kb_config));

    synth::SiteSpec spec;
    spec.name = "chaos.example";
    spec.seed = 33;
    spec.tmpl.topic_type = "film";
    spec.tmpl.css_prefix = "ch";
    spec.tmpl.num_recommendations = 3;
    spec.tmpl.sections = {
        {synth::pred::kFilmDirectedBy, "director",
         synth::SectionLayout::kRow, 0.05, 3},
        {synth::pred::kFilmWrittenBy, "writer", synth::SectionLayout::kRow,
         0.05, 4},
        {synth::pred::kFilmHasCastMember, "cast",
         synth::SectionLayout::kList, 0.05, 15},
        {synth::pred::kFilmHasGenre, "genre", synth::SectionLayout::kList,
         0.05, 5},
        {synth::pred::kFilmReleaseDate, "release_date",
         synth::SectionLayout::kRow, 0.05, 1},
    };
    TypeId film = *world_->kb.ontology().TypeByName("film");
    const auto& films = world_->OfType(film);
    spec.topics.assign(films.begin(), films.begin() + 80);
    generated_ = new std::vector<synth::GeneratedPage>(
        GenerateSite(*world_, spec));
  }

  static void TearDownTestSuite() {
    delete generated_;
    delete seed_kb_;
    delete world_;
    generated_ = nullptr;
    seed_kb_ = nullptr;
    world_ = nullptr;
  }

  static std::vector<RawPage> RawCrawl() {
    std::vector<RawPage> raw;
    raw.reserve(generated_->size());
    for (const synth::GeneratedPage& page : *generated_) {
      raw.push_back(RawPage{page.url, page.html});
    }
    return raw;
  }

  // Ground truth indexed like the raw crawl (clean parse of every page).
  static eval::SiteTruth Truth() {
    std::vector<DomDocument> parsed;
    for (const synth::GeneratedPage& page : *generated_) {
      Result<DomDocument> doc = ParseHtml(page.html);
      EXPECT_TRUE(doc.ok());
      parsed.push_back(std::move(doc).value());
    }
    return synth::BuildSiteTruth(*generated_, parsed);
  }

  // In-place faults only: crawl shape (page count and order) is preserved,
  // so raw indices still line up with the generator's ground truth.
  static FaultInjectionConfig InPlaceFaults(double rate, uint64_t seed) {
    FaultInjectionConfig config;
    config.seed = seed;
    config.page_fault_rate = rate;
    config.node_bomb_weight = 1.0;
    return config;
  }

  // Lowered per-page parse budget: the site's real pages stay far below
  // it, node-bombed pages blow it and quarantine.
  static ResilientLoadOptions LoadOptions() {
    ResilientLoadOptions options;
    options.parse.max_nodes = 20000;
    return options;
  }

  static double CleanPageF1(const PipelineResult& result,
                            const eval::SiteTruth& truth,
                            const std::vector<PageIndex>& clean_pages) {
    eval::ScoreOptions options;
    options.pages = clean_pages;
    options.confidence_threshold = 0.5;
    return eval::ScoreExtractions(result.extractions, truth, options).f1();
  }

  static synth::World* world_;
  static KnowledgeBase* seed_kb_;
  static std::vector<synth::GeneratedPage>* generated_;
};

synth::World* ChaosTest::world_ = nullptr;
KnowledgeBase* ChaosTest::seed_kb_ = nullptr;
std::vector<synth::GeneratedPage>* ChaosTest::generated_ = nullptr;

TEST_F(ChaosTest, ThirtyPercentCorruptionDegradesGracefully) {
  const std::vector<RawPage> raw = RawCrawl();
  const eval::SiteTruth truth = Truth();

  FaultReport report;
  std::vector<RawPage> corrupted =
      InjectFaults(raw, InPlaceFaults(0.30, /*seed=*/77), &report);
  ASSERT_EQ(corrupted.size(), raw.size());
  ASSERT_GT(report.faults.size(), 10u);

  Result<PipelineResult> chaos_run =
      RunPipelineResilient(corrupted, *seed_kb_, PipelineConfig{},
                           LoadOptions());
  ASSERT_TRUE(chaos_run.ok()) << chaos_run.status().ToString();
  const PipelineDiagnostics& diag = chaos_run->diagnostics;

  // Exact quarantine accounting: a page is quarantined iff its corrupted
  // bytes no longer parse under the load options.
  std::set<PageIndex> expected_quarantine;
  for (size_t i = 0; i < corrupted.size(); ++i) {
    if (!ParseHtml(corrupted[i].html, LoadOptions().parse).ok()) {
      expected_quarantine.insert(static_cast<PageIndex>(i));
    }
  }
  std::set<PageIndex> actual_quarantine;
  for (const QuarantinedPage& page : diag.quarantined_pages) {
    EXPECT_FALSE(page.reason.ok());
    actual_quarantine.insert(page.page);
  }
  EXPECT_EQ(actual_quarantine, expected_quarantine);
  // Node-bombed pages are corrupted beyond the parse budget by
  // construction, so every one of them must be in the quarantine list.
  for (PageIndex page : report.PagesWith(FaultType::kNodeBomb)) {
    EXPECT_EQ(actual_quarantine.count(page), 1u) << "page " << page;
  }
  EXPECT_FALSE(expected_quarantine.empty());

  // Quarantined pages contribute nothing downstream.
  for (const Extraction& extraction : chaos_run->extractions) {
    EXPECT_EQ(expected_quarantine.count(extraction.page), 0u);
  }
  for (PageIndex page : expected_quarantine) {
    EXPECT_EQ(chaos_run->cluster_of_page[static_cast<size_t>(page)], -1);
  }

  // Clean pages score within 2 F1 points of a fully uncorrupted run.
  std::set<PageIndex> faulted;
  for (const InjectedFault& fault : report.faults) {
    faulted.insert(fault.source_page);
  }
  std::vector<PageIndex> clean_pages;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (faulted.count(static_cast<PageIndex>(i)) == 0) {
      clean_pages.push_back(static_cast<PageIndex>(i));
    }
  }
  Result<PipelineResult> baseline =
      RunPipelineResilient(raw, *seed_kb_, PipelineConfig{}, LoadOptions());
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(baseline->diagnostics.quarantined_pages.empty());
  const double baseline_f1 = CleanPageF1(*baseline, truth, clean_pages);
  const double chaos_f1 = CleanPageF1(*chaos_run, truth, clean_pages);
  EXPECT_GT(baseline_f1, 0.65);
  EXPECT_GE(chaos_f1, baseline_f1 - 0.02)
      << "clean-page F1 dropped from " << baseline_f1 << " to " << chaos_f1;

  // Over every page, corruption lowers F1 or leaves it within noise.
  eval::ScoreOptions all_pages;
  all_pages.confidence_threshold = 0.5;
  const double overall_baseline =
      eval::ScoreExtractions(baseline->extractions, truth, all_pages).f1();
  const double overall_chaos =
      eval::ScoreExtractions(chaos_run->extractions, truth, all_pages).f1();
  EXPECT_LE(overall_chaos, overall_baseline + 0.03)
      << "overall F1 rose from " << overall_baseline << " to "
      << overall_chaos;
}

TEST_F(ChaosTest, CrawlShapeFaultsAreAccountedAndSurvivable) {
  const std::vector<RawPage> raw = RawCrawl();
  FaultInjectionConfig config;
  config.seed = 11;
  config.page_fault_rate = 0.2;
  config.drop_rate = 0.1;
  config.duplicate_rate = 0.1;
  config.node_bomb_weight = 1.0;
  FaultReport report;
  std::vector<RawPage> corrupted = InjectFaults(raw, config, &report);
  ASSERT_EQ(corrupted.size(),
            raw.size() - static_cast<size_t>(report.count(FaultType::kDrop)) +
                static_cast<size_t>(report.count(FaultType::kDuplicate)));

  Result<PipelineResult> result =
      RunPipelineResilient(corrupted, *seed_kb_, PipelineConfig{},
                           LoadOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Indices in the result refer to the corrupted crawl.
  EXPECT_EQ(result->cluster_of_page.size(), corrupted.size());
  for (const Extraction& extraction : result->extractions) {
    EXPECT_GE(extraction.page, 0);
    EXPECT_LT(static_cast<size_t>(extraction.page), corrupted.size());
  }
  EXPECT_GT(result->extractions.size(), 100u);
}

}  // namespace
}  // namespace ceres

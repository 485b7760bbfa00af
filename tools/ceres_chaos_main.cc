// ceres_chaos — fault-injection sweep over the resilient CERES pipeline.
//
// Generates a synthetic film site with node-level ground truth, corrupts
// its crawl at increasing rates with seeded faults (truncation, byte
// garbling, tag deletion, entity breakage, node bombs), and runs the
// resilient pipeline at each rate. For every run it prints quarantine and
// skip accounting plus extraction F1, and it verifies the degradation
// invariants:
//
//   * every run completes without error (graceful degradation, no crash);
//   * quarantine accounting is exact: a page is in the diagnostics iff its
//     corrupted bytes no longer parse under the load budget;
//   * overall F1 degrades (weakly) monotonically as corruption grows;
//   * pages the injector never touched score within 2 F1 points of the
//     uncorrupted baseline;
//   * a pre-expired deadline produces a typed skip, not a hang.
//
// Exit status 0 when every invariant holds, 1 otherwise.
//
// Usage:
//   ceres_chaos [--rates 0,0.1,0.2,0.3,0.5] [--seed 77] [--pages 80]
//               [--budget-ms N] [--verbose]
//
// Rates lie in [0, 1], --pages is at least 10 and --budget-ms at least 0;
// any other value prints the usage and exits 2.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "dom/html_parser.h"
#include "eval/metrics.h"
#include "flag_value.h"
#include "robustness/fault_injector.h"
#include "robustness/resilient_loader.h"
#include "synth/corpora.h"
#include "synth/kb_builder.h"
#include "synth/truth.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

using namespace ceres;  // NOLINT(build/namespaces)

struct Options {
  std::vector<double> rates = {0.0, 0.1, 0.2, 0.3, 0.5};
  uint64_t seed = 77;
  size_t pages = 80;
  int budget_ms = 0;
  bool verbose = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: ceres_chaos [--rates 0,0.1,0.3] [--seed N]\n"
               "  [--pages N] [--budget-ms N] [--verbose]\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    bool ok = true;
    if (arg == "--rates") {
      ok = next(&value);
      options->rates.clear();
      for (const std::string& item : Split(value, ',')) {
        options->rates.push_back(0);
        ok = ok && tools::ParseFlagValue(item, &options->rates.back(), 0.0,
                                         1.0);
      }
    } else if (arg == "--seed") {
      ok = next(&value) && tools::ParseFlagValue(value, &options->seed);
    } else if (arg == "--pages") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->pages, size_t{10});
    } else if (arg == "--budget-ms") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->budget_ms, 0);
    } else if (arg == "--verbose") {
      options->verbose = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad %s: %s\n", arg.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

int g_violations = 0;

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", what);
    ++g_violations;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  if (options.verbose) SetLogLevel(LogLevel::kInfo);

  // Synthetic film site with node-level ground truth.
  synth::MovieWorldConfig world_config;
  world_config.scale = 0.25;
  synth::World world = synth::BuildMovieWorld(world_config);
  synth::SeedKbConfig kb_config;
  kb_config.default_coverage = 0.9;
  KnowledgeBase seed_kb = synth::BuildSeedKb(world, kb_config);

  synth::SiteSpec spec;
  spec.name = "chaos.example";
  spec.seed = 33;
  spec.tmpl.topic_type = "film";
  spec.tmpl.css_prefix = "ch";
  spec.tmpl.num_recommendations = 3;
  spec.tmpl.sections = {
      {synth::pred::kFilmDirectedBy, "director", synth::SectionLayout::kRow,
       0.05, 3},
      {synth::pred::kFilmWrittenBy, "writer", synth::SectionLayout::kRow,
       0.05, 4},
      {synth::pred::kFilmHasCastMember, "cast", synth::SectionLayout::kList,
       0.05, 15},
      {synth::pred::kFilmHasGenre, "genre", synth::SectionLayout::kList, 0.05,
       5},
      {synth::pred::kFilmReleaseDate, "release_date",
       synth::SectionLayout::kRow, 0.05, 1},
  };
  TypeId film = *world.kb.ontology().TypeByName("film");
  const auto& films = world.OfType(film);
  const size_t num_pages = std::min(options.pages, films.size());
  spec.topics.assign(films.begin(),
                     films.begin() + static_cast<long>(num_pages));
  std::vector<synth::GeneratedPage> generated = GenerateSite(world, spec);

  std::vector<RawPage> raw;
  std::vector<DomDocument> clean_parsed;
  for (const synth::GeneratedPage& page : generated) {
    raw.push_back(RawPage{page.url, page.html});
    Result<DomDocument> doc = ParseHtml(page.html);
    if (!doc.ok()) {
      std::fprintf(stderr, "generator produced unparseable page: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    clean_parsed.push_back(std::move(doc).value());
  }
  eval::SiteTruth truth = synth::BuildSiteTruth(generated, clean_parsed);

  // Load budget: real pages sit far below it, node bombs blow it.
  ResilientLoadOptions load_options;
  load_options.parse.max_nodes = 20000;

  PipelineConfig pipeline_config;
  if (options.budget_ms > 0) {
    pipeline_config.cluster_time_budget =
        std::chrono::milliseconds(options.budget_ms);
  }

  eval::ScoreOptions score_all;
  score_all.confidence_threshold = 0.5;

  std::fprintf(stderr,
               "site: %zu pages, %lld KB entities; sweeping %zu rates\n",
               raw.size(), static_cast<long long>(seed_kb.num_entities()),
               options.rates.size());
  std::printf(
      "%-6s %-8s %-11s %-9s %-12s %-8s %-8s\n", "rate", "faults",
      "quarantined", "skipped", "extractions", "f1", "clean_f1");

  double baseline_f1 = -1.0;
  double previous_f1 = -1.0;
  for (double rate : options.rates) {
    FaultInjectionConfig fault_config;
    fault_config.seed = options.seed;
    fault_config.page_fault_rate = rate;
    fault_config.node_bomb_weight = 1.0;
    FaultReport report;
    std::vector<RawPage> corrupted = InjectFaults(raw, fault_config, &report);

    Result<PipelineResult> result = RunPipelineResilient(
        corrupted, seed_kb, pipeline_config, load_options);
    Require(result.ok(), "corrupted run completes without error");
    if (!result.ok()) {
      std::fprintf(stderr, "rate %.2f failed: %s\n", rate,
                   result.status().ToString().c_str());
      continue;
    }
    const PipelineDiagnostics& diag = result->diagnostics;

    // Exact quarantine accounting against an independent re-parse.
    std::set<PageIndex> expected;
    for (size_t i = 0; i < corrupted.size(); ++i) {
      if (!ParseHtml(corrupted[i].html, load_options.parse).ok()) {
        expected.insert(static_cast<PageIndex>(i));
      }
    }
    std::set<PageIndex> actual;
    for (const QuarantinedPage& page : diag.quarantined_pages) {
      actual.insert(page.page);
    }
    Require(actual == expected,
            "quarantine list matches the pages that no longer parse");

    // Clean pages: never touched by the injector.
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
    eval::ScoreOptions score_clean = score_all;
    score_clean.pages = clean_pages;

    const double f1 =
        eval::ScoreExtractions(result->extractions, truth, score_all).f1();
    const double clean_f1 =
        eval::ScoreExtractions(result->extractions, truth, score_clean).f1();

    std::printf("%-6.2f %-8zu %-11zu %-9zu %-12zu %-8.4f %-8.4f\n", rate,
                report.faults.size(), diag.quarantined_pages.size(),
                diag.skipped_clusters.size(), result->extractions.size(), f1,
                clean_f1);
    if (options.verbose) {
      std::fputs(diag.Summary().c_str(), stderr);
    }

    if (baseline_f1 < 0) {
      baseline_f1 = f1;
    } else {
      Require(clean_f1 >= baseline_f1 - 0.02,
              "clean-page F1 within 2 points of the uncorrupted baseline");
    }
    if (previous_f1 >= 0) {
      Require(f1 <= previous_f1 + 0.03,
              "overall F1 degrades monotonically with corruption");
    }
    previous_f1 = f1;
  }

  // Deadline behaviour: a pre-expired run deadline must come back as typed
  // skips in the diagnostics, never a hang or a crash.
  PipelineConfig expired_config;
  expired_config.cluster_pages = false;
  expired_config.deadline = Deadline::After(std::chrono::milliseconds(0));
  Result<PipelineResult> expired =
      RunPipelineResilient(raw, seed_kb, expired_config, load_options);
  Require(expired.ok(), "pre-expired deadline still returns a result");
  if (expired.ok()) {
    Require(expired->diagnostics.run_deadline_expired,
            "run_deadline_expired is set");
    bool typed_skip = false;
    for (const ClusterSkip& skip : expired->diagnostics.skipped_clusters) {
      if (skip.reason.code() == StatusCode::kDeadlineExceeded) {
        typed_skip = true;
      }
    }
    Require(typed_skip, "deadline expiry is recorded as a typed skip");
    std::fprintf(stderr, "deadline run: %s",
                 expired->diagnostics.Summary().c_str());
  }

  if (g_violations > 0) {
    std::fprintf(stderr, "%d invariant(s) violated\n", g_violations);
    return 1;
  }
  std::fprintf(stderr, "all degradation invariants hold\n");
  return 0;
}

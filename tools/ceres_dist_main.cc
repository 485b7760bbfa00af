// ceres_dist — distributed extraction demo and self-check.
//
//   ceres_dist [--workers N] [--crash-rate F] [--hang-rate F]
//              [--checkpoint-dir D] [--scale F] [--smoke] [--seed N]
//              [--verbose]
//
// Generates a synthetic SWDE movie corpus, runs it through the
// distributed coordinator on forked worker processes, one shard per site
// (optionally with injected worker crashes/hangs on that fraction of the
// shards), reruns it single-process, and verifies the merged extractions
// are byte-identical for non-quarantined shards. Exit 0 iff every check
// holds.
//
// A malformed or out-of-range numeric flag value (--workers below 1, a
// rate outside [0, 1], --scale <= 0) prints the usage and exits 2.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "flag_value.h"
#include "robustness/fault_injector.h"
#include "synth/corpora.h"

namespace {

using namespace ceres;  // NOLINT(build/namespaces)

struct Options {
  int workers = 3;
  double crash_rate = 0.0;
  double hang_rate = 0.0;
  std::string checkpoint_dir;
  double scale = 1.0;
  uint64_t seed = 7;
  bool verbose = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: ceres_dist [--workers N] [--crash-rate F]\n"
               "  [--hang-rate F] [--checkpoint-dir D] [--scale F] [--smoke]\n"
               "  [--seed N] [--verbose]\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    bool ok = true;
    if (arg == "--workers") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->workers, 1);
    } else if (arg == "--crash-rate") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->crash_rate, 0.0, 1.0);
    } else if (arg == "--hang-rate") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->hang_rate, 0.0, 1.0);
    } else if (arg == "--checkpoint-dir") {
      if (!next(&options->checkpoint_dir)) return false;
    } else if (arg == "--scale") {
      // Strictly positive: the smallest normal double is the floor.
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->scale,
                                 std::numeric_limits<double>::min());
    } else if (arg == "--smoke") {
      options->scale = 0.2;
    } else if (arg == "--seed") {
      ok = next(&value) && tools::ParseFlagValue(value, &options->seed);
    } else if (arg == "--verbose") {
      options->verbose = true;
    } else {
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad %s: %s\n", arg.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

bool SameExtractions(const std::vector<fusion::SiteExtractions>& a,
                     const std::vector<fusion::SiteExtractions>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].site != b[i].site) return false;
    if (a[i].extractions.size() != b[i].extractions.size()) return false;
    for (size_t j = 0; j < a[i].extractions.size(); ++j) {
      const Extraction& x = a[i].extractions[j];
      const Extraction& y = b[i].extractions[j];
      if (x.page != y.page || x.node != y.node ||
          x.predicate != y.predicate || x.subject != y.subject ||
          x.object != y.object || x.confidence != y.confidence) {
        return false;
      }
    }
  }
  return true;
}

int Run(const Options& options) {
  synth::Corpus corpus =
      synth::MakeSwdeCorpus(synth::SwdeVertical::kMovie, options.scale, 100);
  std::vector<dist::ShardSite> sites;
  for (const synth::SyntheticSite& site : corpus.sites) {
    dist::ShardSite shard_site;
    shard_site.site = site.name;
    for (const synth::GeneratedPage& page : site.pages) {
      shard_site.pages.push_back(RawPage{page.url, page.html});
    }
    sites.push_back(std::move(shard_site));
  }

  dist::DistConfig config;
  config.num_workers = options.workers;
  config.checkpoint_dir = options.checkpoint_dir;
  // One shard per site: the rates are fractions of the sites.
  const int num_sites = static_cast<int>(sites.size());
  if (options.crash_rate > 0.0) {
    config.faults = MakeProcessFaultPlan(num_sites, options.crash_rate,
                                         options.seed,
                                         ProcessFaultType::kWorkerCrash);
  }
  if (options.hang_rate > 0.0) {
    std::vector<ProcessFault> hangs =
        MakeProcessFaultPlan(num_sites, options.hang_rate, options.seed + 1,
                             ProcessFaultType::kWorkerHang)
            .faults;
    config.faults.faults.insert(config.faults.faults.end(), hangs.begin(),
                                hangs.end());
  }
  // The watchdog cannot tell "hung" from "computing": its timeout must
  // exceed the slowest shard's, that is one site's, pipeline time. The
  // default 2 s clears the synthetic sites comfortably at these scales;
  // each injected hang then costs one timeout to reclaim.

  Result<dist::DistResult> distributed = dist::RunDistributedExtraction(
      sites, corpus.seed_kb, corpus.seed_kb.ontology(), config);
  if (!distributed.ok()) {
    std::fprintf(stderr, "distributed run: %s\n",
                 distributed.status().ToString().c_str());
    return 1;
  }

  dist::DistConfig reference_config;
  reference_config.pipeline = config.pipeline;
  Result<dist::DistResult> reference = dist::RunSingleProcess(
      sites, corpus.seed_kb, corpus.seed_kb.ontology(), reference_config);
  if (!reference.ok()) {
    std::fprintf(stderr, "single-process run: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }

  const dist::DistDiagnostics& diag = distributed->diagnostics;
  std::printf(
      "ceres_dist: %zu sites, %d shards, %d workers, forked workers%s\n"
      "  completed=%lld quarantined=%zu retries=%lld restarts=%lld "
      "checkpoint_bytes=%lld fused_triples=%zu\n",
      sites.size(), num_sites, options.workers,
      options.crash_rate > 0 || options.hang_rate > 0 ? ", faults injected"
                                                      : "",
      static_cast<long long>(diag.shards_completed),
      diag.quarantined_shards.size(), static_cast<long long>(diag.retries),
      static_cast<long long>(diag.worker_restarts),
      static_cast<long long>(diag.checkpoint_bytes),
      distributed->fused.triples.size());
  if (options.verbose) {
    std::printf("%s", diag.Summary().c_str());
  }

  bool ok = true;
  if (diag.quarantined_shards.empty() && diag.unfinished_shards.empty()) {
    if (!SameExtractions(distributed->site_extractions,
                         reference->site_extractions)) {
      std::fprintf(stderr,
                   "FAIL: distributed merge differs from single-process "
                   "reference\n");
      ok = false;
    }
  }
  // Every planned crash fires on its shard's first attempt and must have
  // been retried through. A shard resumed from its checkpoint ran no
  // attempt, so its crash does not count.
  int64_t crashes_run = 0;
  for (int shard : config.faults.ShardsWith(ProcessFaultType::kWorkerCrash)) {
    if (std::find(diag.shards_from_checkpoint.begin(),
                  diag.shards_from_checkpoint.end(),
                  shard) == diag.shards_from_checkpoint.end()) {
      ++crashes_run;
    }
  }
  if (diag.retries < crashes_run) {
    std::fprintf(stderr,
                 "FAIL: %lld planned crashes ran but only %lld retries\n",
                 static_cast<long long>(crashes_run),
                 static_cast<long long>(diag.retries));
    ok = false;
  }
  if (ok) std::printf("ceres_dist: OK\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  return Run(options);
}

// ceres_dist — distributed extraction demo and self-check.
//
//   ceres_dist [--workers N] [--crash-rate F] [--hang-rate F]
//              [--checkpoint-dir D] [--scale F] [--smoke] [--seed N]
//              [--verbose]
//
// Generates a synthetic SWDE movie corpus, runs it through the
// distributed coordinator on forked worker processes, one shard per site
// (optionally with injected worker crashes/hangs on that fraction of the
// shards), and reruns it single-process. It checks that every completed
// site's extractions are byte-identical to the single-process run's, that
// every planned crash was retried, and that no shard was quarantined or
// left unfinished except by a fault planned on each of its attempts. Exit
// 0 iff every check holds.
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

bool SameExtractions(const std::vector<Extraction>& a,
                     const std::vector<Extraction>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Extraction& x = a[i];
    const Extraction& y = b[i];
    if (x.page != y.page || x.node != y.node || x.predicate != y.predicate ||
        x.subject != y.subject || x.object != y.object ||
        x.confidence != y.confidence) {
      return false;
    }
  }
  return true;
}

/// True when every site of `got` has exactly the extractions of its entry
/// in `reference`. Both are in corpus order; `got` lacks the sites of lost
/// shards.
bool MatchesReference(const std::vector<fusion::SiteExtractions>& got,
                      const std::vector<fusion::SiteExtractions>& reference) {
  size_t r = 0;
  for (const fusion::SiteExtractions& site : got) {
    while (r < reference.size() && reference[r].site != site.site) ++r;
    if (r == reference.size() ||
        !SameExtractions(site.extractions, reference[r].extractions)) {
      return false;
    }
    ++r;
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
  // The watchdog reclaims a worker only once it has used next to no CPU
  // for a whole liveness timeout (2 s by default), so a site that computes
  // for longer is never taken for a hang, at any scale. Each injected hang
  // costs about one timeout to reclaim.

  Result<dist::DistResult> distributed = dist::RunDistributedExtraction(
      sites, corpus.seed_kb, corpus.seed_kb.ontology(), config);
  if (!distributed.ok()) {
    std::fprintf(stderr, "distributed run: %s\n",
                 distributed.status().ToString().c_str());
    return 1;
  }

  Result<dist::DistResult> reference = dist::RunSingleProcess(
      sites, corpus.seed_kb, corpus.seed_kb.ontology());
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
  if (!MatchesReference(distributed->site_extractions,
                        reference->site_extractions)) {
    std::fprintf(stderr,
                 "FAIL: distributed merge differs from single-process "
                 "reference\n");
    ok = false;
  }
  // A lost shard is explained only by a fault planned on every attempt it
  // made. No deadline is set here, so no shard may be left unfinished.
  for (const dist::QuarantinedShard& q : diag.quarantined_shards) {
    bool planned = true;
    for (int attempt = 1; attempt <= q.attempts; ++attempt) {
      planned = planned && config.faults.FaultFor(q.shard, attempt) !=
                               ProcessFaultType::kNone;
    }
    if (!planned) {
      std::fprintf(stderr,
                   "FAIL: shard %d (%s) quarantined with no planned fault: "
                   "%s\n",
                   q.shard, q.site.c_str(), q.last_error.ToString().c_str());
      ok = false;
    }
  }
  if (!diag.unfinished_shards.empty()) {
    std::fprintf(stderr, "FAIL: %zu shards unfinished\n",
                 diag.unfinished_shards.size());
    ok = false;
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

// ceres_dist — coordinator/worker distributed extraction driver.
//
// Two modes:
//
//   ceres_dist --worker (--kb <path> | --kb-image <path>)
//     Worker mode: speaks the wire.h frame protocol on stdin/stdout,
//     running shards against the KB loaded from <path>. --kb parses the
//     portable text format; --kb-image mmap's a frozen KB image
//     read-only — O(1) startup regardless of KB size, and all workers on
//     a machine share the image's page-cache pages instead of each
//     holding a parsed heap copy. This is the argv the coordinator's
//     fork+exec spawn mode targets; it is how a distributed run crosses
//     machine or binary boundaries.
//
//   ceres_dist [--workers N] [--shards N] [--crash-rate F] [--hang-rate F]
//              [--checkpoint-dir D] [--exec] [--scale F] [--smoke]
//              [--seed N] [--verbose]
//     Driver mode: generates a synthetic SWDE movie corpus, runs it
//     through the distributed coordinator (optionally with injected
//     worker crashes/hangs), reruns it single-process, and verifies the
//     merged extractions are byte-identical for non-quarantined shards.
//     With --exec, workers are spawned by fork+exec of this same binary
//     in --worker mode instead of plain fork. Exit 0 iff every check
//     holds.
//
// A malformed or out-of-range numeric flag value (--workers below 1,
// --shards below 0, a rate outside [0, 1], --scale <= 0) prints the usage
// and exits 2.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "dist/worker.h"
#include "flag_value.h"
#include "kb/kb_io.h"
#include "kb/knowledge_base.h"
#include "robustness/fault_injector.h"
#include "synth/corpora.h"
#include "util/string_util.h"

namespace {

using namespace ceres;  // NOLINT(build/namespaces)

struct Options {
  bool worker = false;
  std::string kb_path;
  std::string kb_image_path;
  int workers = 3;
  int shards = 0;
  double crash_rate = 0.0;
  double hang_rate = 0.0;
  std::string checkpoint_dir;
  bool exec_workers = false;
  double scale = 1.0;
  uint64_t seed = 7;
  bool verbose = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: ceres_dist --worker (--kb <path> | --kb-image <path>)\n"
               "       ceres_dist [--workers N] [--shards N]\n"
               "  [--crash-rate F] [--hang-rate F] [--checkpoint-dir D]\n"
               "  [--exec] [--scale F] [--smoke] [--seed N] [--verbose]\n");
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
    if (arg == "--worker") {
      options->worker = true;
    } else if (arg == "--kb") {
      if (!next(&options->kb_path)) return false;
    } else if (arg == "--kb-image") {
      if (!next(&options->kb_image_path)) return false;
    } else if (arg == "--workers") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->workers, 1);
    } else if (arg == "--shards") {
      // 0 keeps the default: one shard per distinct site.
      ok = next(&value) && tools::ParseFlagValue(value, &options->shards, 0);
    } else if (arg == "--crash-rate") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->crash_rate, 0.0, 1.0);
    } else if (arg == "--hang-rate") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->hang_rate, 0.0, 1.0);
    } else if (arg == "--checkpoint-dir") {
      if (!next(&options->checkpoint_dir)) return false;
    } else if (arg == "--exec") {
      options->exec_workers = true;
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

int RunWorkerMode(const Options& options) {
  if (options.kb_path.empty() == options.kb_image_path.empty()) {
    std::fprintf(stderr,
                 "ceres_dist --worker requires exactly one of --kb <path> "
                 "or --kb-image <path>\n");
    return 2;
  }
  Result<KnowledgeBase> kb =
      options.kb_image_path.empty()
          ? LoadKbFromFile(options.kb_path)
          : KnowledgeBase::OpenImage(options.kb_image_path);
  if (!kb.ok()) {
    std::fprintf(stderr, "ceres_dist --worker: %s\n",
                 kb.status().ToString().c_str());
    return 2;
  }
  Status status = dist::RunWorkerLoop(STDIN_FILENO, STDOUT_FILENO, *kb);
  if (!status.ok()) {
    std::fprintf(stderr, "ceres_dist --worker: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
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

int RunDriverMode(const Options& options, const char* self) {
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
  config.num_shards = options.shards;
  config.checkpoint_dir = options.checkpoint_dir;
  const int num_shards = config.num_shards > 0
                             ? config.num_shards
                             : static_cast<int>(sites.size());
  if (options.crash_rate > 0.0) {
    config.faults = MakeProcessFaultPlan(num_shards, options.crash_rate,
                                         options.seed,
                                         ProcessFaultType::kWorkerCrash);
  }
  if (options.hang_rate > 0.0) {
    ProcessFaultPlan hangs = MakeProcessFaultPlan(
        num_shards, options.hang_rate, options.seed + 1,
        ProcessFaultType::kWorkerHang);
    config.faults.faults.insert(config.faults.faults.end(),
                                hangs.faults.begin(), hangs.faults.end());
  }
  // The watchdog cannot tell "hung" from "computing": its timeout must
  // exceed the slowest single site's pipeline time (progress frames are
  // per-site). The default 2 s clears the synthetic sites comfortably at
  // these scales; each injected hang then costs one timeout to reclaim.

  std::string kb_file;
  if (options.exec_workers) {
    // Exec'd workers get the frozen image, not the text KB: each worker
    // opens it with one mmap (no per-worker parse) and the kernel shares
    // the backing pages across all of them.
    kb_file = StrCat("/tmp/ceres_dist_kb_", ::getpid(), ".kbi");
    Status saved = corpus.seed_kb.SaveImage(kb_file);
    if (!saved.ok()) {
      std::fprintf(stderr, "saving KB image: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    config.worker_command = {self, "--worker", "--kb-image", kb_file};
  }

  Result<dist::DistResult> distributed = dist::RunDistributedExtraction(
      sites, corpus.seed_kb, corpus.seed_kb.ontology(), config);
  if (!kb_file.empty()) (void)::unlink(kb_file.c_str());
  if (!distributed.ok()) {
    std::fprintf(stderr, "distributed run: %s\n",
                 distributed.status().ToString().c_str());
    return 1;
  }

  dist::DistConfig reference_config;
  reference_config.num_shards = config.num_shards;
  reference_config.pipeline = config.pipeline;
  reference_config.fusion = config.fusion;
  Result<dist::DistResult> reference = dist::RunSingleProcess(
      sites, corpus.seed_kb, corpus.seed_kb.ontology(), reference_config);
  if (!reference.ok()) {
    std::fprintf(stderr, "single-process run: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }

  const dist::DistDiagnostics& diag = distributed->diagnostics;
  std::printf(
      "ceres_dist: %zu sites, %d shards, %d workers%s%s\n"
      "  completed=%lld quarantined=%zu retries=%lld restarts=%lld "
      "checkpoint_bytes=%lld fused_triples=%zu\n",
      sites.size(), num_shards, options.workers,
      options.exec_workers ? ", exec workers" : ", forked workers",
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
  // Every planned single-attempt fault must have been retried through.
  if (options.crash_rate > 0.0 && diag.retries == 0) {
    std::fprintf(stderr, "FAIL: crash faults injected but no retries\n");
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
  if (options.worker) return RunWorkerMode(options);
  return RunDriverMode(options, argv[0]);
}

// dist_recovery — fault-tolerance overhead of distributed batch extraction.
//
// Builds a multi-site synthetic movie corpus, runs a single-process
// reference extraction, then sweeps the coordinator/worker harness
// (src/dist/) over crash rates 0 / 0.25 / 0.5: workers are crashed on that
// fraction of the shards, one per site (first attempt only), so every
// crashed shard costs one worker respawn plus one retry. Each sweep point
// reports wall time, recovery overhead vs the crash-free distributed run,
// and the recovery counters as BENCH JSON lines:
//
//   BENCH {"bench":"dist_recovery","crash_rate":0.25,...}
//
// Invariants (exit 1 on violation):
//   * the crash-free distributed run merges byte-identical to the
//     single-process reference (extractions and fused triples);
//   * every crashed run retries exactly the planned shards, quarantines
//     nothing, and still merges byte-identical after recovery;
//   * checkpoints are written whenever a shard completes.
//
// Usage: dist_recovery [--smoke] [--persist [path]]
//   --smoke:   small corpus + 2 workers; wired into tools/tier1.sh (and run
//              under ThreadSanitizer by the tsan tier).
//   --persist: also write the BENCH lines to BENCH_dist_recovery.json (or
//              `path`) for a committed result trail.

#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "dist/checkpoint.h"
#include "dist/coordinator.h"
#include "robustness/fault_injector.h"
#include "synth/corpora.h"

namespace {

using namespace ceres;  // NOLINT(build/namespaces)

int g_violations = 0;

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", what);
    ++g_violations;
  }
}

bool SameMerge(const dist::DistResult& a, const dist::DistResult& b) {
  if (a.site_extractions.size() != b.site_extractions.size()) return false;
  for (size_t s = 0; s < a.site_extractions.size(); ++s) {
    const fusion::SiteExtractions& x = a.site_extractions[s];
    const fusion::SiteExtractions& y = b.site_extractions[s];
    if (x.site != y.site || x.extractions.size() != y.extractions.size()) {
      return false;
    }
    for (size_t i = 0; i < x.extractions.size(); ++i) {
      const Extraction& p = x.extractions[i];
      const Extraction& q = y.extractions[i];
      if (p.page != q.page || p.node != q.node ||
          p.predicate != q.predicate || p.subject != q.subject ||
          p.object != q.object || p.confidence != q.confidence) {
        return false;
      }
    }
  }
  if (a.fused.triples.size() != b.fused.triples.size()) return false;
  for (size_t i = 0; i < a.fused.triples.size(); ++i) {
    if (a.fused.triples[i].subject != b.fused.triples[i].subject ||
        a.fused.triples[i].object != b.fused.triples[i].object ||
        a.fused.triples[i].score != b.fused.triples[i].score) {
      return false;
    }
  }
  return true;
}

/// Fresh checkpoint directory per sweep point, so resume never hides work.
std::string MakeCheckpointDir() {
  char tmpl[] = "/tmp/ceres_dist_recovery_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) return "";
  return tmpl;
}

void RemoveCheckpointDir(const std::string& dir) {
  if (dir.empty()) return;
  for (int32_t shard : dist::ListShardCheckpoints(dir)) {
    (void)::unlink(dist::ShardCheckpointPath(dir, shard).c_str());
  }
  (void)::rmdir(dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool persist = false;
  std::string persist_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--persist") == 0) {
      persist = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') persist_path = argv[++i];
    }
  }

  const double scale = smoke ? 0.2 : synth::EnvScale();
  synth::Corpus corpus =
      synth::MakeSwdeCorpus(synth::SwdeVertical::kMovie, scale, /*seed=*/7);
  std::vector<dist::ShardSite> sites;
  size_t num_pages = 0;
  for (const synth::SyntheticSite& site : corpus.sites) {
    dist::ShardSite shard_site;
    shard_site.site = site.name;
    for (const synth::GeneratedPage& page : site.pages) {
      shard_site.pages.push_back(RawPage{page.url, page.html});
    }
    num_pages += shard_site.pages.size();
    sites.push_back(std::move(shard_site));
  }
  // One shard per site.
  const int num_sites = static_cast<int>(sites.size());
  std::printf("dist_recovery: %d sites = shards, %zu pages (%s)\n",
              num_sites, num_pages, smoke ? "smoke" : "full");

  dist::DistConfig base;
  base.num_workers = smoke ? 2 : 3;

  const auto ref_start = std::chrono::steady_clock::now();
  Result<dist::DistResult> reference = dist::RunSingleProcess(
      sites, corpus.seed_kb, corpus.seed_kb.ontology(), base);
  const double ref_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ref_start)
          .count();
  Require(reference.ok(), "single-process reference failed");
  if (!reference.ok()) {
    std::fprintf(stderr, "  %s\n", reference.status().ToString().c_str());
    return 1;
  }
  std::printf("  reference: %.3fs, %zu fused triples\n", ref_seconds,
              reference->fused.triples.size());

  bench::BenchJson bench_json("dist_recovery");
  double clean_seconds = 0;
  const double sweep[] = {0.0, 0.25, 0.5};
  for (double crash_rate : sweep) {
    dist::DistConfig config = base;
    config.checkpoint_dir = MakeCheckpointDir();
    Require(!config.checkpoint_dir.empty(), "mkdtemp failed");
    // Evenly spaced over the shards: deterministic, no duplicates.
    const int planned = static_cast<int>(num_sites * crash_rate + 0.5);
    for (int i = 0; i < planned; ++i) {
      config.faults.faults.push_back(ProcessFault{
          i * num_sites / planned, ProcessFaultType::kWorkerCrash,
          /*attempts=*/1});
    }

    const auto start = std::chrono::steady_clock::now();
    Result<dist::DistResult> run = dist::RunDistributedExtraction(
        sites, corpus.seed_kb, corpus.seed_kb.ontology(), config);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    RemoveCheckpointDir(config.checkpoint_dir);
    Require(run.ok(), "distributed run failed");
    if (!run.ok()) {
      std::fprintf(stderr, "  %s\n", run.status().ToString().c_str());
      return 1;
    }
    const dist::DistDiagnostics& diag = run->diagnostics;

    if (crash_rate == 0.0) clean_seconds = seconds;
    const double overhead =
        clean_seconds > 0 ? seconds / clean_seconds - 1.0 : 0.0;

    Require(diag.retries >= planned, "fewer retries than planned crashes");
    Require(diag.worker_restarts >= planned,
            "fewer worker restarts than planned crashes");
    Require(diag.quarantined_shards.empty(),
            "single-crash shards must not be quarantined");
    Require(diag.shards_completed == num_sites,
            "not all shards completed");
    Require(diag.checkpoint_bytes > 0, "no checkpoint bytes written");
    Require(SameMerge(*run, *reference),
            "merge differs from single-process reference");

    char line[512];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"dist_recovery\",\"mode\":\"%s\",\"crash_rate\":%.2f,"
        "\"workers\":%d,\"shards\":%d,\"pages\":%zu,\"seconds\":%.3f,"
        "\"overhead_vs_clean\":%.3f,\"planned_crashes\":%d,"
        "\"retries\":%lld,\"worker_restarts\":%lld,"
        "\"quarantined_shards\":%zu,\"checkpoint_bytes\":%lld,"
        "\"identical_to_reference\":%s}",
        smoke ? "smoke" : "full", crash_rate, base.num_workers, num_sites,
        num_pages, seconds, overhead, planned,
        static_cast<long long>(diag.retries),
        static_cast<long long>(diag.worker_restarts),
        diag.quarantined_shards.size(),
        static_cast<long long>(diag.checkpoint_bytes),
        SameMerge(*run, *reference) ? "true" : "false");
    bench_json.Emit(line);
  }

  if (persist && !bench_json.Persist(persist_path)) ++g_violations;
  if (g_violations > 0) {
    std::fprintf(stderr, "dist_recovery: %d violation(s)\n", g_violations);
    return 1;
  }
  std::printf("dist_recovery: OK\n");
  return 0;
}

// batch_dist: the batch corpus as raw pages through
// dist::RunDistributedExtraction, one call per crawl, against KBs opened
// from their frozen images.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "dist/coordinator.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kFixedRepeats = 5;

std::vector<ceres::dist::ShardSite> ToShardSites(
    const ceres::synth::Corpus& corpus) {
  std::vector<ceres::dist::ShardSite> sites;
  for (const ceres::synth::SyntheticSite& site : corpus.sites) {
    ceres::dist::ShardSite shard_site;
    shard_site.site = site.name;
    for (const ceres::synth::GeneratedPage& page : site.pages) {
      shard_site.pages.push_back(ceres::RawPage{page.url, page.html});
    }
    sites.push_back(std::move(shard_site));
  }
  return sites;
}

bool SameMerge(const ceres::dist::DistResult& a,
               const ceres::dist::DistResult& b) {
  if (a.site_extractions.size() != b.site_extractions.size()) return false;
  for (size_t i = 0; i < a.site_extractions.size(); ++i) {
    if (a.site_extractions[i].site != b.site_extractions[i].site ||
        !SameExtractions(a.site_extractions[i].extractions,
                         b.site_extractions[i].extractions)) {
      return false;
    }
  }
  return a.fused.triples.size() == b.fused.triples.size() &&
         FnvFusion(a.fused, 1) == FnvFusion(b.fused, 1);
}

uint64_t MergeDigest(const ceres::dist::DistResult& r, uint64_t h) {
  for (const auto& site : r.site_extractions) {
    h = Fnv(site.site, h);
    h = FnvExtractions(site.extractions, h);
  }
  return FnvFusion(r.fused, h);
}

}  // namespace

Outcome RunBatchDist(const Options& options) {
  Outcome outcome;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const BatchCorpus corpus = MakeBatchCorpus(options.seed, options.work_dir);
  std::printf("inputs: %zu crawls, %zu sites, %zu pages, digest %016llx\n",
              corpus.crawls.size(), corpus.sites, corpus.pages,
              static_cast<unsigned long long>(corpus.digest));
  std::vector<std::vector<ceres::dist::ShardSite>> inputs;
  for (const CrawlInput& crawl : corpus.crawls) {
    inputs.push_back(ToShardSites(*crawl.corpus));
  }

  ceres::dist::DistConfig config;
  config.num_workers = static_cast<int>(std::max(1L, nproc - 1));
  // The watchdog guards against hung workers; a slow site under CPU steal
  // must never be mistaken for one, so the benchmark measures no retries.
  config.worker_liveness_timeout = std::chrono::milliseconds(60000);
  std::printf("pools: %d dist workers + 1 coordinator (nproc %ld)\n",
              config.num_workers, nproc);

  // --- Set-up: open (and verify) every crawl's frozen KB image. ----------
  std::vector<ceres::KnowledgeBase> kbs;
  ceres::KnowledgeBase::OpenOptions open;
  open.verify_checksum = true;
  const std::vector<double> setup_s = TimeSetups([&] {
    kbs.clear();
    for (const CrawlInput& crawl : corpus.crawls) {
      ceres::Result<ceres::KnowledgeBase> kb =
          ceres::KnowledgeBase::OpenImage(crawl.kbi_path, open);
      if (!kb.ok()) {
        Check(&outcome, false, "OpenImage failed: " + kb.status().ToString());
        return false;
      }
      kbs.push_back(std::move(kb).value());
    }
    return true;
  });
  if (setup_s.empty()) return outcome;
  const double setup_median = Median(setup_s);
  std::printf("setup: %zu opens of every crawl's image, median %.6f s "
              "(min %.6f, max %.6f)\n",
              setup_s.size(), setup_median,
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));

  auto run_dist = [&](size_t c, ceres::dist::DistResult* out) -> bool {
    ceres::Result<ceres::dist::DistResult> result =
        ceres::dist::RunDistributedExtraction(inputs[c], kbs[c],
                                              kbs[c].ontology(), config);
    if (!result.ok()) return false;
    *out = std::move(result).value();
    return true;
  };
  auto shard_failures = [](const ceres::dist::DistResult& r) {
    return static_cast<int64_t>(r.diagnostics.quarantined_shards.size() +
                                r.diagnostics.unfinished_shards.size());
  };

  if (options.trace) {
    Tracer tracer;
    LayerTally tally;
    Metrics& m = outcome.metrics;
    std::vector<size_t> traced;
    for (size_t c = 0; c < corpus.crawls.size(); ++c) {
      if (corpus.crawls[c].label.back() == '0') traced.push_back(c);
    }
    // Fixed cost: a one-site, one-page run is spawn plus teardown.
    std::vector<double> fixed_ms;
    std::vector<ceres::dist::ShardSite> tiny = {inputs[0][0]};
    tiny[0].pages.resize(1);
    for (int r = 0; r < kFixedRepeats; ++r) {
      const Clock::time_point start = Clock::now();
      ceres::Result<ceres::dist::DistResult> result =
          ceres::dist::RunDistributedExtraction(tiny, kbs[0],
                                                kbs[0].ontology(), config);
      fixed_ms.push_back(SecondsSince(start) * 1e3);
      Check(&outcome, result.ok(), "one-site dist run failed");
    }

    double dist_ms = 0, single_ms = 0;
    int64_t retries = 0, restarts = 0, frame_bytes = 0;
    double encode_ms = 0, decode_ms = 0;
    int64_t fused_triples = 0;
    {
      Tracer::Scope root(&tracer, "dist.trace", 0);
      for (size_t c : traced) {
        ceres::dist::DistResult dist_result, single_result;
        {
          Tracer::Scope span(&tracer, "dist.run", static_cast<int64_t>(c));
          const Clock::time_point start = Clock::now();
          Check(&outcome, run_dist(c, &dist_result), "dist run failed");
          dist_ms += SecondsSince(start) * 1e3;
        }
        {
          Tracer::Scope span(&tracer, "dist.single_process",
                             static_cast<int64_t>(c));
          const Clock::time_point start = Clock::now();
          ceres::Result<ceres::dist::DistResult> single =
              ceres::dist::RunSingleProcess(inputs[c], kbs[c],
                                            kbs[c].ontology(), config);
          single_ms += SecondsSince(start) * 1e3;
          Check(&outcome, single.ok(), "RunSingleProcess failed");
          if (single.ok()) single_result = std::move(single).value();
        }
        Check(&outcome, SameMerge(dist_result, single_result),
              "dist merge differs from RunSingleProcess on " +
                  corpus.crawls[c].label);
        retries += dist_result.diagnostics.retries;
        restarts += dist_result.diagnostics.worker_restarts;

        // The frame codec on this run's own shards: one task per shard as
        // the coordinator assigns it, one result per shard as returned.
        const int32_t num_shards = static_cast<int32_t>(inputs[c].size());
        std::map<int32_t, ceres::dist::ShardTask> tasks;
        for (const ceres::dist::ShardSite& site : inputs[c]) {
          const int32_t shard = ceres::dist::ShardOfSite(site.site, num_shards);
          tasks[shard].shard = shard;
          tasks[shard].options = config.pipeline;
          tasks[shard].sites.push_back(site);
        }
        std::vector<std::string> encoded_results;
        for (const ceres::dist::ShardResult& shard : single_result.shards) {
          encoded_results.push_back(ceres::dist::EncodeShardResult(shard));
        }
        {
          Tracer::Scope span(&tracer, "dist.encode", static_cast<int64_t>(c));
          const Clock::time_point start = Clock::now();
          for (const auto& [shard, task] : tasks) {
            const std::string payload = ceres::dist::EncodeShardTask(task);
            frame_bytes += static_cast<int64_t>(
                ceres::dist::EncodeFrame(ceres::dist::FrameType::kAssignShard,
                                         payload)
                    .size());
          }
          encode_ms += SecondsSince(start) * 1e3;
        }
        {
          Tracer::Scope span(&tracer, "dist.decode", static_cast<int64_t>(c));
          const Clock::time_point start = Clock::now();
          for (const std::string& payload : encoded_results) {
            ceres::Result<ceres::dist::ShardResult> decoded =
                ceres::dist::DecodeShardResult(payload);
            Check(&outcome, decoded.ok(), "DecodeShardResult failed");
            frame_bytes += static_cast<int64_t>(payload.size());
          }
          decode_ms += SecondsSince(start) * 1e3;
        }
        {
          Tracer::Scope span(&tracer, "fusion.fuse", static_cast<int64_t>(c));
          ceres::fusion::FusionResult fused = ceres::fusion::FuseExtractions(
              single_result.site_extractions, kbs[c].ontology());
          fused_triples += static_cast<int64_t>(fused.triples.size());
        }
        // The per-site pipeline a worker runs, driven serially here against
        // the mapped KB: every page annotates and extracts.
        for (const ceres::synth::SyntheticSite& site :
             corpus.crawls[c].corpus->sites) {
          std::vector<ceres::PageIndex> all;
          for (size_t i = 0; i < site.pages.size(); ++i) {
            all.push_back(static_cast<ceres::PageIndex>(i));
          }
          TracedSite out;
          Check(&outcome,
                TracedPipeline(site.pages, kbs[c], all, all, &tracer, &tally,
                               &out),
                "traced parse failed");
          const size_t index = static_cast<size_t>(
              &site - corpus.crawls[c].corpus->sites.data());
          Check(&outcome,
                index < single_result.site_extractions.size() &&
                    SameExtractions(
                        out.extractions,
                        single_result.site_extractions[index].extractions),
                "traced pipeline differs from the dist worker pipeline on " +
                    site.name);
        }
      }
    }
    tracer.PrintSelfTimes();
    tracer.WriteJsonLines(options.work_dir + "/trace_spans.jsonl");
    outcome.attempted = static_cast<int64_t>(traced.size());

    SetPipelineLayerMetrics(tally, tracer, &m);
    m.Set("kb.load_ms", setup_median * 1e3, "ms");
    m.Set("fusion.fuse_ms", tracer.TotalMs("fusion.fuse"), "ms");
    m.Set("fusion.fused_triples", static_cast<double>(fused_triples), "count");
    m.Set("dist.fixed_ms", Median(fixed_ms), "ms");
    m.Set("dist.encode_ms", encode_ms, "ms");
    m.Set("dist.decode_ms", decode_ms, "ms");
    m.Set("dist.frame_bytes", static_cast<double>(frame_bytes), "bytes");
    m.Set("dist.retries", static_cast<double>(retries), "count");
    m.Set("dist.worker_restarts", static_cast<double>(restarts), "count");
    m.Set("dist.overhead_ratio", single_ms > 0 ? dist_ms / single_ms : 0.0,
          "ratio");
    // Untraced reference for the traced pipeline: RunSingleProcess runs the
    // same per-site pipelines serially (it also merges, which the traced
    // run does as fusion.fuse).
    const double traced_ms = tracer.TotalMs("site") +
                             tracer.TotalMs("fusion.fuse");
    m.Set("trace.overhead_ratio", single_ms > 0 ? traced_ms / single_ms : 0.0,
          "ratio");
    return outcome;
  }

  // --- Measured phase: whole passes over every crawl, at least three. ----
  // Each pass is one window; throughput and CPU are medians over passes.
  // Latency pools one sample per distributed call over every pass: the
  // workers' per-site times are not visible from outside.
  std::vector<Window> windows;
  std::vector<double> call_ms;
  std::vector<uint64_t> digests(corpus.crawls.size(), 0);
  std::vector<ceres::dist::DistResult> first_pass(corpus.crawls.size());
  int64_t pages_done = 0;
  int passes = 0;
  const double cpu_start = ProcessCpuSeconds(true);
  const Clock::time_point start = Clock::now();
  while (passes < kMinPasses || SecondsSince(start) < options.seconds) {
    Window window;
    const double window_cpu = ProcessCpuSeconds(true);
    const Clock::time_point window_start = Clock::now();
    for (size_t c = 0; c < corpus.crawls.size(); ++c) {
      const Clock::time_point call_start = Clock::now();
      ceres::dist::DistResult result;
      const bool ok = run_dist(c, &result);
      const double wall_ms = SecondsSince(call_start) * 1e3;
      outcome.attempted += static_cast<int64_t>(inputs[c].size());
      if (!ok) {
        outcome.failed += static_cast<int64_t>(inputs[c].size());
        continue;
      }
      outcome.failed += shard_failures(result);
      call_ms.push_back(wall_ms);
      for (const auto& site : inputs[c]) {
        window.units += static_cast<int64_t>(site.pages.size());
      }
      if (passes == 0 && c == 0 && options.tamper == "drop-triple") {
        for (auto& site : result.site_extractions) {
          if (!site.extractions.empty()) {
            site.extractions.pop_back();
            break;
          }
        }
      }
      const uint64_t digest = MergeDigest(result, 1);
      if (passes == 0) {
        digests[c] = digest;
        first_pass[c] = std::move(result);
      } else {
        Check(&outcome, digest == digests[c],
              "dist output differs between passes on " +
                  corpus.crawls[c].label);
      }
    }
    window.seconds = SecondsSince(window_start);
    window.cpu_seconds = ProcessCpuSeconds(true) - window_cpu;
    pages_done += window.units;
    windows.push_back(std::move(window));
    ++passes;
  }
  const double elapsed = SecondsSince(start);
  const double cpu = ProcessCpuSeconds(true) - cpu_start;
  std::printf("measured: %d passes, %lld pages, %.3f s wall, %.3f s cpu "
              "(cpu/wall %.2f)\n",
              passes, static_cast<long long>(pages_done), elapsed, cpu,
              cpu / elapsed);
  const double peak_rss = PeakRssMb() + LargestChildPeakRssMb();

  // --- Output check: byte-identical to the single-process reference. -----
  std::vector<int> same(corpus.crawls.size(), 0);
  ceres::ParallelConfig parallel;
  parallel.threads = static_cast<int>(std::min<long>(4, nproc));
  ceres::ParallelFor(corpus.crawls.size(), parallel, [&](size_t c) {
    ceres::Result<ceres::dist::DistResult> single =
        ceres::dist::RunSingleProcess(inputs[c], kbs[c], kbs[c].ontology(),
                                      config);
    same[c] = single.ok() && SameMerge(first_pass[c], *single) ? 1 : 0;
  });
  for (size_t c = 0; c < corpus.crawls.size(); ++c) {
    Check(&outcome, same[c] == 1,
          "dist site_extractions/fused differ from RunSingleProcess on " +
              corpus.crawls[c].label);
  }

  // --- Quality: the odd (held-out-half) pages against ground truth. ------
  ceres::eval::Prf prf;
  for (size_t c = 0; c < corpus.crawls.size(); ++c) {
    const ceres::synth::Corpus& crawl = *corpus.crawls[c].corpus;
    for (const auto& site : first_pass[c].site_extractions) {
      for (const ceres::synth::SyntheticSite& generated : crawl.sites) {
        if (generated.name == site.site) {
          prf += ScoreHeldOutHalf(crawl, generated, site.extractions);
        }
      }
    }
  }
  std::printf("quality: tp %lld fp %lld fn %lld\n",
              static_cast<long long>(prf.tp), static_cast<long long>(prf.fp),
              static_cast<long long>(prf.fn));

  Metrics& m = outcome.metrics;
  SetWindowMedians(&outcome, windows, /*set_rate=*/true);
  SetPooledLatency(&outcome, call_ms, corpus.crawls.size(),
                   "distributed call");
  m.Set("extract_f1", prf.f1(), "ratio");
  m.Set("peak_rss_mb", peak_rss, "MB");
  m.Set("setup_s", setup_median, "s");
  return outcome;
}

}  // namespace perfbench

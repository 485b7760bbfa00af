// batch_swde: every site of all four SWDE verticals through ParseHtml ->
// RunPipeline (§5.3 split), then one FuseExtractions per crawl. Also home
// of the traced serial pipeline the other workloads reuse.
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "cluster/page_clustering.h"
#include "core/entity_matcher.h"
#include "core/extractor.h"
#include "core/features.h"
#include "core/relation_annotator.h"
#include "core/topic_identification.h"
#include "core/training.h"
#include "dom/html_parser.h"
#include "kb/kb_io.h"
#include "util/alloc_counter.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {

using ceres::DomDocument;
using ceres::Extraction;
using ceres::PageIndex;

namespace {

// Pipeline workers of the measured phase; one site per worker at a time,
// each site's pipeline sequential inside. The calling thread only waits.
constexpr int kBatchThreads = 4;

struct SiteTask {
  size_t crawl = 0;
  size_t site = 0;
};

struct SiteOutput {
  bool ok = false;
  double wall_ms = 0;
  std::vector<Extraction> extractions;
};

}  // namespace

bool TracedPipeline(const std::vector<ceres::synth::GeneratedPage>& pages,
                    const ceres::KnowledgeBase& kb,
                    const std::vector<PageIndex>& annotate,
                    const std::vector<PageIndex>& extract, Tracer* tracer,
                    LayerTally* tally, TracedSite* out) {
  const ceres::PipelineConfig defaults;
  Tracer::Scope site_span(tracer, "site", tally->sites++);
  std::vector<DomDocument> docs;
  docs.reserve(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    Tracer::Scope span(tracer, "dom.parse", static_cast<int64_t>(i));
    const uint64_t allocs_before = ceres::util::AllocationCount();
    ceres::Result<DomDocument> doc = ceres::ParseHtml(pages[i].html);
    tally->parse_allocs += static_cast<int64_t>(
        ceres::util::AllocationCount() - allocs_before);
    if (!doc.ok()) return false;
    doc->set_url(pages[i].url);
    docs.push_back(std::move(doc).value());
  }
  tally->pages_parsed += static_cast<int64_t>(docs.size());

  std::vector<int> cluster_of_page;
  {
    Tracer::Scope span(tracer, "cluster.cluster_pages");
    cluster_of_page = ceres::ClusterPages(docs, defaults.clustering);
  }
  int num_clusters = 0;
  for (int c : cluster_of_page) num_clusters = std::max(num_clusters, c + 1);
  tally->clusters += num_clusters;

  std::vector<std::vector<PageIndex>> cluster_annotate(
      static_cast<size_t>(num_clusters));
  std::vector<std::vector<PageIndex>> cluster_extract(
      static_cast<size_t>(num_clusters));
  for (PageIndex p : annotate) {
    const int c = cluster_of_page[static_cast<size_t>(p)];
    if (c >= 0) cluster_annotate[static_cast<size_t>(c)].push_back(p);
  }
  for (PageIndex p : extract) {
    const int c = cluster_of_page[static_cast<size_t>(p)];
    if (c >= 0) cluster_extract[static_cast<size_t>(c)].push_back(p);
  }

  for (int cluster = 0; cluster < num_clusters; ++cluster) {
    const std::vector<PageIndex>& annotation_set =
        cluster_annotate[static_cast<size_t>(cluster)];
    const std::vector<PageIndex>& extraction_set =
        cluster_extract[static_cast<size_t>(cluster)];
    if (annotation_set.size() < defaults.min_cluster_size) continue;
    Tracer::Scope cluster_span(tracer, "cluster", cluster);
    std::vector<const DomDocument*> annotation_docs;
    for (PageIndex p : annotation_set) {
      annotation_docs.push_back(&docs[static_cast<size_t>(p)]);
    }

    std::vector<ceres::PageMentions> mentions(annotation_docs.size());
    for (size_t i = 0; i < annotation_docs.size(); ++i) {
      Tracer::Scope span(tracer, "kb.match", static_cast<int64_t>(i));
      mentions[i] = ceres::MatchPageMentions(*annotation_docs[i], kb);
      for (const auto& [entity, nodes] : mentions[i].mentions_of) {
        tally->mentions += static_cast<int64_t>(nodes.size());
      }
    }
    tally->matched_pages += static_cast<int64_t>(annotation_docs.size());

    ceres::TopicResult topics;
    {
      Tracer::Scope span(tracer, "core.topic");
      topics = ceres::IdentifyTopics(annotation_docs, mentions, kb,
                                     defaults.topic);
    }
    tally->annotation_pages += static_cast<int64_t>(annotation_docs.size());
    for (ceres::EntityId topic : topics.topic) {
      if (topic != ceres::kInvalidEntity) ++tally->topics_accepted;
    }

    ceres::AnnotationResult annotation;
    {
      Tracer::Scope span(tracer, "core.annotate");
      annotation = ceres::AnnotateRelations(annotation_docs, mentions, topics,
                                            kb, defaults.annotator);
    }
    tally->annotations += static_cast<int64_t>(annotation.annotations.size());
    if (annotation.annotations.empty()) continue;

    ceres::Result<ceres::TrainedModel> trained =
        ceres::Status::Internal("not trained");
    ceres::FeatureConfig feature_config = defaults.features;
    feature_config.parallel = ceres::ParallelConfig::Sequential();
    std::unique_ptr<ceres::FeatureExtractor> featurizer;
    {
      Tracer::Scope span(tracer, "core.train");
      const double cpu_before = ThreadCpuSeconds();
      featurizer = std::make_unique<ceres::FeatureExtractor>(annotation_docs,
                                                             feature_config);
      trained = ceres::TrainExtractor(annotation_docs, annotation.annotations,
                                      *featurizer, kb.ontology(),
                                      defaults.training);
      tally->train_cpu_ms += (ThreadCpuSeconds() - cpu_before) * 1e3;
    }
    if (!trained.ok()) continue;
    ++tally->models;
    tally->model_features += trained->features.size();

    std::vector<const DomDocument*> extraction_docs;
    for (PageIndex p : extraction_set) {
      extraction_docs.push_back(&docs[static_cast<size_t>(p)]);
    }
    {
      Tracer::Scope span(tracer, "core.extract");
      ceres::ExtractionConfig extraction_config = defaults.extraction;
      extraction_config.parallel = ceres::ParallelConfig::Sequential();
      std::vector<Extraction> extractions = ceres::ExtractFromPages(
          extraction_docs, extraction_set, &trained.value(), *featurizer,
          extraction_config);
      tally->extraction_pages += static_cast<int64_t>(extraction_docs.size());
      tally->triples += static_cast<int64_t>(extractions.size());
      out->extractions.insert(out->extractions.end(), extractions.begin(),
                              extractions.end());
    }
    out->models.push_back(
        ceres::ClusterModel{cluster, std::move(trained).value()});
  }
  return true;
}

void SetPipelineLayerMetrics(const LayerTally& t, const Tracer& tracer,
                             Metrics* m) {
  auto per = [](double num, int64_t den) {
    return den > 0 ? num / static_cast<double>(den) : 0.0;
  };
  m->Set("dom.parse_us_per_page",
         per(tracer.TotalMs("dom.parse") * 1e3, t.pages_parsed), "us");
  m->Set("dom.parse_allocs_per_page",
         per(static_cast<double>(t.parse_allocs), t.pages_parsed), "count");
  m->Set("cluster.ms_per_site",
         per(tracer.TotalMs("cluster.cluster_pages"), t.sites), "ms");
  m->Set("cluster.clusters_per_site",
         per(static_cast<double>(t.clusters), t.sites), "count");
  m->Set("kb.match_us_per_page",
         per(tracer.TotalMs("kb.match") * 1e3, t.matched_pages), "us");
  m->Set("kb.mentions_per_page",
         per(static_cast<double>(t.mentions), t.matched_pages), "count");
  m->Set("core.topic_ms", tracer.TotalMs("core.topic"), "ms");
  m->Set("core.topic_accept_ratio",
         per(static_cast<double>(t.topics_accepted), t.annotation_pages),
         "ratio");
  m->Set("core.annotate_ms", tracer.TotalMs("core.annotate"), "ms");
  m->Set("core.annotations_per_page",
         per(static_cast<double>(t.annotations), t.annotation_pages), "count");
  const double train_ms = tracer.TotalMs("core.train");
  m->Set("core.train_ms", train_ms, "ms");
  m->Set("core.train_cpu_ms", t.train_cpu_ms, "ms");
  m->Set("core.train_share",
         tracer.RootMs() > 0 ? train_ms / tracer.RootMs() : 0.0, "ratio");
  m->Set("core.train_features",
         per(static_cast<double>(t.model_features), t.models), "count");
  m->Set("core.extract_us_per_page",
         per(tracer.TotalMs("core.extract") * 1e3, t.extraction_pages), "us");
  m->Set("core.triples_per_page",
         per(static_cast<double>(t.triples), t.extraction_pages), "count");
}

Outcome RunBatchSwde(const Options& options) {
  Outcome outcome;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("pools: %d pipeline workers, one site each (nproc %ld)\n",
              kBatchThreads, nproc);
  if (kBatchThreads > nproc) {
    std::fprintf(stderr, "refusing to start: %d pipeline workers would "
                 "oversubscribe %ld processors\n", kBatchThreads, nproc);
    Check(&outcome, false, "workload would oversubscribe the host");
    return outcome;
  }
  const BatchCorpus corpus = MakeBatchCorpus(options.seed, options.work_dir);
  std::printf("inputs: %zu crawls, %zu sites, %zu pages, digest %016llx\n",
              corpus.crawls.size(), corpus.sites, corpus.pages,
              static_cast<unsigned long long>(corpus.digest));

  // --- Set-up: load every crawl's seed KB from its text file. ------------
  std::vector<ceres::KnowledgeBase> kbs;
  const std::vector<double> setup_s = TimeSetups([&] {
    kbs.clear();
    for (const CrawlInput& crawl : corpus.crawls) {
      ceres::Result<ceres::KnowledgeBase> kb =
          ceres::LoadKbFromFile(crawl.kb_path);
      if (!kb.ok()) {
        Check(&outcome, false, "KB load failed: " + kb.status().ToString());
        return false;
      }
      kbs.push_back(std::move(kb).value());
    }
    return true;
  });
  if (setup_s.empty()) return outcome;
  const double setup_median = Median(setup_s);
  std::printf("setup: %zu loads of every crawl's KB, median %.4f s "
              "(min %.4f, max %.4f)\n",
              setup_s.size(), setup_median,
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));

  std::vector<SiteTask> tasks;
  for (size_t c = 0; c < corpus.crawls.size(); ++c) {
    for (size_t s = 0; s < corpus.crawls[c].corpus->sites.size(); ++s) {
      tasks.push_back(SiteTask{c, s});
    }
  }
  auto site_pages = [&](const SiteTask& task)
      -> const std::vector<ceres::synth::GeneratedPage>& {
    return corpus.crawls[task.crawl].corpus->sites[task.site].pages;
  };

  if (options.trace) {
    // Traced run: the first crawl of each vertical, serially on this
    // thread. RunPipeline over the same sites first gives the reference
    // output and the untraced wall time.
    std::vector<size_t> traced_tasks;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (corpus.crawls[tasks[i].crawl].label.back() == '0') {
        traced_tasks.push_back(i);
      }
    }
    std::vector<std::vector<Extraction>> reference(traced_tasks.size());
    const Clock::time_point ref_start = Clock::now();
    for (size_t i = 0; i < traced_tasks.size(); ++i) {
      const SiteTask& task = tasks[traced_tasks[i]];
      std::vector<DomDocument> docs;
      if (!ParsePages(site_pages(task), &docs)) {
        Check(&outcome, false, "reference parse failed");
        return outcome;
      }
      ceres::PipelineConfig config;
      HalfSplit(docs.size(), &config.annotation_pages,
                &config.extraction_pages);
      ceres::Result<ceres::PipelineResult> result =
          ceres::RunPipeline(docs, kbs[task.crawl], config);
      if (result.ok()) reference[i] = std::move(result->extractions);
    }
    const double untraced_ms = SecondsSince(ref_start) * 1e3;

    Tracer tracer;
    LayerTally tally;
    std::vector<std::vector<Extraction>> traced(traced_tasks.size());
    std::vector<ceres::fusion::SiteExtractions> fusion_input;
    int64_t fused_triples = 0;
    {
      Tracer::Scope root(&tracer, "batch.trace", 0);
      size_t current_crawl = tasks[traced_tasks[0]].crawl;
      auto fuse = [&](size_t crawl) {
        Tracer::Scope span(&tracer, "fusion.fuse",
                           static_cast<int64_t>(crawl));
        ceres::fusion::FusionResult fused = ceres::fusion::FuseExtractions(
            fusion_input, kbs[crawl].ontology());
        fused_triples += static_cast<int64_t>(fused.triples.size());
        fusion_input.clear();
      };
      for (size_t i = 0; i < traced_tasks.size(); ++i) {
        const SiteTask& task = tasks[traced_tasks[i]];
        if (task.crawl != current_crawl) {
          fuse(current_crawl);
          current_crawl = task.crawl;
        }
        const auto& pages = site_pages(task);
        std::vector<PageIndex> annotate, extract;
        HalfSplit(pages.size(), &annotate, &extract);
        TracedSite out;
        if (!TracedPipeline(pages, kbs[task.crawl], annotate, extract,
                            &tracer, &tally, &out)) {
          Check(&outcome, false, "traced parse failed");
          return outcome;
        }
        traced[i] = out.extractions;
        fusion_input.push_back(ceres::fusion::SiteExtractions{
            corpus.crawls[task.crawl].corpus->sites[task.site].name,
            std::move(out.extractions)});
      }
      fuse(current_crawl);
    }
    if (options.tamper == "drop-triple") {
      for (auto& site : traced) {
        if (!site.empty()) {
          site.pop_back();
          break;
        }
      }
    }
    int64_t mismatched = 0;
    for (size_t i = 0; i < traced.size(); ++i) {
      if (!SameExtractions(traced[i], reference[i])) ++mismatched;
    }
    Check(&outcome, mismatched == 0,
          "traced pipeline output differs from RunPipeline on " +
              std::to_string(mismatched) + " sites");
    outcome.attempted = static_cast<int64_t>(traced_tasks.size());
    tracer.PrintSelfTimes();
    tracer.WriteJsonLines(options.work_dir + "/trace_spans.jsonl");

    Metrics& m = outcome.metrics;
    SetPipelineLayerMetrics(tally, tracer, &m);
    // kb.load_ms covers every crawl's KB, the same work set-up times.
    m.Set("kb.load_ms", setup_median * 1e3, "ms");
    m.Set("fusion.fuse_ms", tracer.TotalMs("fusion.fuse"), "ms");
    m.Set("fusion.fused_triples", static_cast<double>(fused_triples), "count");
    m.Set("trace.overhead_ratio",
          untraced_ms > 0 ? tracer.RootMs() / untraced_ms : 0.0, "ratio");
    return outcome;
  }

  // --- Measured phase: whole passes over every site, at least three. -----
  // Each pass is one window; throughput and CPU are medians over passes.
  // Latency pools one sample per site pipeline over every pass.
  ceres::ParallelConfig parallel;
  parallel.threads = kBatchThreads;
  std::vector<SiteOutput> first_pass;
  std::vector<Window> windows;
  std::vector<double> site_ms;
  uint64_t first_digest = 0;
  int64_t pages_done = 0;
  int passes = 0;
  int64_t site_failures = 0;
  const double cpu_start = ProcessCpuSeconds(false);
  const Clock::time_point start = Clock::now();
  while (passes < kMinPasses || SecondsSince(start) < options.seconds) {
    Window window;
    const double window_cpu = ProcessCpuSeconds(false);
    const Clock::time_point window_start = Clock::now();
    std::vector<SiteOutput> outputs(tasks.size());
    ceres::ParallelFor(tasks.size(), parallel, [&](size_t i) {
      const Clock::time_point site_start = Clock::now();
      std::vector<DomDocument> docs;
      SiteOutput& out = outputs[i];
      if (!ParsePages(site_pages(tasks[i]), &docs)) return;
      ceres::PipelineConfig config;
      config.parallel = ceres::ParallelConfig::Sequential();
      HalfSplit(docs.size(), &config.annotation_pages,
                &config.extraction_pages);
      ceres::Result<ceres::PipelineResult> result =
          ceres::RunPipeline(docs, kbs[tasks[i].crawl], config);
      if (!result.ok()) return;
      out.ok = true;
      out.extractions = std::move(result->extractions);
      out.wall_ms = SecondsSince(site_start) * 1e3;
    });
    if (passes == 0 && options.tamper == "drop-triple") {
      for (SiteOutput& out : outputs) {
        if (!out.extractions.empty()) {
          out.extractions.pop_back();
          break;
        }
      }
    }
    // One fusion per crawl over its sites' extractions.
    uint64_t digest = Fnv("pass");
    for (size_t c = 0; c < corpus.crawls.size(); ++c) {
      std::vector<ceres::fusion::SiteExtractions> input;
      for (size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i].crawl != c) continue;
        input.push_back(ceres::fusion::SiteExtractions{
            corpus.crawls[c].corpus->sites[tasks[i].site].name,
            outputs[i].extractions});
      }
      const ceres::fusion::FusionResult fused =
          ceres::fusion::FuseExtractions(input, kbs[c].ontology());
      for (const auto& site : input) {
        digest = FnvExtractions(site.extractions, digest);
      }
      digest = FnvFusion(fused, digest);
    }
    window.seconds = SecondsSince(window_start);
    window.cpu_seconds = ProcessCpuSeconds(false) - window_cpu;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (outputs[i].ok) {
        site_ms.push_back(outputs[i].wall_ms);
      } else {
        ++site_failures;
      }
      window.units += static_cast<int64_t>(site_pages(tasks[i]).size());
    }
    pages_done += window.units;
    windows.push_back(std::move(window));
    if (passes == 0) {
      first_digest = digest;
      first_pass = std::move(outputs);
    } else {
      Check(&outcome, digest == first_digest,
            "batch output differs between passes");
    }
    ++passes;
  }
  const double elapsed = SecondsSince(start);
  const double cpu = ProcessCpuSeconds(false) - cpu_start;
  std::printf("measured: %d passes, %lld pages, %.3f s wall, %.3f s cpu "
              "(cpu/wall %.2f)\n",
              passes, static_cast<long long>(pages_done), elapsed, cpu,
              cpu / elapsed);

  // --- Quality: held-out-half F1 against the synthetic ground truth. -----
  ceres::eval::Prf prf;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const ceres::synth::Corpus& crawl = *corpus.crawls[tasks[i].crawl].corpus;
    prf += ScoreHeldOutHalf(crawl, crawl.sites[tasks[i].site],
                            first_pass[i].extractions);
  }
  std::printf("quality: tp %lld fp %lld fn %lld\n",
              static_cast<long long>(prf.tp), static_cast<long long>(prf.fp),
              static_cast<long long>(prf.fn));

  outcome.attempted = static_cast<int64_t>(tasks.size()) * passes;
  outcome.failed = site_failures;
  Metrics& m = outcome.metrics;
  SetWindowMedians(&outcome, windows, /*set_rate=*/true);
  SetPooledLatency(&outcome, site_ms, tasks.size(), "site pipeline");
  m.Set("extract_f1", prf.f1(), "ratio");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  m.Set("setup_s", setup_median, "s");
  return outcome;
}

}  // namespace perfbench

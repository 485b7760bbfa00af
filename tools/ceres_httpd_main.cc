// ceres_httpd — the network serving front-end over a sharded extraction
// tier.
//
// Builds an SWDE-style movie corpus, trains a per-site extractor offline
// (the regular CERES pipeline), publishes each model into the sharded
// service's per-shard stores, then serves extraction over HTTP/1.1:
//
//   POST /extract?site=S   body: page HTML  ->  extraction JSON
//   GET  /healthz /metrics /stats
//   POST /admin/invalidate?site=S   POST /admin/drain
//
// Requests are partitioned across --shards independent ModelRegistry +
// ExtractionService pairs by stable site hash, and fronted by a simhash
// near-duplicate page cache: a re-crawled page whose fingerprint is
// within the Hamming threshold of a cached page skips parse and
// inference entirely.
//
// Prints "LISTENING <port>" on stdout once ready (machine-readable for
// drivers). Exits on SIGINT/SIGTERM or POST /admin/drain, in both cases
// through the graceful drain path: stop accepting, finish and flush
// every in-flight request, then stop. Final stats print on exit.
//
// Usage:
//   ceres_httpd [--port 0] [--shards 2] [--threads 4] [--sites 3]
//               [--scale 0.25] [--seed 100] [--store DIR]
//               [--rate N] [--burst N] [--cache-mb N] [--hamming N]
//               [--no-cache] [--verbose]
//
// A malformed or out-of-range numeric flag value prints the usage and
// exits 2.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "dom/html_parser.h"
#include "flag_value.h"
#include "serve/http_frontend.h"
#include "serve/sharded_service.h"
#include "synth/corpora.h"
#include "util/logging.h"

namespace {

using namespace ceres;  // NOLINT(build/namespaces)

struct Options {
  uint16_t port = 0;
  int shards = 2;
  int threads = 4;
  size_t sites = 3;
  double scale = 0.25;
  uint64_t seed = 100;
  std::string store;
  double rate = 0.0;  // tokens/second per client; 0 = unlimited
  double burst = 16.0;
  size_t cache_mb = 32;
  int hamming = 3;
  bool no_cache = false;
  bool verbose = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: ceres_httpd [--port N] [--shards N] [--threads N]\n"
               "  [--sites N] [--scale X] [--seed N] [--store DIR]\n"
               "  [--rate N] [--burst N] [--cache-mb N] [--hamming N]\n"
               "  [--no-cache] [--verbose]\n");
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
    if (arg == "--port") {
      ok = next(&value) && tools::ParseFlagValue(value, &options->port);
    } else if (arg == "--shards") {
      ok = next(&value) && tools::ParseFlagValue(value, &options->shards, 1);
    } else if (arg == "--threads") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->threads, 1);
    } else if (arg == "--sites") {
      ok = next(&value) && tools::ParseFlagValue(value, &options->sites, 1);
    } else if (arg == "--scale") {
      // Strictly positive: the smallest normal double is the floor.
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->scale,
                                 std::numeric_limits<double>::min());
    } else if (arg == "--seed") {
      ok = next(&value) && tools::ParseFlagValue(value, &options->seed);
    } else if (arg == "--store" && next(&value)) {
      options->store = value;
    } else if (arg == "--rate") {
      ok = next(&value) && tools::ParseFlagValue(value, &options->rate, 0.0);
    } else if (arg == "--burst") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->burst, 1.0);
    } else if (arg == "--cache-mb") {
      // Capped so the byte count (cache_mb << 20) cannot overflow.
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->cache_mb, 1,
                                 std::numeric_limits<size_t>::max() >> 20);
    } else if (arg == "--hamming") {
      // A fingerprint has 64 bits; a larger threshold matches everything.
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->hamming, 0, 64);
    } else if (arg == "--no-cache") {
      options->no_cache = true;
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

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int) { g_signal = 1; }

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  if (options.verbose) SetLogLevel(LogLevel::kInfo);
  if (options.store.empty()) {
    options.store = (std::filesystem::temp_directory_path() /
                     "ceres_httpd_store").string();
    std::filesystem::remove_all(options.store);
  }

  // --- Offline: corpus, per-site training, publish into shards. ----------
  synth::Corpus corpus = synth::MakeSwdeCorpus(
      synth::SwdeVertical::kMovie, options.scale, options.seed);
  const size_t num_sites = std::min(options.sites, corpus.sites.size());

  serve::ShardedServiceConfig config;
  config.num_shards = options.shards;
  config.service.worker_threads = options.threads;
  config.registry.root_dir = options.store;
  config.cache.enabled = !options.no_cache;
  config.cache.max_bytes = options.cache_mb << 20;
  config.cache.hamming_threshold = options.hamming;
  serve::ShardedExtractionService service(corpus.seed_kb.ontology(),
                                          config);

  size_t published = 0;
  for (size_t s = 0; s < num_sites; ++s) {
    const synth::SyntheticSite& site = corpus.sites[s];
    std::vector<DomDocument> pages;
    for (const synth::GeneratedPage& page : site.pages) {
      Result<DomDocument> doc = ParseHtml(page.html);
      if (!doc.ok()) {
        std::fprintf(stderr, "generator produced unparseable page: %s\n",
                     doc.status().ToString().c_str());
        return 1;
      }
      pages.push_back(std::move(doc).value());
    }
    PipelineConfig pipeline_config;
    for (size_t i = 0; i < pages.size(); i += 2) {
      pipeline_config.annotation_pages.push_back(
          static_cast<PageIndex>(i));
    }
    pipeline_config.extraction_pages = pipeline_config.annotation_pages;
    Result<PipelineResult> trained =
        RunPipeline(pages, corpus.seed_kb, pipeline_config);
    if (!trained.ok() || trained->models.empty()) {
      std::fprintf(stderr, "site %s: training produced no model\n",
                   site.name.c_str());
      continue;
    }
    Result<int64_t> version =
        service.Publish(site.name, trained->models.front().model);
    if (!version.ok()) {
      std::fprintf(stderr, "site %s: publish failed: %s\n",
                   site.name.c_str(), version.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "site %-24s model v%lld published (shard %zu)\n",
                 site.name.c_str(), static_cast<long long>(*version),
                 service.ShardOf(site.name));
    ++published;
  }
  if (published == 0) {
    std::fprintf(stderr, "no site trained a model; nothing to serve\n");
    return 1;
  }

  Status started = service.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "service start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  serve::FrontendConfig frontend_config;
  frontend_config.http.port = options.port;
  frontend_config.http.rate_limit.tokens_per_second = options.rate;
  frontend_config.http.rate_limit.burst = options.burst;
  serve::ExtractionFrontend frontend(&service, frontend_config);
  started = frontend.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "frontend start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("LISTENING %u\n", frontend.port());
  std::fflush(stdout);

  // Park until a drain is requested over HTTP or by signal. The wait has
  // a short deadline per iteration so signals are observed promptly.
  while (g_signal == 0 && !frontend.drain_requested()) {
    frontend.WaitForDrainRequest(
        Deadline::After(std::chrono::milliseconds(200)));
  }

  std::fprintf(stderr, "draining...\n");
  Status drained =
      frontend.Drain(Deadline::After(std::chrono::seconds(10)));
  if (!drained.ok()) {
    std::fprintf(stderr, "drain: %s\n", drained.ToString().c_str());
  }
  const net::HttpServerStats http = frontend.server_stats();
  frontend.Stop();
  service.Stop();

  const serve::ShardedServiceStats stats = service.stats();
  std::fprintf(stderr,
               "http: requests %lld responses %lld rate_limited %lld "
               "parse_errors %lld drained %lld\n",
               static_cast<long long>(http.requests),
               static_cast<long long>(http.responses),
               static_cast<long long>(http.rate_limited),
               static_cast<long long>(http.parse_errors),
               static_cast<long long>(http.drained));
  std::fprintf(stderr,
               "service: completed %lld shed %lld  cache: hits %lld "
               "misses %lld entries %zu\n",
               static_cast<long long>(stats.service.completed),
               static_cast<long long>(stats.service.total_shed()),
               static_cast<long long>(stats.cache.hits),
               static_cast<long long>(stats.cache.misses),
               stats.cache.entries);
  return drained.ok() ? 0 : 1;
}

// serve_fresh and serve_recrawl: an open-loop, seeded Poisson stream over
// loopback HTTP through ExtractionFrontend -> ShardedExtractionService.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <random>

#include "core/pipeline.h"
#include "net/http_client.h"
#include "serve/http_frontend.h"
#include "serve/sharded_service.h"
#include "synth/truth.h"
#include "util/simhash.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ceres::serve::ServeResult;
using ceres::serve::ShardedExtractionService;

// --- Pools: event loop + completion pump + shards x workers + load
// generator (one thread, one keep-alive connection) must fit in nproc. ----
constexpr int kEventLoopThreads = 1;
constexpr int kCompletionThreads = 1;
constexpr int kShards = 1;
constexpr int kWorkersPerShard = 1;
constexpr int kLoadgenThreads = 1;  // each owns exactly one connection
constexpr int kServerThreads =
    kEventLoopThreads + kCompletionThreads + kShards * kWorkersPerShard;

// --- Inputs. ------------------------------------------------------------
constexpr int kServeSites = 4;
// Annotation half: the even pages among each site's first 2 * kTrainPages.
constexpr int kTrainPages = 24;
// Offered rate (requests/s) of both serve workloads: about a sixth of what
// the pinned stack answers closed-loop, and capped by the inputs: every
// serve_fresh request needs a page never served before. Goodput counts
// responses within the latency limit.
constexpr double kRate = 400;
constexpr double kLatencyLimitMs = 50;
constexpr int kSetupRepeats = 3;
constexpr int kFreshWarmupPerSite = 8;
constexpr int kOriginalsPerSite = 60;
constexpr double kRecrawlDuplicateShare = 0.8;
constexpr int kPublishEvery = 1000;
// The traced run replays this many requests of the stream.
constexpr size_t kTraceRequests = 1500;
// The measured stream is split into this many windows by request count;
// cpu_ms_per_page, p50_ms and p99_ms are medians over windows.
constexpr int kWindows = 5;

struct Request {
  int site = 0;
  int page = 0;          // index into the site's generated pages
  std::string html;      // bytes sent (a near-duplicate variant or the page)
  double due_s = 0;      // offset from the stream start
  int publish_site = -1; // publish a new model version for this site first
};

struct ServeInputs {
  std::unique_ptr<ceres::synth::Corpus> corpus;
  std::vector<std::string> sites;
  std::vector<Request> warmup;
  std::vector<Request> stream;
  int64_t planted_hits = 0;
  uint64_t digest = 0;
};

bool IsTrainPage(int page) { return page < 2 * kTrainPages && page % 2 == 0; }

// A near-duplicate re-fetch: a crawl marker comment before </body>, kept
// only when it stays within the cache's Hamming threshold of the page;
// otherwise a whitespace-only edit (fingerprint unchanged).
std::string NearDuplicate(const std::string& html, uint64_t token,
                          int threshold) {
  const uint64_t base = ceres::Simhash64(html);
  std::string variant = html;
  const size_t body_end = variant.rfind("</body>");
  if (body_end != std::string::npos) {
    variant.insert(body_end, "<!-- fetch " + std::to_string(token) + " -->");
    if (ceres::HammingDistance(base, ceres::Simhash64(variant)) <= threshold) {
      return variant;
    }
  }
  return html + std::string(1 + token % 3, '\n');
}

// Counts the stream's hits under the cache's documented semantics (a
// request hits when a resident page of its site lies within the
// threshold; a miss inserts its page; a publish drops the site's pages),
// starting from an empty cache before the warm-up pass. Nothing is
// evicted: a run's pages fit the default byte budget several times over.
int64_t PlantedHits(const std::vector<Request>& warmup,
                    const std::vector<Request>& stream, int threshold) {
  std::map<int, std::vector<uint64_t>> resident;
  int64_t hits = 0;
  auto step = [&](const Request& r, bool count) {
    if (r.publish_site >= 0) resident[r.publish_site].clear();
    const uint64_t fp = ceres::Simhash64(r.html);
    std::vector<uint64_t>& entries = resident[r.site];
    for (uint64_t e : entries) {
      if (ceres::HammingDistance(e, fp) <= threshold) {
        if (count) ++hits;
        return;
      }
    }
    entries.push_back(fp);
  };
  for (const Request& r : warmup) step(r, false);
  for (const Request& r : stream) step(r, true);
  return hits;
}

ServeInputs MakeServeInputs(uint64_t seed, double seconds, bool recrawl) {
  ServeInputs in;
  // Size the sites so the stream never runs out of unseen pages: the
  // expected fresh demand plus 20% and the warm-up, per site, plus the
  // training pages, at ~120 pages per site per unit of scale.
  const double fresh_share = recrawl ? 1.0 - kRecrawlDuplicateShare : 1.0;
  const int warm_per_site = recrawl ? kOriginalsPerSite : kFreshWarmupPerSite;
  const double pages_per_site = 1.2 * kRate * seconds * fresh_share /
                                    kServeSites +
                                warm_per_site + 2 * kTrainPages + 50;
  in.corpus = std::make_unique<ceres::synth::Corpus>(
      ceres::synth::MakeSwdeCorpus(ceres::synth::SwdeVertical::kMovie,
                                   std::ceil(pages_per_site / 120.0 * 10) / 10,
                                   seed * 1000 + 500));
  // Only the first kServeSites sites are served; free the rest.
  in.corpus->sites.resize(kServeSites);
  in.corpus->sites.shrink_to_fit();
  std::mt19937_64 rng(seed ^ 0x5e57e5ULL);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const int threshold = ceres::serve::PageCacheConfig().hamming_threshold;

  std::vector<std::vector<int>> pool(kServeSites);
  for (int s = 0; s < kServeSites; ++s) {
    in.sites.push_back(in.corpus->sites[static_cast<size_t>(s)].name);
    const int n =
        static_cast<int>(in.corpus->sites[static_cast<size_t>(s)].pages.size());
    for (int p = 0; p < n; ++p) {
      if (!IsTrainPage(p)) pool[static_cast<size_t>(s)].push_back(p);
    }
  }
  std::vector<size_t> next(kServeSites, 0);
  auto page_html = [&](int s, int p) -> const std::string& {
    return in.corpus->sites[static_cast<size_t>(s)]
        .pages[static_cast<size_t>(p)]
        .html;
  };
  // Fresh pages: a seeded random site's next never-served page.
  auto fresh = [&](Request* r) -> bool {
    for (int attempt = 0; attempt < kServeSites; ++attempt) {
      const int s = static_cast<int>((rng() + static_cast<uint64_t>(attempt)) %
                                     kServeSites);
      if (next[static_cast<size_t>(s)] < pool[static_cast<size_t>(s)].size()) {
        r->site = s;
        r->page = pool[static_cast<size_t>(s)][next[static_cast<size_t>(s)]++];
        r->html = page_html(s, r->page);
        return true;
      }
    }
    return false;
  };

  for (int s = 0; s < kServeSites; ++s) {
    for (int k = 0; k < warm_per_site; ++k) {
      Request r;
      r.site = s;
      r.page = pool[static_cast<size_t>(s)][next[static_cast<size_t>(s)]++];
      r.html = page_html(s, r.page);
      in.warmup.push_back(std::move(r));
    }
  }

  double t = 0;
  uint64_t edit_token = 0;
  int publish_round = 0;
  for (size_t i = 0;; ++i) {
    t += -std::log1p(-unit(rng)) / kRate;
    if (t >= seconds) break;
    Request r;
    r.due_s = t;
    bool ok = true;
    if (recrawl && unit(rng) < kRecrawlDuplicateShare) {
      const Request& original = in.warmup[static_cast<size_t>(
          rng() % in.warmup.size())];
      r.site = original.site;
      r.page = original.page;
      r.html = NearDuplicate(original.html, ++edit_token, threshold);
    } else {
      ok = fresh(&r);
    }
    if (!ok) {
      std::fprintf(stderr, "serve corpus too small for the stream\n");
      std::exit(1);
    }
    if (recrawl && i % kPublishEvery == kPublishEvery / 2) {
      r.publish_site = publish_round++ % kServeSites;
    }
    in.stream.push_back(std::move(r));
  }
  in.planted_hits = PlantedHits(in.warmup, in.stream, threshold);

  uint64_t h = Fnv("serve-inputs");
  for (const auto* list : {&in.warmup, &in.stream}) {
    for (const Request& r : *list) {
      h = Fnv(r.html, h);
      h = Fnv(std::to_string(r.site) + ":" + std::to_string(r.publish_site) +
                  ":" + std::to_string(r.due_s),
              h);
    }
  }
  for (int s = 0; s < kServeSites; ++s) {
    for (int p = 0; p < 2 * kTrainPages; p += 2) h = Fnv(page_html(s, p), h);
  }
  in.digest = h;
  return in;
}

// One serving stack: trained models published into a sharded service
// behind the HTTP front-end.
struct Stack {
  std::vector<ceres::TrainedModel> models;
  std::unique_ptr<ShardedExtractionService> service;
  std::unique_ptr<ceres::serve::ExtractionFrontend> frontend;
  /// Response bodies of the set-up's warm-up pass, in request order.
  std::vector<std::string> warmup_bodies;

  ~Stack() {
    if (frontend) {
      (void)frontend->Drain(ceres::Deadline::After(std::chrono::seconds(10)));
      frontend->Stop();
    }
    if (service) service->Stop();
  }
};

ceres::serve::ShardedServiceConfig ServiceConfig(const std::string& store,
                                                 int workers, bool cache) {
  ceres::serve::ShardedServiceConfig config;
  config.num_shards = kShards;
  config.service.worker_threads = workers;
  config.registry.root_dir = store;
  config.cache.enabled = cache;
  return config;
}

struct HttpOutcome {
  int status = 0;
  bool transport_error = false;
  double latency_ms = 0;  // from when the request was due
  double late_ms = 0;     // how late the generator sent it
  double recv_s = 0;      // offset of the response from the stream start
  std::string body;
};

ceres::net::HttpRequest ExtractRequest(const std::string& site,
                                       const std::string& html) {
  ceres::net::HttpRequest request;
  request.method = "POST";
  request.target = "/extract?site=" + site;
  request.version = "HTTP/1.1";
  request.body = html;
  return request;
}

// Sends `requests` on one keep-alive connection. Open loop: each request is
// sent at its due time (or as soon as the previous response is in, when
// the stream is behind) and timed from when it was due. Closed loop sends
// back to back. Publishes scheduled in the stream run on this thread just
// before their request.
// When `window_cpu` is given, the CPU time of the serving stack (process
// CPU minus this generator thread's own) is sampled before request
// k * n / kWindows for each window k, and once after the last.
std::vector<HttpOutcome> HttpReplay(uint16_t port,
                                    const std::vector<Request>& requests,
                                    const std::vector<std::string>& sites,
                                    bool open_loop, Stack* stack,
                                    Tracer* tracer,
                                    std::vector<double>* window_cpu = nullptr) {
  std::vector<HttpOutcome> out(requests.size());
  const size_t n = requests.size();
  ceres::net::HttpClient client("127.0.0.1", port);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (window_cpu != nullptr &&
        window_cpu->size() < kWindows &&
        i == window_cpu->size() * n / kWindows) {
      window_cpu->push_back(ProcessCpuSeconds(false) - ThreadCpuSeconds());
    }
    Tracer::Scope span(tracer, "net.roundtrip", static_cast<int64_t>(i));
    if (r.publish_site >= 0) {
      Tracer::Scope publish_span(tracer, "serve.publish", r.publish_site);
      ceres::Result<int64_t> version = stack->service->Publish(
          sites[static_cast<size_t>(r.publish_site)],
          stack->models[static_cast<size_t>(r.publish_site)]);
      if (!version.ok()) out[i].transport_error = true;
    }
    Clock::time_point due = Clock::now();
    if (open_loop) {
      due = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(r.due_s));
      WaitUntil(due);
    }
    const Clock::time_point sent = Clock::now();
    ceres::Result<ceres::net::HttpResponse> response = client.Roundtrip(
        ExtractRequest(sites[static_cast<size_t>(r.site)], r.html));
    const Clock::time_point received = Clock::now();
    HttpOutcome& o = out[i];
    o.late_ms = MillisBetween(due, sent);
    o.latency_ms = MillisBetween(due, received);
    o.recv_s = std::chrono::duration<double>(received - t0).count();
    if (!response.ok()) {
      o.transport_error = true;
      client.Close();
      continue;
    }
    o.status = response->status;
    o.body = std::move(response->body);
  }
  if (window_cpu != nullptr) {
    window_cpu->push_back(ProcessCpuSeconds(false) - ThreadCpuSeconds());
  }
  return out;
}

// The triples array of an extraction response body, verbatim.
std::string TriplesJson(const std::string& body) {
  const size_t begin = body.find("\"triples\":[");
  const size_t end = body.find("],\"shed_cause\"");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return "<no triples>";
  }
  return body.substr(begin, end - begin);
}

// Test hook: removes the second triple of the first body that has two.
void DropOneTriple(std::vector<HttpOutcome>* responses) {
  for (HttpOutcome& o : *responses) {
    const size_t cut = o.body.find("},{\"subject\"");
    if (cut != std::string::npos) {
      o.body.erase(cut + 1, o.body.find('}', cut + 2) - cut);
      return;
    }
  }
}

bool BodyIsHit(const std::string& body) {
  return body.find("\"near_dup_hit\":true") != std::string::npos;
}


std::unique_ptr<Stack> SetUp(const ServeInputs& in, const std::string& store,
                             Tracer* tracer, LayerTally* tally,
                             Outcome* outcome) {
  std::filesystem::remove_all(store);
  auto stack = std::make_unique<Stack>();
  const ceres::KnowledgeBase& kb = in.corpus->seed_kb;
  stack->service = std::make_unique<ShardedExtractionService>(
      kb.ontology(), ServiceConfig(store, kWorkersPerShard, true));
  for (int s = 0; s < kServeSites; ++s) {
    const std::string& site = in.sites[static_cast<size_t>(s)];
    const auto& pages = in.corpus->sites[static_cast<size_t>(s)].pages;
    std::vector<ceres::synth::GeneratedPage> train;
    for (int p = 0; p < 2 * kTrainPages; p += 2) {
      train.push_back(pages[static_cast<size_t>(p)]);
    }
    std::vector<ceres::ClusterModel> models;
    if (tracer != nullptr) {
      std::vector<ceres::PageIndex> all;
      for (size_t i = 0; i < train.size(); ++i) {
        all.push_back(static_cast<ceres::PageIndex>(i));
      }
      TracedSite traced;
      Check(outcome, TracedPipeline(train, kb, all, all, tracer, tally, &traced),
            "training page failed to parse");
      models = std::move(traced.models);
    } else {
      std::vector<ceres::DomDocument> docs;
      Check(outcome, ParsePages(train, &docs), "training page failed to parse");
      ceres::Result<ceres::PipelineResult> result =
          ceres::RunPipeline(docs, kb, ceres::PipelineConfig());
      if (result.ok()) models = std::move(result->models);
    }
    if (models.empty()) {
      Check(outcome, false, "no model trained for " + site);
      return nullptr;
    }
    stack->models.push_back(std::move(models.front().model));
    Tracer::Scope span(tracer, "serve.publish", s);
    ceres::Result<int64_t> version =
        stack->service->Publish(site, stack->models.back());
    if (!version.ok()) {
      Check(outcome, false, "publish failed: " + version.status().ToString());
      return nullptr;
    }
  }
  {
    Tracer::Scope span(tracer, "serve.start");
    ceres::serve::FrontendConfig frontend_config;
    frontend_config.completion_threads = kCompletionThreads;
    stack->frontend = std::make_unique<ceres::serve::ExtractionFrontend>(
        stack->service.get(), frontend_config);
    if (!stack->service->Start().ok() || !stack->frontend->Start().ok()) {
      Check(outcome, false, "serving stack failed to start");
      return nullptr;
    }
  }
  Tracer::Scope span(tracer, "serve.warmup");
  for (HttpOutcome& o :
       HttpReplay(stack->frontend->port(), in.warmup, in.sites, false,
                  stack.get(), nullptr)) {
    if (o.status != 200) {
      Check(outcome, false, "warm-up request failed");
      return nullptr;
    }
    stack->warmup_bodies.push_back(std::move(o.body));
  }
  return stack;
}

// Triples JSON and full results of a cache-less in-process service over the
// same model store, for every distinct page in `requests`. Run after the
// measured phase, so it may use every core.
struct Oracle {
  std::map<std::string, std::string> triples_json;
  std::map<std::string, ServeResult> results;
};

Oracle InprocOracle(const ServeInputs& in,
                    const std::vector<const Request*>& requests,
                    const std::string& store) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  ShardedExtractionService service(
      in.corpus->seed_kb.ontology(),
      ServiceConfig(store, static_cast<int>(std::max(1L, nproc)), false));
  Oracle oracle;
  if (!service.Start().ok()) return oracle;
  std::map<std::string, std::pair<int, std::future<ServeResult>>> pending;
  for (const Request* r : requests) {
    if (pending.count(r->html) != 0) continue;
    ceres::serve::ServeRequest request;
    request.site = in.sites[static_cast<size_t>(r->site)];
    request.html = r->html;
    pending.emplace(r->html,
                    std::make_pair(r->site, service.Submit(std::move(request))));
  }
  for (auto& [html, entry] : pending) {
    ServeResult result = entry.second.get();
    oracle.triples_json[html] =
        TriplesJson(ceres::serve::EncodeServeResultJson(
            in.sites[static_cast<size_t>(entry.first)], result));
    oracle.results[html] = std::move(result);
  }
  service.Stop();
  return oracle;
}

// Walks the responses in order through the near-duplicate cache's
// semantics: a request hits when a resident page of its site lies within
// the threshold (the first one, in insertion order), a miss inserts its
// page, a publish drops the site's pages. Checks every body's hit flag and
// triples against that expectation: a miss must carry in-process Submit's
// triples for its own page, a hit the triples of the page it matched.
// Returns, per request, the page whose triples were served.
std::vector<const std::string*> VerifyResponses(
    const std::vector<const Request*>& requests,
    const std::vector<const std::string*>& bodies, const Oracle& oracle,
    int threshold, Outcome* outcome) {
  struct Entry {
    uint64_t fp;
    const std::string* html;
  };
  std::map<int, std::vector<Entry>> resident;
  std::vector<const std::string*> served(requests.size(), nullptr);
  int64_t wrong_flag = 0, wrong_triples = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = *requests[i];
    if (r.publish_site >= 0) resident[r.publish_site].clear();
    const uint64_t fp = ceres::Simhash64(r.html);
    const Entry* match = nullptr;
    for (const Entry& e : resident[r.site]) {
      if (ceres::HammingDistance(e.fp, fp) <= threshold) {
        match = &e;
        break;
      }
    }
    served[i] = match != nullptr ? match->html : &r.html;
    if (BodyIsHit(*bodies[i]) != (match != nullptr)) ++wrong_flag;
    auto expected = oracle.triples_json.find(*served[i]);
    if (expected == oracle.triples_json.end() ||
        TriplesJson(*bodies[i]) != expected->second) {
      ++wrong_triples;
    }
    if (match == nullptr) resident[r.site].push_back(Entry{fp, &r.html});
  }
  Check(outcome, wrong_flag == 0,
        std::to_string(wrong_flag) +
            " responses disagree with the cache's hit/miss semantics");
  Check(outcome, wrong_triples == 0,
        std::to_string(wrong_triples) +
            " response bodies differ from in-process Submit (misses) or "
            "from their matched original (hits)");
  return served;
}

// F1 of the served triples over the distinct pages served, against the
// generator's ground truth of each requested page.
ceres::eval::Prf ServedQuality(const ServeInputs& in,
                               const std::vector<const Request*>& requests,
                               const std::vector<const std::string*>& served,
                               const Oracle& oracle) {
  ceres::eval::Prf prf;
  const std::vector<ceres::PredicateId> predicates =
      EvalPredicateIds(*in.corpus);
  for (int s = 0; s < kServeSites; ++s) {
    const auto& pages = in.corpus->sites[static_cast<size_t>(s)].pages;
    std::vector<ceres::DomDocument> docs;
    if (!ParsePages(pages, &docs)) continue;
    const ceres::eval::SiteTruth truth =
        ceres::synth::BuildSiteTruth(pages, docs);
    ceres::eval::ScoreOptions score;
    score.predicates = predicates;
    std::vector<bool> seen(pages.size(), false);
    std::vector<ceres::Extraction> extractions;
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& r = *requests[i];
      if (r.site != s || seen[static_cast<size_t>(r.page)]) continue;
      seen[static_cast<size_t>(r.page)] = true;
      score.pages.push_back(r.page);
      auto result = oracle.results.find(*served[i]);
      if (result == oracle.results.end()) continue;
      for (ceres::Extraction e : result->second.triples) {
        e.page = r.page;
        extractions.push_back(std::move(e));
      }
    }
    std::sort(score.pages.begin(), score.pages.end());
    prf += ceres::eval::ScoreExtractions(extractions, truth, score);
  }
  return prf;
}

// Empties the near-duplicate cache and re-serves the warm-up pages
// in-process, so a replay starts from the state the measured stream did.
void ResetCache(const ServeInputs& in, Stack* stack, Tracer* tracer) {
  Tracer::Scope span(tracer, "serve.reset_cache");
  stack->service->cache().Clear();
  for (const Request& r : in.warmup) {
    ceres::serve::ServeRequest request;
    request.site = in.sites[static_cast<size_t>(r.site)];
    request.html = r.html;
    (void)stack->service->Submit(std::move(request)).get();
  }
}

// Closed-loop in-process replay; returns per-request latency (us) and the
// triples JSON of each result.
double InprocClosedReplay(const ServeInputs& in,
                          const std::vector<Request>& requests, Stack* stack,
                          Tracer* tracer, std::vector<double>* latency_us,
                          std::vector<std::string>* triples) {
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.publish_site >= 0) {
      Tracer::Scope span(tracer, "serve.publish", r.publish_site);
      (void)stack->service->Publish(
          in.sites[static_cast<size_t>(r.publish_site)],
          stack->models[static_cast<size_t>(r.publish_site)]);
    }
    ceres::serve::ServeRequest request;
    request.site = in.sites[static_cast<size_t>(r.site)];
    request.html = r.html;
    const Clock::time_point sent = Clock::now();
    std::future<ServeResult> future;
    {
      Tracer::Scope span(tracer, "serve.submit", static_cast<int64_t>(i));
      future = stack->service->Submit(std::move(request));
    }
    ServeResult result;
    {
      Tracer::Scope span(tracer, "serve.wait", static_cast<int64_t>(i));
      result = future.get();
    }
    latency_us->push_back(MillisBetween(sent, Clock::now()) * 1e3);
    triples->push_back(TriplesJson(ceres::serve::EncodeServeResultJson(
        in.sites[static_cast<size_t>(r.site)], result)));
  }
  return SecondsSince(start) * 1e3;
}

void TracedServeRun(const Options& options, const ServeInputs& in,
                    Outcome* outcome) {
  Tracer tracer;
  LayerTally tally;
  Metrics& m = outcome->metrics;
  const std::vector<Request> stream(
      in.stream.begin(),
      in.stream.begin() +
          static_cast<std::ptrdiff_t>(std::min(kTraceRequests, in.stream.size())));
  std::vector<double> queue_us, parse_us, inference_us, batch_sizes, late_ms,
      publish_ms;
  int64_t shed = 0, hits = 0, model_hits = 0, misses = 0;
  ceres::serve::PageCacheStats cache_before, cache_after;
  std::vector<double> inproc_us, http_us;
  std::vector<std::string> inproc_triples;
  std::vector<HttpOutcome> http;
  ceres::net::HttpServerStats http_before, http_after;
  double untraced_ms = 0, traced_ms = 0;
  {
    Tracer::Scope root(&tracer, "serve.trace", 0);
    std::unique_ptr<Stack> stack;
    {
      Tracer::Scope span(&tracer, "serve.setup");
      stack = SetUp(in, options.work_dir + "/store", &tracer, &tally, outcome);
    }
    if (!stack) return;

    // Replay 1: in-process, open loop at the workload's rate.
    ResetCache(in, stack.get(), &tracer);
    cache_before = stack->service->cache().stats();
    {
      Tracer::Scope replay(&tracer, "replay.inproc_open");
      std::vector<std::future<ServeResult>> futures;
      const Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < stream.size(); ++i) {
        const Request& r = stream[i];
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(r.due_s));
        WaitUntil(due);
        late_ms.push_back(MillisBetween(due, Clock::now()));
        if (r.publish_site >= 0) {
          Tracer::Scope span(&tracer, "serve.publish", r.publish_site);
          const Clock::time_point start = Clock::now();
          (void)stack->service->Publish(
              in.sites[static_cast<size_t>(r.publish_site)],
              stack->models[static_cast<size_t>(r.publish_site)]);
          publish_ms.push_back(SecondsSince(start) * 1e3);
        }
        {
          Tracer::Scope span(&tracer, "serve.fingerprint",
                             static_cast<int64_t>(i));
          (void)stack->service->cache().Fingerprint(r.html);
        }
        ceres::serve::ServeRequest request;
        request.site = in.sites[static_cast<size_t>(r.site)];
        request.html = r.html;
        Tracer::Scope span(&tracer, "serve.submit", static_cast<int64_t>(i));
        futures.push_back(stack->service->Submit(std::move(request)));
      }
      Tracer::Scope span(&tracer, "serve.wait");
      for (std::future<ServeResult>& future : futures) {
        const ServeResult result = future.get();
        const ceres::serve::ServeDiagnostics& d = result.diagnostics;
        if (d.shed_cause != ceres::serve::ShedCause::kNone) ++shed;
        if (d.near_dup_hit) {
          ++hits;
          continue;
        }
        ++misses;
        if (d.model_cache_hit) ++model_hits;
        queue_us.push_back(static_cast<double>(d.queue_wait.count()));
        parse_us.push_back(static_cast<double>(d.parse_time.count()));
        inference_us.push_back(static_cast<double>(d.inference_time.count()));
        batch_sizes.push_back(d.batch_size);
      }
    }
    cache_after = stack->service->cache().stats();

    // Replays 2 and 3: in-process closed loop, untraced then traced.
    ResetCache(in, stack.get(), &tracer);
    {
      // Same work as the traced replay below, with no spans inside.
      Tracer::Scope replay(&tracer, "replay.inproc_untraced");
      std::vector<double> unused_latency;
      std::vector<std::string> unused_triples;
      untraced_ms = InprocClosedReplay(in, stream, stack.get(), nullptr,
                                       &unused_latency, &unused_triples);
    }
    ResetCache(in, stack.get(), &tracer);
    {
      Tracer::Scope replay(&tracer, "replay.inproc_closed");
      traced_ms = InprocClosedReplay(in, stream, stack.get(), &tracer,
                                     &inproc_us, &inproc_triples);
    }

    // Replay 4: the same stream over HTTP, closed loop.
    ResetCache(in, stack.get(), &tracer);
    http_before = stack->frontend->server_stats();
    {
      Tracer::Scope replay(&tracer, "replay.http_closed");
      http = HttpReplay(stack->frontend->port(), stream, in.sites, false,
                        stack.get(), &tracer);
    }
    Check(outcome,
          stack->frontend->Drain(ceres::Deadline::After(std::chrono::seconds(10)))
              .ok(),
          "front-end drain failed");
    http_after = stack->frontend->server_stats();
    Tracer::Scope teardown(&tracer, "serve.teardown");
    stack.reset();
  }

  if (options.tamper == "drop-triple") DropOneTriple(&http);
  int64_t differ = 0;
  for (size_t i = 0; i < http.size(); ++i) {
    http_us.push_back(http[i].latency_ms * 1e3);
    if (http[i].status != 200) ++outcome->failed;
    if (i < inproc_triples.size() &&
        TriplesJson(http[i].body) != inproc_triples[i]) {
      ++differ;
    }
  }
  Check(outcome, differ == 0,
        std::to_string(differ) +
            " HTTP bodies differ from in-process Submit on the same stream");
  const int64_t requests = http_after.requests - http_before.requests;
  const int64_t responses = http_after.responses - http_before.responses;
  Check(outcome, requests == responses, "socket edge: requests != responses");
  outcome->attempted = static_cast<int64_t>(http.size());
  tracer.PrintSelfTimes();
  tracer.WriteJsonLines(options.work_dir + "/trace_spans.jsonl");

  SetPipelineLayerMetrics(tally, tracer, &m);
  m.Set("serve.queue_wait_us_p50", TakePercentile(queue_us, 0.5).value, "us");
  m.Set("serve.queue_wait_us_p99", TakePercentile(queue_us, 0.99).value, "us");
  m.Set("serve.parse_us_p50", TakePercentile(parse_us, 0.5).value, "us");
  m.Set("serve.inference_us_p50", TakePercentile(inference_us, 0.5).value,
        "us");
  m.Set("serve.batch_size_mean", Mean(batch_sizes), "count");
  m.Set("serve.shed", static_cast<double>(shed), "count");
  m.Set("serve.cache_hit_ratio",
        stream.empty() ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(stream.size()),
        "ratio");
  const int64_t fp_count = tracer.Count("serve.fingerprint");
  m.Set("serve.fingerprint_us",
        fp_count > 0 ? tracer.TotalMs("serve.fingerprint") * 1e3 /
                           static_cast<double>(fp_count)
                     : 0.0,
        "us");
  m.Set("serve.cache_evictions",
        static_cast<double>(cache_after.evictions - cache_before.evictions),
        "count");
  m.Set("serve.cache_invalidations",
        static_cast<double>(cache_after.invalidations -
                            cache_before.invalidations),
        "count");
  m.Set("serve.publish_ms", Median(publish_ms), "ms");
  m.Set("serve.model_hit_ratio",
        misses > 0 ? static_cast<double>(model_hits) /
                         static_cast<double>(misses)
                   : 0.0,
        "ratio");
  const double inproc_p50 = TakePercentile(inproc_us, 0.5).value;
  m.Set("serve.inproc_p50_us", inproc_p50, "us");
  m.Set("net.overhead_us_p50", TakePercentile(http_us, 0.5).value - inproc_p50,
        "us");
  m.Set("net.requests", static_cast<double>(requests), "count");
  m.Set("net.responses", static_cast<double>(responses), "count");
  m.Set("net.accepted",
        static_cast<double>(http_after.accepted - http_before.accepted),
        "count");
  m.Set("net.parse_errors",
        static_cast<double>(http_after.parse_errors - http_before.parse_errors),
        "count");
  m.Set("loadgen.late_ms_p99", TakePercentile(late_ms, 0.99).value, "ms");
  m.Set("trace.overhead_ratio", untraced_ms > 0 ? traced_ms / untraced_ms : 0,
        "ratio");
}

}  // namespace

int SelfTestServeInputs() {
  int failures = 0;
  const int threshold = ceres::serve::PageCacheConfig().hamming_threshold;
  for (bool recrawl : {false, true}) {
    const char* name = recrawl ? "serve_recrawl" : "serve_fresh";
    const ServeInputs a = MakeServeInputs(11, 2.0, recrawl);
    const ServeInputs b = MakeServeInputs(11, 2.0, recrawl);
    const ServeInputs c = MakeServeInputs(12, 2.0, recrawl);
    std::printf("  %s inputs: seed 11 digest %016llx twice %016llx, seed 12 "
                "%016llx\n",
                name, static_cast<unsigned long long>(a.digest),
                static_cast<unsigned long long>(b.digest),
                static_cast<unsigned long long>(c.digest));
    if (a.digest != b.digest || a.digest == c.digest) {
      std::printf("FAIL: %s inputs are not a function of the seed\n", name);
      ++failures;
    }
    // Near-duplicate edits are byte edits within the threshold of their
    // original; on serve_fresh, the planted hits are exactly the fresh
    // pages that land within the threshold of a resident page (recomputed
    // here independently of PlantedHits).
    std::map<std::pair<int, int>, const std::string*> originals;
    for (const Request& r : a.warmup) originals[{r.site, r.page}] = &r.html;
    int64_t edits = 0, far_edits = 0, fresh = 0, fresh_close = 0;
    std::map<int, std::vector<uint64_t>> seen;
    auto nearest_resident = [&](int site, uint64_t fp) {
      int nearest = 64;
      for (uint64_t e : seen[site]) {
        nearest = std::min(nearest, ceres::HammingDistance(e, fp));
      }
      return nearest;
    };
    for (const Request& r : a.warmup) {
      const uint64_t fp = ceres::Simhash64(r.html);
      if (nearest_resident(r.site, fp) > threshold) seen[r.site].push_back(fp);
    }
    for (const Request& r : a.stream) {
      const uint64_t fp = ceres::Simhash64(r.html);
      auto original = originals.find({r.site, r.page});
      if (original != originals.end()) {
        ++edits;
        if (*original->second == r.html ||
            ceres::HammingDistance(ceres::Simhash64(*original->second), fp) >
                threshold) {
          ++far_edits;
        }
        continue;
      }
      ++fresh;
      if (nearest_resident(r.site, fp) <= threshold) {
        ++fresh_close;
      } else {
        seen[r.site].push_back(fp);
      }
    }
    std::printf("  %s: %lld near-dup edits (%lld not a byte edit within the "
                "threshold), %lld fresh pages (%lld within the threshold of "
                "a resident page of their site)\n",
                name, static_cast<long long>(edits),
                static_cast<long long>(far_edits),
                static_cast<long long>(fresh),
                static_cast<long long>(fresh_close));
    if (far_edits != 0 || (recrawl && edits == 0) || (!recrawl && edits != 0)) {
      std::printf("FAIL: %s near-duplicate edits\n", name);
      ++failures;
    }
    // Distinct pages that land inside the threshold are a property of the
    // serving tier's fingerprint, not of the generator; the benchmark
    // plants them as hits so the hit-ratio check still holds exactly.
    if (!recrawl && a.planted_hits != fresh_close) {
      std::printf("FAIL: %s planted %lld hits, %lld fresh pages collide\n",
                  name, static_cast<long long>(a.planted_hits),
                  static_cast<long long>(fresh_close));
      ++failures;
    }
  }
  return failures;
}

Outcome RunServe(const Options& options, bool recrawl) {
  Outcome outcome;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int threads = kServerThreads + kLoadgenThreads;
  std::printf("pools: %d event loop + %d completion + %d shard x %d worker "
              "+ %d load generator (1 connection) = %d threads, nproc %ld\n",
              kEventLoopThreads, kCompletionThreads, kShards, kWorkersPerShard,
              kLoadgenThreads, threads, nproc);
  if (threads > nproc) {
    std::fprintf(stderr, "refusing to start: %d threads would oversubscribe "
                 "%ld processors\n", threads, nproc);
    Check(&outcome, false, "workload would oversubscribe the host");
    return outcome;
  }

  const ServeInputs in =
      MakeServeInputs(options.seed, options.seconds, recrawl);
  const double planted_ratio =
      in.stream.empty() ? 0.0
                        : static_cast<double>(in.planted_hits) /
                              static_cast<double>(in.stream.size());
  std::printf("inputs: %zu sites, %zu warm-up + %zu stream requests at "
              "%.0f/s, planted hit ratio %.4f, digest %016llx\n",
              in.sites.size(), in.warmup.size(), in.stream.size(),
              kRate, planted_ratio,
              static_cast<unsigned long long>(in.digest));

  // The serving stack and the generator share one CPU, from set-up until
  // the stack is gone (see PinnedToOneCpu). With one connection and one
  // request in flight, its threads form a strict chain: one runs at a time.
  auto pin = std::make_unique<PinnedToOneCpu>();
  std::printf("pinned the serving stack and load generator to cpu %d\n",
              pin->cpu());
  if (options.trace) {
    TracedServeRun(options, in, &outcome);
    return outcome;
  }

  // --- Set-up: train, publish, start, warm up; repeated, median. ---------
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < kSetupRepeats; ++r) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    stack = SetUp(in, options.work_dir + "/store", nullptr, nullptr, &outcome);
    if (!stack) return outcome;
    setup_s.push_back(SecondsSince(start));
  }
  std::printf("setup: %d repeats, median %.4f s (min %.4f, max %.4f)\n",
              kSetupRepeats, Median(setup_s),
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));

  // --- Measured phase: the open-loop stream. -----------------------------
  const ceres::net::HttpServerStats http_before =
      stack->frontend->server_stats();
  const Clock::time_point start = Clock::now();
  std::vector<double> window_cpu;
  std::vector<HttpOutcome> responses =
      HttpReplay(stack->frontend->port(), in.stream, in.sites, true,
                 stack.get(), nullptr, &window_cpu);
  const double elapsed = SecondsSince(start);
  const double cpu = window_cpu.back() - window_cpu.front();
  // Drain so every accepted request has been answered before counting.
  Check(&outcome,
        stack->frontend->Drain(ceres::Deadline::After(std::chrono::seconds(10)))
            .ok(),
        "front-end drain failed");
  const ceres::net::HttpServerStats http = stack->frontend->server_stats();
  const ceres::serve::PageCacheStats cache = stack->service->cache().stats();
  std::printf("cache: %zu entries, %.2f MB resident of a %.0f MB budget, "
              "%lld evictions, %lld invalidations\n",
              cache.entries, static_cast<double>(cache.bytes) / (1 << 20),
              static_cast<double>(stack->service->cache().config().max_bytes) /
                  (1 << 20),
              static_cast<long long>(cache.evictions),
              static_cast<long long>(cache.invalidations));
  const std::vector<std::string> warmup_bodies = stack->warmup_bodies;
  stack.reset();
  pin.reset();

  std::vector<double> late;
  std::vector<Window> windows(kWindows);
  int64_t good = 0, hits = 0;
  double last_recv = 0;
  const size_t n = responses.size();
  for (size_t i = 0; i < n; ++i) {
    const HttpOutcome& o = responses[i];
    Window& w = windows[std::min<size_t>(kWindows - 1, i * kWindows / n)];
    w.latency_ms.push_back(o.latency_ms);
    w.tail_ms.push_back(o.latency_ms - o.late_ms);
    ++w.units;
    late.push_back(o.late_ms);
    last_recv = std::max(last_recv, o.recv_s);
    if (o.transport_error || o.status != 200) {
      ++outcome.failed;
      continue;
    }
    if (o.latency_ms <= kLatencyLimitMs) ++good;
    if (BodyIsHit(o.body)) ++hits;
  }
  for (size_t k = 0; k < windows.size() && k + 1 < window_cpu.size(); ++k) {
    windows[k].cpu_seconds = window_cpu[k + 1] - window_cpu[k];
    const size_t first = k * n / kWindows;
    const size_t last = (k + 1) * n / kWindows - 1;
    windows[k].seconds = responses[last].recv_s - in.stream[first].due_s;
  }
  outcome.attempted = static_cast<int64_t>(responses.size());
  std::printf("measured: %zu requests, %.3f s wall, %.3f s serving cpu "
              "(cpu/wall %.2f), %lld answered 200 within %.0f ms, %lld near-dup hits\n",
              responses.size(), elapsed, cpu, cpu / elapsed,
              static_cast<long long>(good), kLatencyLimitMs,
              static_cast<long long>(hits));

  // --- Output checks. -----------------------------------------------------
  const int64_t requests_seen = http.requests - http_before.requests;
  const int64_t responses_sent = http.responses - http_before.responses;
  Check(&outcome, requests_seen == responses_sent,
        "socket edge: requests != responses");
  Check(&outcome, requests_seen == static_cast<int64_t>(responses.size()),
        "the socket edge saw a different number of requests than were sent");
  // The planted hits (and VerifyResponses) model a cache that never
  // evicts: at the default byte budget the stream stays well inside it.
  Check(&outcome, hits == in.planted_hits,
        "observed near-dup hits " + std::to_string(hits) + " != planted " +
            std::to_string(in.planted_hits) + " (cache evictions: " +
            std::to_string(cache.evictions) + ")");
  if (options.tamper == "drop-triple") DropOneTriple(&responses);
  std::vector<const Request*> requests;
  std::vector<const std::string*> bodies;
  for (size_t i = 0; i < in.warmup.size(); ++i) {
    requests.push_back(&in.warmup[i]);
    bodies.push_back(&warmup_bodies[i]);
  }
  for (size_t i = 0; i < in.stream.size(); ++i) {
    requests.push_back(&in.stream[i]);
    bodies.push_back(&responses[i].body);
  }
  const Oracle oracle =
      InprocOracle(in, requests, options.work_dir + "/store");
  const std::vector<const std::string*> served = VerifyResponses(
      requests, bodies, oracle,
      ceres::serve::PageCacheConfig().hamming_threshold, &outcome);
  const std::vector<const Request*> stream_requests(
      requests.begin() + static_cast<std::ptrdiff_t>(in.warmup.size()),
      requests.end());
  const std::vector<const std::string*> stream_served(
      served.begin() + static_cast<std::ptrdiff_t>(in.warmup.size()),
      served.end());
  const ceres::eval::Prf prf =
      ServedQuality(in, stream_requests, stream_served, oracle);
  std::printf("quality: tp %lld fp %lld fn %lld over served pages\n",
              static_cast<long long>(prf.tp), static_cast<long long>(prf.fp),
              static_cast<long long>(prf.fn));

  Metrics& m = outcome.metrics;
  m.Set("pages_per_s", last_recv > 0 ? static_cast<double>(good) / last_recv : 0,
        "1/s");
  SetWindowMedians(&outcome, windows, /*set_rate=*/false);
  m.Set("extract_f1", prf.f1(), "ratio");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("loadgen.late_ms_p99", TakePercentile(late, 0.99).value, "ms");
  return outcome;
}

}  // namespace perfbench

#include "net/http_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/http_client.h"
#include "obs/metrics.h"
#include "serve/http_frontend.h"
#include "serve/serve_test_util.h"
#include "serve/sharded_service.h"
#include "util/sync.h"

namespace ceres::serve {
namespace {

using ceres::testing::TrainedFilmSite;
using std::chrono::milliseconds;

constexpr char kSite[] = "films.example";
constexpr char kHost[] = "127.0.0.1";

net::HttpRequest MakeRequest(std::string method, std::string target,
                             std::string body = "") {
  net::HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  return request;
}

/// Echoes the request body (or the target for bodyless requests) inline
/// on the event loop — the minimal well-behaved handler.
net::HttpServer::Handler EchoHandler() {
  return [](net::HttpRequest request, net::HttpServer::Responder responder) {
    net::HttpResponse response;
    response.body =
        request.body.empty() ? std::string(request.target) : request.body;
    responder.Send(std::move(response));
  };
}

// ---------------------------------------------------------------------------
// Bare HttpServer: protocol discipline on the socket edge.
// ---------------------------------------------------------------------------

TEST(HttpServerTest, ServesConcurrentKeepAliveClients) {
  net::HttpServer server(EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      net::HttpClient client(kHost, server.port());
      for (int i = 0; i < kPerThread; ++i) {
        const std::string body =
            "thread-" + std::to_string(t) + "-req-" + std::to_string(i);
        auto response = client.Roundtrip(MakeRequest("POST", "/echo", body));
        if (response.ok() && response.value().status == 200 &&
            response.value().body == body) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  const net::HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.responses, kThreads * kPerThread);
  EXPECT_EQ(stats.responses_dropped, 0);
  EXPECT_EQ(stats.parse_errors, 0);
}

TEST(HttpServerTest, KeepAliveReusesOneConnection) {
  net::HttpServer server(EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  net::HttpClient client(kHost, server.port());
  for (int i = 0; i < 10; ++i) {
    auto response = client.Roundtrip(MakeRequest("GET", "/ping"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 200);
  }
  // The whole exchange rode one accepted socket.
  EXPECT_EQ(client.reconnects(), 0);
  EXPECT_EQ(server.stats().accepted, 1);
}

TEST(HttpServerTest, MalformedRequestGetsTypedErrorAndClose) {
  net::HttpServer server(EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  net::HttpClient client(kHost, server.port());
  ASSERT_TRUE(client.SendRaw("BROKEN\r\n\r\n").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 400);
  const net::HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.parse_errors, 1);
  EXPECT_EQ(stats.requests, 0);  // the handler never saw it
}

TEST(HttpServerTest, ChunkedAndOversizedRequestsAreRejected) {
  net::HttpServer server(EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  {
    net::HttpClient client(kHost, server.port());
    ASSERT_TRUE(client
                    .SendRaw("POST /echo HTTP/1.1\r\n"
                             "Transfer-Encoding: chunked\r\n\r\n")
                    .ok());
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 501);
  }
  {
    net::HttpClient client(kHost, server.port());
    // One byte over the 8 MiB body limit; the header alone is rejected.
    ASSERT_TRUE(client
                    .SendRaw("POST /echo HTTP/1.1\r\n"
                             "Content-Length: 8388609\r\n\r\n")
                    .ok());
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 413);
  }
  const net::HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.parse_errors, 2);
  EXPECT_EQ(stats.oversized, 1);
}

TEST(HttpServerTest, PerClientRateLimitSheds429WithAccounting) {
  net::HttpServerConfig config;
  // A negligible refill rate makes the outcome deterministic: exactly the
  // burst is admitted, everything after is shed.
  config.rate_limit.tokens_per_second = 0.001;
  config.rate_limit.burst = 3;
  net::HttpServer server(EchoHandler(), config);
  ASSERT_TRUE(server.Start().ok());
  net::HttpClient client(kHost, server.port());
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    auto response = client.Roundtrip(MakeRequest("GET", "/ping"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response.value().status == 200) {
      ++ok;
    } else {
      ASSERT_EQ(response.value().status, 429);
      ++shed;
      const std::string* cause = nullptr;
      for (const net::HttpHeader& header : response.value().headers) {
        if (header.name == "x-ceres-shed") cause = &header.value;
      }
      ASSERT_NE(cause, nullptr);
      EXPECT_EQ(*cause, "rate-limit");
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(shed, 7);
  const net::HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.rate_limited, 7);
  // Every request was fully parsed and answered; the shed ones just never
  // reached the handler.
  EXPECT_EQ(stats.requests, 10);
  EXPECT_EQ(stats.responses, 10);
}

TEST(HttpServerTest, TornRequestStallIsAnsweredWith408) {
  net::HttpServerConfig config;
  config.header_timeout_ms = 100;
  net::HttpServer server(EchoHandler(), config);
  ASSERT_TRUE(server.Start().ok());
  net::HttpClient client(kHost, server.port());
  ASSERT_TRUE(client.SendRaw("POST /echo HTTP/1.1\r\nContent-Le").ok());
  // Never send the rest; the server must time the stall out itself.
  auto response = client.ReadResponse(5000);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 408);
  EXPECT_EQ(server.stats().torn_closed, 1);
}

TEST(HttpServerTest, IdleKeepAliveConnectionIsClosed) {
  net::HttpServerConfig config;
  config.idle_timeout_ms = 100;
  net::HttpServer server(EchoHandler(), config);
  ASSERT_TRUE(server.Start().ok());
  net::HttpClient client(kHost, server.port());
  ASSERT_TRUE(client.Roundtrip(MakeRequest("GET", "/ping")).ok());
  // Outlive the idle timeout (plus sweep granularity) between requests.
  std::this_thread::sleep_for(milliseconds(400));
  auto response = client.Roundtrip(MakeRequest("GET", "/ping"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 200);
  // The client found the socket dead and transparently reopened it.
  EXPECT_EQ(client.reconnects(), 1);
  EXPECT_GE(server.stats().idle_closed, 1);
}

TEST(HttpServerTest, DrainFlushesInFlightResponsesThenRefusesNew) {
  // The handler parks the responder; a background thread answers after
  // the drain has begun — the drain must wait for that response to flush.
  struct Parked {
    CheckedMutex mu{"Parked.mu"};
    net::HttpServer::Responder responder CERES_GUARDED_BY(mu);
    bool armed CERES_GUARDED_BY(mu) = false;
  };
  auto parked = std::make_shared<Parked>();
  net::HttpServer server(
      [parked](net::HttpRequest, net::HttpServer::Responder responder) {
        MutexLock lock(parked->mu);
        parked->responder = std::move(responder);
        parked->armed = true;
      });
  ASSERT_TRUE(server.Start().ok());

  net::HttpClient client(kHost, server.port());
  ASSERT_TRUE(client.SendRaw(net::EncodeRequest(
                                 MakeRequest("POST", "/slow", "work")))
                  .ok());
  while (true) {
    MutexLock lock(parked->mu);
    if (parked->armed) break;
  }
  std::thread answer([parked] {
    std::this_thread::sleep_for(milliseconds(100));
    net::HttpResponse response;
    response.body = "late but flushed";
    MutexLock lock(parked->mu);
    parked->responder.Send(std::move(response));
  });
  ASSERT_TRUE(server.Drain(Deadline::After(milliseconds(5000))).ok());
  answer.join();

  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().body, "late but flushed");
  const net::HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.responses, 1);
  EXPECT_EQ(stats.responses_dropped, 0);
  // The listener is gone: a new client cannot reach the server.
  net::HttpClient late(kHost, server.port());
  EXPECT_FALSE(late.Roundtrip(MakeRequest("GET", "/ping")).ok());
}

// ---------------------------------------------------------------------------
// Loopback end-to-end: HTTP front-end over the sharded extraction tier.
// ---------------------------------------------------------------------------

class FrontendE2eTest : public ::testing::Test {
 protected:
  void StartService(bool cache_enabled,
                    FrontendConfig frontend_config = {}) {
    root_ = ::testing::TempDir() + "/net_e2e_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    ShardedServiceConfig config;
    config.num_shards = 2;
    config.service.worker_threads = 2;
    config.registry.root_dir = root_;
    config.cache.enabled = cache_enabled;
    service_ = std::make_unique<ShardedExtractionService>(
        site_.kb.kb.ontology(), config);
    ASSERT_TRUE(service_->Publish(kSite, *site_.model).ok());
    ASSERT_TRUE(service_->Start().ok());
    frontend_ = std::make_unique<ExtractionFrontend>(service_.get(),
                                                     frontend_config);
    ASSERT_TRUE(frontend_->Start().ok());
  }

  void TearDown() override {
    if (frontend_ != nullptr) frontend_->Stop();
    if (service_ != nullptr) service_->Stop();
  }

  static net::HttpRequest ExtractRequest(int variant = 0) {
    return MakeRequest("POST",
                       std::string("/extract?site=") + kSite,
                       TrainedFilmSite::UnseenPageHtml(variant));
  }

  ServeRequest DirectRequest(int variant = 0) {
    ServeRequest request;
    request.site = kSite;
    request.html = TrainedFilmSite::UnseenPageHtml(variant);
    return request;
  }

  int64_t ShardCompletions() { return service_->stats().service.completed; }

  TrainedFilmSite site_;
  std::string root_;
  std::unique_ptr<ShardedExtractionService> service_;
  std::unique_ptr<ExtractionFrontend> frontend_;
};

TEST_F(FrontendE2eTest, LoopbackResponseIsByteIdenticalToDirectSubmit) {
  // Cache off: both paths run the full parse + inference pipeline, and
  // the only remaining nondeterminism (cold-load diagnostics) is removed
  // by warming the model first.
  StartService(/*cache_enabled=*/false);
  (void)service_->Submit(DirectRequest()).get();

  net::HttpClient client(kHost, frontend_->port());
  auto response = client.Roundtrip(ExtractRequest());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().status, 200);

  const ServeResult direct = service_->Submit(DirectRequest()).get();
  ASSERT_TRUE(direct.status.ok());
  ASSERT_FALSE(direct.triples.empty());
  EXPECT_EQ(response.value().body, EncodeServeResultJson(kSite, direct));
}

TEST_F(FrontendE2eTest, NearDupResendIsServedWithoutParseOrInference) {
  StartService(/*cache_enabled=*/true);
  net::HttpClient client(kHost, frontend_->port());

  auto first = client.Roundtrip(ExtractRequest());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().status, 200);
  EXPECT_NE(first.value().body.find("\"near_dup_hit\":false"),
            std::string::npos);
  const int64_t completions_after_first = ShardCompletions();

  // The re-crawl carries whitespace and case churn only: the simhash
  // normalizes it to the same fingerprint, so the cache answers and no
  // shard ever sees the request.
  net::HttpRequest recrawl = ExtractRequest();
  for (char& c : recrawl.body) {
    if (c == ' ') c = '\t';
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  auto second = client.Roundtrip(recrawl);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().status, 200);
  EXPECT_NE(second.value().body.find("\"near_dup_hit\":true"),
            std::string::npos);
  EXPECT_EQ(ShardCompletions(), completions_after_first);
  EXPECT_EQ(service_->stats().cache.hits, 1);
  auto stats = client.Roundtrip(MakeRequest("GET", "/stats"));
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().body.find("\"near_dup_served\":1,"),
            std::string::npos)
      << stats.value().body;

  // Both responses carry the same triples (the cached extraction).
  const auto triples_of = [](const std::string& body) {
    const size_t begin = body.find("\"triples\":");
    const size_t end = body.find(",\"shed_cause\"");
    return body.substr(begin, end - begin);
  };
  EXPECT_EQ(triples_of(first.value().body), triples_of(second.value().body));
}

TEST_F(FrontendE2eTest, RepeatedPassIsAllCacheHitsWithExactCounts) {
  StartService(/*cache_enabled=*/true);
  net::HttpClient client(kHost, frontend_->port());
  constexpr int kVariants = 8;
  const auto send_pass = [&] {
    for (int variant = 0; variant < kVariants; ++variant) {
      auto response = client.Roundtrip(ExtractRequest(variant));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response.value().status, 200);
    }
  };

  send_pass();
  const PageCacheStats first = service_->stats().cache;
  const int64_t first_completions = ShardCompletions();
  EXPECT_EQ(first.hits + first.misses, kVariants);
  // Only a cache miss reaches a shard, so parses == misses.
  EXPECT_EQ(first_completions, first.misses);

  // The same bytes again: every page is cached, no shard does any work.
  send_pass();
  const PageCacheStats second = service_->stats().cache;
  EXPECT_EQ(second.hits - first.hits, kVariants);
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_EQ(ShardCompletions(), first_completions);
  EXPECT_EQ(frontend_->request_us().Count(), 2 * kVariants);
}

TEST_F(FrontendE2eTest, ShedRequestNeverReachesTheShardService) {
  // A zero completion budget sheds every /extract with 503. The bound is
  // checked before Submit: a shed request must never cost a shard a full
  // parse + inference pass, and submitted/completed stats must agree with
  // the HTTP responses (regression: the old path submitted first and
  // abandoned the result).
  FrontendConfig no_room;
  no_room.max_pending_completions = 0;
  StartService(/*cache_enabled=*/false, no_room);
  net::HttpClient client(kHost, frontend_->port());
  for (int i = 0; i < 3; ++i) {
    auto response = client.Roundtrip(ExtractRequest(i));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 503);
  }
  EXPECT_EQ(service_->stats().service.submitted, 0);
}

TEST_F(FrontendE2eTest, SubmittedFutureIsPollSafe) {
  // The sharded tier must hand back a plain promise-backed future:
  // wait_for has to eventually report ready (a std::launch::deferred
  // wrapper reports future_status::deferred forever, so polling callers
  // would spin without ever running the work).
  StartService(/*cache_enabled=*/true);
  std::future<ServeResult> future = service_->Submit(DirectRequest());
  ASSERT_TRUE(future.valid());
  std::future_status status = std::future_status::timeout;
  for (int i = 0; i < 200 && status != std::future_status::ready; ++i) {
    status = future.wait_for(std::chrono::milliseconds(50));
    ASSERT_NE(status, std::future_status::deferred);
  }
  ASSERT_EQ(status, std::future_status::ready);
  const ServeResult result = future.get();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  // The completion hook populated the near-dup cache before the future
  // became ready: an identical resend is a cache hit.
  const ServeResult resend = service_->Submit(DirectRequest()).get();
  ASSERT_TRUE(resend.status.ok());
  EXPECT_TRUE(resend.diagnostics.near_dup_hit);
}

TEST_F(FrontendE2eTest, AdminInvalidateDropsCachedExtractions) {
  StartService(/*cache_enabled=*/true);
  net::HttpClient client(kHost, frontend_->port());
  ASSERT_TRUE(client.Roundtrip(ExtractRequest()).ok());

  auto invalidate = client.Roundtrip(
      MakeRequest("POST", std::string("/admin/invalidate?site=") + kSite));
  ASSERT_TRUE(invalidate.ok());
  EXPECT_EQ(invalidate.value().status, 200);
  EXPECT_EQ(service_->stats().cache.entries, 0u);

  // The resend misses the emptied cache and runs extraction again.
  const int64_t completions_before = ShardCompletions();
  auto resend = client.Roundtrip(ExtractRequest());
  ASSERT_TRUE(resend.ok());
  ASSERT_EQ(resend.value().status, 200);
  EXPECT_NE(resend.value().body.find("\"near_dup_hit\":false"),
            std::string::npos);
  EXPECT_EQ(ShardCompletions(), completions_before + 1);
}

TEST_F(FrontendE2eTest, ServesOperationalEndpoints) {
  StartService(/*cache_enabled=*/true);
  net::HttpClient client(kHost, frontend_->port());
  auto health = client.Roundtrip(MakeRequest("GET", "/healthz"));
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
  auto metrics = client.Roundtrip(MakeRequest("GET", "/metrics"));
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().status, 200);
  auto stats = client.Roundtrip(MakeRequest("GET", "/stats"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().status, 200);
  EXPECT_NE(stats.value().body.find("\"shards\":2"), std::string::npos);
  auto missing = client.Roundtrip(MakeRequest("GET", "/nope"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
}

/// The value of the one `sample` line in Prometheus text; fails the test
/// unless family `name` has exactly one `# TYPE name <type>` line and
/// `sample` exactly one line.
int64_t SampleIn(const std::string& text, const std::string& name,
                 const std::string& type, const std::string& sample) {
  int type_lines = 0;
  int samples = 0;
  int64_t value = -1;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line == "# TYPE " + name + " " + type) ++type_lines;
    if (line.rfind(sample + " ", 0) == 0) {
      ++samples;
      value = std::stoll(line.substr(sample.size() + 1));
    }
  }
  EXPECT_EQ(type_lines, 1) << name;
  EXPECT_EQ(samples, 1) << sample;
  return value;
}

int64_t CounterIn(const std::string& text, const std::string& name) {
  return SampleIn(text, name, "counter", name);
}

int64_t HistogramCountIn(const std::string& text, const std::string& name) {
  return SampleIn(text, name, "histogram", name + "_count");
}

TEST_F(FrontendE2eTest, MetricsRenderTheStatsStructs) {
  StartService(/*cache_enabled=*/true);
  net::HttpClient client(kHost, frontend_->port());
  // Misses, then near-duplicate hits of the same pages, then a site with
  // no model (a kModelLoadFailed shed).
  for (int pass = 0; pass < 2; ++pass) {
    for (int variant = 0; variant < 3; ++variant) {
      auto response = client.Roundtrip(ExtractRequest(variant));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response.value().status, 200);
    }
  }
  auto unknown = client.Roundtrip(
      MakeRequest("POST", "/extract?site=unpublished.example", "<p>x</p>"));
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  EXPECT_EQ(unknown.value().status, 404);

  auto metrics = client.Roundtrip(MakeRequest("GET", "/metrics"));
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(metrics.value().status, 200);
  const std::string& text = metrics.value().body;

  const ShardedServiceStats stats = service_->stats();
  const ServiceStats& serve = stats.service;
  const RegistryStats& registry = stats.registry;
  const net::HttpServerStats http = frontend_->server_stats();

  // The variants may be near-duplicates of each other; the second pass is
  // all hits either way.
  EXPECT_GE(stats.cache.hits, 3);
  EXPECT_GE(stats.cache.misses, 2);
  EXPECT_EQ(serve.shed[static_cast<int>(ShedCause::kModelLoadFailed)], 1);
  EXPECT_EQ(registry.load_failures, 1);
  EXPECT_EQ(CounterIn(text, "ceres_serve_submitted_total"), serve.submitted);
  EXPECT_EQ(CounterIn(text, "ceres_serve_completed_total"), serve.completed);
  EXPECT_EQ(CounterIn(text, "ceres_serve_extractions_total"),
            serve.extractions);
  for (int cause = 1; cause < kNumShedCauses; ++cause) {
    EXPECT_EQ(CounterIn(text, std::string("ceres_serve_shed_") +
                                  ShedCauseName(static_cast<ShedCause>(cause)) +
                                  "_total"),
              serve.shed[cause]);
  }
  EXPECT_EQ(CounterIn(text, "ceres_registry_hits_total"), registry.hits);
  EXPECT_EQ(CounterIn(text, "ceres_registry_misses_total"), registry.misses);
  EXPECT_EQ(CounterIn(text, "ceres_registry_loads_total"), registry.loads);
  EXPECT_EQ(CounterIn(text, "ceres_registry_load_failures_total"),
            registry.load_failures);
  EXPECT_EQ(CounterIn(text, "ceres_registry_hot_swaps_total"),
            registry.hot_swaps);
  EXPECT_EQ(CounterIn(text, "ceres_registry_evictions_total"),
            registry.evictions);
  EXPECT_EQ(CounterIn(text, "ceres_cache_neardup_hits_total"),
            stats.cache.hits);
  EXPECT_EQ(CounterIn(text, "ceres_cache_neardup_misses_total"),
            stats.cache.misses);
  // The /metrics request itself was counted before the page was rendered;
  // its response only after.
  EXPECT_EQ(CounterIn(text, "ceres_net_requests_total"), http.requests);
  EXPECT_EQ(CounterIn(text, "ceres_net_responses_total"),
            http.responses - 1);
  EXPECT_EQ(CounterIn(text, "ceres_net_rate_limited_total"),
            http.rate_limited);
  EXPECT_EQ(CounterIn(text, "ceres_net_parse_errors_total"),
            http.parse_errors);
}

TEST_F(FrontendE2eTest, MetricsHistogramsSumBothShards) {
  StartService(/*cache_enabled=*/false);
  ASSERT_EQ(service_->num_shards(), 2);
  // A second site on the other shard, so both shards run batches.
  std::string other;
  for (int i = 0; other.empty(); ++i) {
    const std::string candidate = "films" + std::to_string(i) + ".example";
    if (service_->ShardOf(candidate) != service_->ShardOf(kSite)) {
      other = candidate;
    }
  }
  ASSERT_TRUE(service_->Publish(other, *site_.model).ok());
  // Dropping the warm models makes each shard's registry load from disk.
  service_->Invalidate(kSite);
  service_->Invalidate(other);
  net::HttpClient client(kHost, frontend_->port());
  for (const std::string& site : {std::string(kSite), other}) {
    for (int variant = 0; variant < 3; ++variant) {
      auto response = client.Roundtrip(
          MakeRequest("POST", "/extract?site=" + site,
                      TrainedFilmSite::UnseenPageHtml(variant)));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response.value().status, 200);
    }
  }
  auto metrics = client.Roundtrip(MakeRequest("GET", "/metrics"));
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(metrics.value().status, 200);
  const std::string& text = metrics.value().body;

  const std::pair<const char*, obs::Histogram ServiceHistograms::*>
      stages[] = {
          {"ceres_serve_queue_wait_us", &ServiceHistograms::queue_wait_us},
          {"ceres_serve_parse_us", &ServiceHistograms::parse_us},
          {"ceres_serve_inference_us", &ServiceHistograms::inference_us},
          {"ceres_serve_request_latency_us",
           &ServiceHistograms::request_latency_us},
          {"ceres_serve_batch_size", &ServiceHistograms::batch_size}};
  for (const auto& [name, member] : stages) {
    int64_t sum = 0;
    for (size_t shard = 0; shard < 2; ++shard) {
      const int64_t count =
          (service_->service(shard).histograms().*member).Count();
      EXPECT_GT(count, 0) << name << " on shard " << shard;
      sum += count;
    }
    EXPECT_EQ(HistogramCountIn(text, name), sum) << name;
  }
  int64_t loads = 0;
  for (size_t shard = 0; shard < 2; ++shard) {
    const int64_t count = service_->registry(shard)->load_us().Count();
    EXPECT_GT(count, 0) << "ceres_registry_load_us on shard " << shard;
    loads += count;
  }
  EXPECT_EQ(HistogramCountIn(text, "ceres_registry_load_us"), loads);
  // Six parses, one per request; the /metrics response itself was timed
  // only after the page was rendered.
  EXPECT_EQ(HistogramCountIn(text, "ceres_serve_parse_us"), 6);
  EXPECT_EQ(HistogramCountIn(text, "ceres_net_request_us"),
            frontend_->request_us().Count() - 1);
}

TEST_F(FrontendE2eTest, DrainWaiterNeverTakesACompletionWakeup) {
  // The process owner parks in WaitForDrainRequest while one pump thread
  // resolves completions. A wakeup meant for the pump must never reach
  // the owner instead: the completion would then wait for the next
  // request, and a sequential client never sends one.
  FrontendConfig one_pump;
  one_pump.completion_threads = 1;
  StartService(/*cache_enabled=*/false, one_pump);
  std::thread owner([this] {
    frontend_->WaitForDrainRequest(Deadline::After(std::chrono::seconds(60)));
  });
  net::HttpClient client(kHost, frontend_->port());
  int first_late = -1;
  for (int i = 0; i < 200 && first_late < 0; ++i) {
    if (!client.SendRaw(net::EncodeRequest(ExtractRequest(i))).ok()) {
      first_late = i;
      break;
    }
    auto response = client.ReadResponse(/*timeout_ms=*/2000);
    if (!response.ok() || response.value().status != 200) first_late = i;
  }
  frontend_->Stop();  // releases the parked owner
  owner.join();
  EXPECT_EQ(first_late, -1) << "round trip " << first_late
                            << " got no answer within 2 s";
}

TEST_F(FrontendE2eTest, AdminDrainSignalsTheProcessOwner) {
  StartService(/*cache_enabled=*/true);
  EXPECT_FALSE(frontend_->drain_requested());
  net::HttpClient client(kHost, frontend_->port());
  auto response = client.Roundtrip(MakeRequest("POST", "/admin/drain"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 202);
  EXPECT_TRUE(frontend_->drain_requested());
  // The owner's shutdown sequence: drain the socket edge, then stop.
  EXPECT_TRUE(frontend_->Drain(Deadline::After(milliseconds(5000))).ok());
  const net::HttpServerStats stats = frontend_->server_stats();
  EXPECT_EQ(stats.requests, stats.responses);
  EXPECT_EQ(stats.responses_dropped, 0);
}

TEST_F(FrontendE2eTest, DrainUnderConcurrentLoadLosesNothing) {
  StartService(/*cache_enabled=*/true);
  constexpr int kThreads = 3;
  std::atomic<int> completed_ok{0};
  std::atomic<int> transport_failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      net::HttpClient client(kHost, frontend_->port());
      for (int i = 0; !stop.load() && i < 200; ++i) {
        auto response =
            client.Roundtrip(ExtractRequest((t * 200 + i) % 8));
        if (!response.ok()) {
          // Connection refused/reset after the drain began — the request
          // was never accepted, so nothing was lost.
          transport_failures.fetch_add(1);
          break;
        }
        if (response.value().status == 200) completed_ok.fetch_add(1);
      }
    });
  }
  // Let traffic establish, then drain while clients are mid-stream.
  std::this_thread::sleep_for(milliseconds(150));
  ASSERT_TRUE(frontend_->Drain(Deadline::After(milliseconds(10000))).ok());
  stop.store(true);
  for (std::thread& thread : clients) thread.join();

  // Drain's contract: every request the server accepted was answered and
  // flushed; nothing was dropped on the floor.
  const net::HttpServerStats stats = frontend_->server_stats();
  EXPECT_GT(stats.requests, 0);
  EXPECT_EQ(stats.requests, stats.responses);
  EXPECT_EQ(stats.responses_dropped, 0);
  EXPECT_GT(completed_ok.load(), 0);
}

}  // namespace
}  // namespace ceres::serve

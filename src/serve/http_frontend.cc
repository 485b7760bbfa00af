#include "serve/http_frontend.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ceres::serve {

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

net::HttpResponse JsonResponse(int status, std::string body) {
  net::HttpResponse response;
  response.status = status;
  response.headers.push_back({"content-type", "application/json"});
  response.body = std::move(body);
  return response;
}

net::HttpResponse TextResponse(int status, std::string body) {
  net::HttpResponse response;
  response.status = status;
  response.headers.push_back({"content-type", "text/plain"});
  response.body = std::move(body);
  return response;
}

/// GET /metrics: the stats structs' counters and the components' own
/// histograms, each summed over shards into a local registry.
std::string MetricsText(ShardedExtractionService& service,
                        const net::HttpServer& server) {
  const ShardedServiceStats stats = service.stats();
  const ServiceStats& serve = stats.service;
  const RegistryStats& registry = stats.registry;
  const net::HttpServerStats http = server.stats();

  obs::MetricsRegistry snapshot;
  const auto counter = [&snapshot](const std::string& name, int64_t value) {
    snapshot.GetCounter(name)->Increment(value);
  };
  const auto histogram = [&snapshot](const std::string& name,
                                     const obs::Histogram& owned) {
    snapshot.GetHistogram(name, owned.bounds())->Merge(owned);
  };
  counter("ceres_serve_submitted_total", serve.submitted);
  counter("ceres_serve_completed_total", serve.completed);
  counter("ceres_serve_extractions_total", serve.extractions);
  for (int cause = 1; cause < kNumShedCauses; ++cause) {
    counter(StrCat("ceres_serve_shed_",
                   ShedCauseName(static_cast<ShedCause>(cause)), "_total"),
            serve.shed[cause]);
  }
  counter("ceres_registry_hits_total", registry.hits);
  counter("ceres_registry_misses_total", registry.misses);
  counter("ceres_registry_loads_total", registry.loads);
  counter("ceres_registry_load_failures_total", registry.load_failures);
  counter("ceres_registry_hot_swaps_total", registry.hot_swaps);
  counter("ceres_registry_evictions_total", registry.evictions);
  counter("ceres_cache_neardup_hits_total", stats.cache.hits);
  counter("ceres_cache_neardup_misses_total", stats.cache.misses);
  counter("ceres_net_requests_total", http.requests);
  counter("ceres_net_responses_total", http.responses);
  counter("ceres_net_rate_limited_total", http.rate_limited);
  counter("ceres_net_parse_errors_total", http.parse_errors);
  snapshot.GetGauge("ceres_registry_bytes_cached")
      ->Set(static_cast<int64_t>(registry.bytes_cached));
  snapshot.GetGauge("ceres_registry_models_cached")
      ->Set(registry.models_cached);
  for (int shard = 0; shard < service.num_shards(); ++shard) {
    const ServiceHistograms& h =
        service.service(static_cast<size_t>(shard)).histograms();
    histogram("ceres_serve_queue_wait_us", h.queue_wait_us);
    histogram("ceres_serve_parse_us", h.parse_us);
    histogram("ceres_serve_inference_us", h.inference_us);
    histogram("ceres_serve_request_latency_us", h.request_latency_us);
    histogram("ceres_serve_batch_size", h.batch_size);
    histogram("ceres_registry_load_us",
              service.registry(static_cast<size_t>(shard))->load_us());
  }
  histogram("ceres_net_request_us", server.request_us());
  return snapshot.ToPrometheusText();
}

}  // namespace

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kResourceExhausted:
      return 503;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kCancelled:
      return 499;
    case StatusCode::kInternal:
    case StatusCode::kDataLoss:
      return 500;
  }
  return 500;
}

std::string EncodeServeResultJson(const std::string& site,
                                  const ServeResult& result) {
  std::string out = StrCat("{\"site\":\"", JsonEscape(site), "\"");
  if (result.status.ok()) {
    out += ",\"status\":\"ok\",\"triples\":[";
    bool first = true;
    for (const Extraction& triple : result.triples) {
      if (!first) out += ',';
      first = false;
      out += StrCat("{\"subject\":\"", JsonEscape(triple.subject),
                    "\",\"predicate\":", triple.predicate, ",\"object\":\"",
                    JsonEscape(triple.object), "\",\"confidence\":",
                    FormatDouble(triple.confidence), "}");
    }
    out += "]";
  } else {
    out += StrCat(",\"status\":\"",
                  JsonEscape(result.status.ToString()), "\"");
  }
  const ServeDiagnostics& diag = result.diagnostics;
  out += StrCat(",\"shed_cause\":\"", ShedCauseName(diag.shed_cause),
                "\",\"near_dup_hit\":", diag.near_dup_hit ? "true" : "false",
                ",\"model_cache_hit\":",
                diag.model_cache_hit ? "true" : "false",
                ",\"model_version\":", diag.model_version, "}");
  return out;
}

ExtractionFrontend::ExtractionFrontend(ShardedExtractionService* service,
                                       FrontendConfig config)
    : service_(service), config_(std::move(config)) {}

ExtractionFrontend::~ExtractionFrontend() { Stop(); }

Status ExtractionFrontend::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  const int threads = config_.completion_threads > 0
                          ? config_.completion_threads
                          : 1;
  pump_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    pump_.emplace_back([this] { PumpLoop(); });
  }
  server_ = std::make_unique<net::HttpServer>(
      [this](net::HttpRequest request,
             net::HttpServer::Responder responder) {
        Route(std::move(request), std::move(responder));
      },
      config_.http);
  Status status = server_->Start();
  if (!status.ok()) {
    Stop();
    return status;
  }
  started_ = true;
  return Status::Ok();
}

Status ExtractionFrontend::Drain(Deadline deadline) {
  if (server_ == nullptr) return Status::Ok();
  // The socket edge drains first — while the pump keeps answering — so
  // every in-flight request is responded to and flushed before sockets
  // close. The completion queue is necessarily empty afterwards (every
  // queued completion belongs to a connection the drain waited for), but
  // wait for it explicitly to make the guarantee local.
  Status status = server_->Drain(deadline);
  UniqueMutexLock lock(mu_);
  while (!pending_.empty() || inflight_ > 0) {
    if (deadline.expired()) {
      return Status::DeadlineExceeded("completion queue not drained");
    }
    queue_idle_.wait_for(lock, std::chrono::milliseconds(20));
  }
  return status;
}

void ExtractionFrontend::Stop() {
  if (server_ != nullptr) server_->Shutdown();
  {
    MutexLock lock(mu_);
    stopping_ = true;
    pending_.clear();  // responders are dead post-shutdown; drop futures
    work_ready_.notify_all();
    drain_cv_.notify_all();
  }
  for (std::thread& thread : pump_) {
    if (thread.joinable()) thread.join();
  }
  pump_.clear();
  started_ = false;
}

bool ExtractionFrontend::drain_requested() const {
  MutexLock lock(mu_);
  return drain_requested_;
}

void ExtractionFrontend::WaitForDrainRequest(Deadline deadline) {
  UniqueMutexLock lock(mu_);
  while (!drain_requested_ && !stopping_) {
    if (deadline.expired()) return;
    drain_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

void ExtractionFrontend::Route(net::HttpRequest request,
                               net::HttpServer::Responder responder) {
  const std::string_view path = request.Path();
  if (path == "/healthz") {
    responder.Send(TextResponse(200, "ok\n"));
    return;
  }
  if (path == "/metrics") {
    responder.Send(
        TextResponse(200, MetricsText(*service_, *server_)));
    return;
  }
  if (path == "/stats") {
    const ShardedServiceStats stats = service_->stats();
    const ServiceStats& serve = stats.service;
    const net::HttpServerStats http = server_->stats();
    responder.Send(JsonResponse(
        200,
        StrCat("{\"shards\":", service_->num_shards(),
               ",\"submitted\":", serve.submitted,
               ",\"completed\":", serve.completed,
               ",\"shed\":", serve.total_shed(),
               ",\"near_dup_served\":", stats.cache.hits,
               ",\"cache\":{\"hits\":", stats.cache.hits,
               ",\"misses\":", stats.cache.misses,
               ",\"entries\":", stats.cache.entries,
               ",\"bytes\":", stats.cache.bytes,
               "},\"http\":{\"requests\":", http.requests,
               ",\"responses\":", http.responses,
               ",\"rate_limited\":", http.rate_limited,
               ",\"parse_errors\":", http.parse_errors, "}}")));
    return;
  }
  if (path == "/admin/invalidate") {
    if (request.method != "POST") {
      responder.Send(TextResponse(405, "POST required\n"));
      return;
    }
    const auto params = net::ParseQuery(request.Query());
    const auto site = params.find("site");
    if (site == params.end() || site->second.empty()) {
      responder.Send(TextResponse(400, "missing site parameter\n"));
      return;
    }
    service_->Invalidate(site->second);
    responder.Send(JsonResponse(
        200, StrCat("{\"invalidated\":\"", JsonEscape(site->second),
                    "\"}")));
    return;
  }
  if (path == "/admin/drain") {
    if (request.method != "POST") {
      responder.Send(TextResponse(405, "POST required\n"));
      return;
    }
    {
      MutexLock lock(mu_);
      drain_requested_ = true;
      drain_cv_.notify_all();
    }
    responder.Send(JsonResponse(202, "{\"draining\":true}"));
    return;
  }
  if (path == "/extract") {
    HandleExtract(std::move(request), std::move(responder));
    return;
  }
  responder.Send(TextResponse(404, "unknown path\n"));
}

void ExtractionFrontend::HandleExtract(
    net::HttpRequest request, net::HttpServer::Responder responder) {
  if (request.method != "POST") {
    responder.Send(TextResponse(405, "POST required\n"));
    return;
  }
  const auto params = net::ParseQuery(request.Query());
  const auto site = params.find("site");
  if (site == params.end() || site->second.empty()) {
    responder.Send(TextResponse(400, "missing site parameter\n"));
    return;
  }
  ServeRequest serve_request;
  serve_request.site = site->second;
  serve_request.html = std::move(request.body);
  const auto url = params.find("url");
  if (url != params.end()) serve_request.url = url->second;

  // Admission check before Submit: a shed request must never reach the
  // shard service (the extraction would run to completion with its result
  // abandoned, and submitted/completed stats would diverge from the HTTP
  // responses). A reserved slot keeps a concurrent burst from overshooting
  // the bound between this check and the push below.
  {
    bool shed = false;
    {
      MutexLock lock(mu_);
      if (stopping_ ||
          pending_.size() + reserved_ >= config_.max_pending_completions) {
        shed = true;
      } else {
        ++reserved_;
      }
    }
    if (shed) {
      // Send outside mu_: the responder write can block on the socket.
      responder.Send(TextResponse(503, "completion queue full\n"));
      return;
    }
  }
  PendingCompletion completion{
      service_->Submit(std::move(serve_request)), std::move(responder),
      site->second};
  {
    MutexLock lock(mu_);
    --reserved_;
    if (!stopping_) {
      pending_.push_back(std::move(completion));
      work_ready_.notify_one();
      return;
    }
  }
  // Stop() raced the submit; answer rather than drop the responder.
  completion.responder.Send(TextResponse(503, "shutting down\n"));
}

void ExtractionFrontend::PumpLoop() {
  for (;;) {
    PendingCompletion completion;
    {
      UniqueMutexLock lock(mu_);
      while (pending_.empty() && !stopping_) {
        work_ready_.wait(lock);
      }
      if (stopping_) return;
      completion = std::move(pending_.front());
      pending_.pop_front();
      ++inflight_;
    }
    // Blocking get: the near-dup cache insert already ran on the shard
    // worker by the time the future is ready.
    ServeResult result = completion.future.get();
    const int http_status = HttpStatusForCode(result.status.code());
    completion.responder.Send(JsonResponse(
        http_status, EncodeServeResultJson(completion.site, result)));
    MutexLock lock(mu_);
    --inflight_;
    if (pending_.empty() && inflight_ == 0) queue_idle_.notify_all();
  }
}

}  // namespace ceres::serve

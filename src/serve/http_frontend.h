#ifndef CERES_SERVE_HTTP_FRONTEND_H_
#define CERES_SERVE_HTTP_FRONTEND_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/http_server.h"
#include "serve/sharded_service.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/sync.h"

namespace ceres::serve {

/// Stable JSON rendering of one extraction outcome; the single source of
/// truth for the HTTP response body. Exposed so tests can assert that a
/// loopback response is byte-identical to encoding a direct
/// ExtractionService::Submit result.
std::string EncodeServeResultJson(const std::string& site,
                                  const ServeResult& result);

/// The HTTP status expressing `code` (kInvalidArgument -> 400,
/// kNotFound -> 404, kResourceExhausted -> 503, ...).
int HttpStatusForCode(StatusCode code);

struct FrontendConfig {
  net::HttpServerConfig http;
  /// Threads resolving extraction futures into HTTP responses. The event
  /// loop never blocks on extraction; these do.
  int completion_threads = 2;
  /// Bound on completions waiting for a pump thread; beyond it requests
  /// are shed with 503 (the service's own queue bound applies upstream).
  size_t max_pending_completions = 2048;
};

/// The HTTP front-end: routes requests into a ShardedExtractionService
/// and pumps completed futures back out as JSON responses.
///
/// Endpoints:
///   POST /extract?site=S[&url=U]  body: page HTML -> extraction JSON
///   GET  /healthz                 liveness probe
///   GET  /metrics                 Prometheus text: the stats structs'
///                                 counters, then the obs registry
///   GET  /stats                   service + cache + server stats JSON
///   POST /admin/invalidate?site=S drop warm model + cached extractions
///   POST /admin/drain             request graceful drain (202; the
///                                 process owner performs the drain)
///
/// The event loop hands parsed requests to Route(); /extract submissions
/// enqueue their future for the completion pump (a small thread pool whose
/// only job is future.get() -> Responder.Send), so slow extractions never
/// occupy the loop. Drain order for a clean exit: HttpServer::Drain (stop
/// accepting, finish in-flight sockets) happens while the pump and service
/// keep running, so every admitted request still completes; then Stop()
/// tears down the pump.
class ExtractionFrontend {
 public:
  ExtractionFrontend(ShardedExtractionService* service,
                     FrontendConfig config = {});
  ~ExtractionFrontend();

  ExtractionFrontend(const ExtractionFrontend&) = delete;
  ExtractionFrontend& operator=(const ExtractionFrontend&) = delete;

  /// Starts the completion pump and the HTTP server.
  Status Start();

  /// Graceful drain of the socket edge (see HttpServer::Drain), then
  /// drains the completion queue. After this every accepted request has
  /// been answered and flushed.
  Status Drain(Deadline deadline = Deadline());

  /// Hard stop: shuts the server, joins the pump.
  void Stop();

  uint16_t port() const { return server_->port(); }
  net::HttpServerStats server_stats() const { return server_->stats(); }
  const obs::Histogram& request_us() const { return server_->request_us(); }

  /// True once POST /admin/drain was received; the process owner polls or
  /// waits on this to run Drain()+Stop() from the main thread.
  bool drain_requested() const;
  /// Blocks until drain_requested() or `deadline`.
  void WaitForDrainRequest(Deadline deadline = Deadline());

 private:
  struct PendingCompletion {
    std::future<ServeResult> future;
    net::HttpServer::Responder responder;
    std::string site;
  };

  void Route(net::HttpRequest request, net::HttpServer::Responder responder);
  void HandleExtract(net::HttpRequest request,
                     net::HttpServer::Responder responder);
  void PumpLoop();

  ShardedExtractionService* const service_;
  const FrontendConfig config_;
  std::unique_ptr<net::HttpServer> server_;

  mutable CheckedMutex mu_{"ExtractionFrontend.mu"};
  /// Only pump threads wait here, so a notify_one always reaches one.
  CondVar work_ready_;
  CondVar queue_idle_;
  CondVar drain_cv_;  // WaitForDrainRequest
  std::deque<PendingCompletion> pending_ CERES_GUARDED_BY(mu_);
  /// Slots claimed by requests admitted but not yet submitted to the
  /// service; counted against max_pending_completions so a burst cannot
  /// overshoot the bound between the admission check and the push.
  size_t reserved_ CERES_GUARDED_BY(mu_) = 0;
  /// Completions a pump thread is currently resolving; drain waits for
  /// pending_ and this to both reach zero.
  int inflight_ CERES_GUARDED_BY(mu_) = 0;
  bool stopping_ CERES_GUARDED_BY(mu_) = false;
  bool drain_requested_ CERES_GUARDED_BY(mu_) = false;
  std::vector<std::thread> pump_;
  bool started_ = false;
};

}  // namespace ceres::serve

#endif  // CERES_SERVE_HTTP_FRONTEND_H_

#ifndef CERES_NET_HTTP_SERVER_H_
#define CERES_NET_HTTP_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "net/http.h"
#include "net/rate_limiter.h"
#include "obs/metrics.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/sync.h"

namespace ceres::net {

/// An HTTP/1.1 front-end over non-blocking sockets and a single-threaded
/// epoll event loop (Linux only).
///
/// The loop owns every connection: it accepts, reads, parses (through the
/// hard-limited RequestParser), enforces the per-client token bucket, and
/// writes responses. Application work never runs on the loop: when a
/// request completes parsing, the handler is invoked with a `Responder`
/// and must return quickly; the response may be sent later from any
/// thread (the loop is woken through a self-pipe). While a request is in
/// flight its connection stops being read — natural per-connection
/// backpressure, and responses can never be interleaved out of order.
///
/// Protocol discipline on the socket edge:
///   - at most 1024 open connections (listen backlog 128); an accept
///     beyond the cap is closed at once and counted in
///     `rejected_at_capacity`;
///   - keep-alive by HTTP/1.1 default, honored until the client asks to
///     close, a parse error forces a close, or the server drains;
///   - idle keep-alive connections are closed after `idle_timeout_ms`;
///   - a connection stalled mid-request (torn request) is answered with
///     408 and closed after `header_timeout_ms`;
///   - malformed / oversized / chunked requests get their typed status
///     (400/413/414/431/501/505) and a close — the parser error never
///     reaches a handler;
///   - over-rate clients get 429 without the handler running, counted in
///     `rate_limited`.
///
/// Graceful drain (`Drain`): the listener closes immediately, connections
/// finish the request they are serving (including one that is mid-read),
/// every finished response is flushed, then connections close. Idle
/// connections get a 200 ms grace for bytes already in flight on the
/// wire to arrive before closing. Drain blocks until the loop reports
/// zero connections or the deadline expires; it is how a deployment
/// hot-swaps models or exits without dropping accepted work.
struct HttpServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 binds a kernel-assigned ephemeral port; read it back via port().
  uint16_t port = 0;
  /// Per-client (peer address) admission; zero rate disables.
  TokenBucketConfig rate_limit;
  int64_t idle_timeout_ms = 30'000;
  int64_t header_timeout_ms = 10'000;
};

/// Monotonic counters describing the socket edge. Typed shed/close
/// accounting: every rejected or dropped anything is counted somewhere.
struct HttpServerStats {
  int64_t accepted = 0;
  int64_t rejected_at_capacity = 0;
  int64_t closed = 0;
  int64_t requests = 0;          // fully parsed requests
  int64_t responses = 0;         // responses flushed into a socket
  int64_t responses_dropped = 0; // responder outlived its connection
  int64_t rate_limited = 0;      // 429s served
  int64_t parse_errors = 0;      // typed 4xx/5xx from the parser
  int64_t oversized = 0;         // 413/414/431 subset of parse_errors
  int64_t idle_closed = 0;
  int64_t torn_closed = 0;       // 408 mid-request stalls
  int64_t drained = 0;           // connections retired by a drain
};

class HttpServer {
 public:
  /// Completion capability handed to the handler. Thread-safe; Send may be
  /// called from any thread exactly once per request. A Responder that
  /// outlives its connection (peer vanished) or its server drops the
  /// response and counts it — it never dangles.
  class Responder {
   public:
    /// A detached responder; Send drops the response. Lets callers hold
    /// Responder by value in default-constructible containers.
    Responder() = default;

    void Send(HttpResponse response) const;

   private:
    friend class HttpServer;
    struct Inbox;
    Responder(std::shared_ptr<Inbox> inbox, uint64_t connection_id)
        : inbox_(std::move(inbox)), connection_id_(connection_id) {}
    std::shared_ptr<Inbox> inbox_;
    uint64_t connection_id_ = 0;
  };

  /// Invoked on the event loop for every well-formed, admitted request.
  /// Must not block; respond via the Responder (inline is fine).
  using Handler = std::function<void(HttpRequest, Responder)>;

  HttpServer(Handler handler, HttpServerConfig config = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the event loop. Fails on address/socket
  /// errors and on a second Start.
  Status Start();

  /// The bound port (after Start); useful with config.port == 0.
  uint16_t port() const { return bound_port_; }

  /// Graceful drain: stop accepting, finish and flush in-flight requests,
  /// close connections, then return. kDeadlineExceeded if connections
  /// remain when `deadline` expires (they are then force-closed by
  /// Shutdown). Safe to call once; concurrent callers share the wait.
  Status Drain(Deadline deadline = Deadline());

  /// Hard stop: close everything (no flush guarantee) and join the loop.
  /// Called by the destructor. Safe to call twice; Drain first for a
  /// graceful exit.
  void Shutdown();

  HttpServerStats stats() const;

  /// Microseconds from handing a request to the handler until its
  /// response is applied on the loop, one sample per answered request.
  const obs::Histogram& request_us() const { return request_us_; }

 private:
  struct Loop;  // all event-loop state; lives in http_server.cc

  Handler handler_;
  const HttpServerConfig config_;
  uint16_t bound_port_ = 0;
  /// Recorded by the loop thread, so declared before it.
  obs::Histogram request_us_{obs::LatencyBucketsUs()};
  std::unique_ptr<Loop> loop_;
  std::thread loop_thread_;
  bool started_ = false;
  /// Final counters, preserved across Shutdown for post-mortem asserts.
  HttpServerStats final_stats_;
};

}  // namespace ceres::net

#endif  // CERES_NET_HTTP_SERVER_H_

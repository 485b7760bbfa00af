#ifndef CERES_NET_HTTP_CLIENT_H_
#define CERES_NET_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "net/http.h"
#include "util/status.h"

namespace ceres::net {

/// A small blocking HTTP/1.1 client for the load driver and the loopback
/// test suite. One instance is one connection: requests sent through the
/// same instance ride the same keep-alive socket until the server closes
/// it (the client transparently reconnects for the *next* request and
/// counts it in `reconnects()`). Close() between requests turns the same
/// call pattern into connection-per-request.
///
/// `SendRaw` + `ReadResponse` expose the wire directly so protocol tests
/// can deliver torn, malformed, or pipelined byte sequences that
/// `Roundtrip` would never produce.
class HttpClient {
 public:
  HttpClient(std::string host, uint16_t port)
      : host_(std::move(host)), port_(port) {}
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Opens the connection; Roundtrip calls this lazily when needed.
  Status Connect();
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends `request` and blocks for the response. Reconnects (once) when
  /// the keep-alive socket turns out to be dead. Honors a server
  /// "Connection: close" by closing after the read.
  Result<HttpResponse> Roundtrip(const HttpRequest& request);

  /// Writes raw bytes to the socket (connects first when closed).
  Status SendRaw(std::string_view bytes);

  /// Blocks until one full response arrives or `timeout_ms` passes.
  Result<HttpResponse> ReadResponse(int timeout_ms = 5000);

  /// Times the keep-alive socket was found dead and reopened.
  int64_t reconnects() const { return reconnects_; }

 private:
  const std::string host_;
  const uint16_t port_;
  int fd_ = -1;
  int64_t reconnects_ = 0;
};

}  // namespace ceres::net

#endif  // CERES_NET_HTTP_CLIENT_H_

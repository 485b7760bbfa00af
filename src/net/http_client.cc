#include "net/http_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/string_util.h"

namespace ceres::net {

namespace {

Status ErrnoStatus(const char* what) {
  return Status::Internal(StrCat(what, ": ", strerror(errno)));
}

}  // namespace

HttpClient::~HttpClient() { Close(); }

Status HttpClient::Connect() {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(StrCat("bad host address: ", host_));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = ErrnoStatus("connect");
    ::close(fd);
    return status;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::Ok();
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status HttpClient::SendRaw(std::string_view bytes) {
  if (fd_ < 0) CERES_RETURN_IF_ERROR(Connect());
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = ErrnoStatus("send");
      Close();
      return status;
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<HttpResponse> HttpClient::ReadResponse(int timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  timeval tv = {};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ResponseParser parser;
  char buffer[8192];
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      const ParseState state =
          parser.Consume(std::string_view(buffer, static_cast<size_t>(n)));
      if (state == ParseState::kComplete) {
        HttpResponse response = parser.TakeResponse();
        const auto* connection = [&]() -> const std::string* {
          for (const HttpHeader& header : response.headers) {
            if (header.name == "connection") return &header.value;
          }
          return nullptr;
        }();
        if (connection != nullptr && *connection == "close") Close();
        return response;
      }
      if (state == ParseState::kError) {
        Close();
        return Status::Internal(StrCat("bad response: ", parser.error()));
      }
      continue;
    }
    if (n == 0) {
      Close();
      return Status::Internal("connection closed before full response");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Close();
      return Status::DeadlineExceeded("timed out waiting for response");
    }
    Status status = ErrnoStatus("recv");
    Close();
    return status;
  }
}

Result<HttpResponse> HttpClient::Roundtrip(const HttpRequest& request) {
  const bool was_connected = connected();
  CERES_RETURN_IF_ERROR(SendRaw(EncodeRequest(request)));
  Result<HttpResponse> response = ReadResponse();
  if (!response.ok() && was_connected) {
    // The keep-alive socket died between requests (server idle-closed or
    // drained it). One fresh connection, one retry.
    ++reconnects_;
    CERES_RETURN_IF_ERROR(Connect());
    CERES_RETURN_IF_ERROR(SendRaw(EncodeRequest(request)));
    return ReadResponse();
  }
  return response;
}

}  // namespace ceres::net

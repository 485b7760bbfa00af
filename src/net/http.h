#ifndef CERES_NET_HTTP_H_
#define CERES_NET_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ceres::net {

/// HTTP/1.1 message types and an incremental, hard-limited parser.
///
/// The parser is the trust boundary of the serving front-end: every byte
/// arriving on a socket flows through it before anything else looks at the
/// request. It is therefore written defensively — fixed size limits on
/// the request (or status) line (8 KiB), the header section (64 KiB),
/// the header count (100) and the body (8 MiB); no allocation
/// proportional to anything the peer controls beyond those limits;
/// malformed input produces a typed HTTP status (400/413/414/431/501/505),
/// never a crash or a silent partial parse. Torn input (a
/// request cut anywhere, even mid-token) parks the parser in kNeedMore;
/// bytes may arrive one at a time.
///
/// Supported framing is deliberately minimal for the extraction workload:
/// Content-Length bodies only. Transfer-Encoding (chunked or otherwise)
/// is rejected with 501 — the crawl-replay clients we serve never chunk,
/// and refusing is safer than a half-tested decoder on the trust
/// boundary.

/// One header; `name` is stored lowercased (field names are
/// case-insensitive per RFC 9110), `value` is trimmed but case-preserved.
struct HttpHeader {
  std::string name;
  std::string value;
};

struct HttpRequest {
  std::string method;
  std::string target;   // origin-form, e.g. "/extract?site=imdb"
  std::string version;  // "HTTP/1.0" or "HTTP/1.1"
  std::vector<HttpHeader> headers;
  std::string body;

  /// Value of the first header named `name` (any case); nullptr if absent.
  const std::string* FindHeader(std::string_view name) const;
  /// Keep-alive resolution: HTTP/1.1 defaults to keep-alive unless
  /// "Connection: close"; HTTP/1.0 defaults to close unless
  /// "Connection: keep-alive".
  bool KeepAlive() const;
  /// `target` split at '?': path before, raw query after (may be empty).
  std::string_view Path() const;
  std::string_view Query() const;
};

struct HttpResponse {
  int status = 200;
  std::vector<HttpHeader> headers;  // Content-Length/Connection are added
  std::string body;
};

/// Canonical reason phrase for `status` ("OK", "Too Many Requests", ...).
const char* StatusReason(int status);

/// Serializes a response, appending Content-Length and Connection headers
/// derived from `keep_alive`.
std::string EncodeResponse(const HttpResponse& response, bool keep_alive);

/// Serializes a request, appending Content-Length when a body is present.
std::string EncodeRequest(const HttpRequest& request);

/// Parses an application/x-www-form-urlencoded-style query string
/// ("a=1&b=two") into a map. No percent-decoding beyond '+' -> ' ' (the
/// serving API uses plain site names); duplicate keys keep the first.
std::map<std::string, std::string> ParseQuery(std::string_view query);

enum class ParseState {
  kNeedMore = 0,  // incomplete input; feed more bytes
  kComplete,      // one full message parsed; Take*() to consume it
  kError,         // protocol violation; error_status()/error() describe it
};

/// Incremental HTTP/1.1 request parser. Feed arbitrary byte chunks with
/// Consume(); when it returns kComplete, TakeRequest() yields the message
/// and re-arms the parser on any pipelined leftover bytes (the next
/// Consume("") continues from them). After kError the parser stays in
/// kError until Reset(); the connection should send error_status() and
/// close.
class RequestParser {
 public:
  ParseState Consume(std::string_view bytes);
  ParseState state() const { return state_; }

  /// Valid only in kComplete. Resets to parse the next pipelined request.
  HttpRequest TakeRequest();

  /// HTTP status expressing the parse failure; 0 unless kError.
  int error_status() const { return error_status_; }
  const std::string& error() const { return error_; }

  /// True while a message is partially received — any bytes consumed
  /// since the last message boundary, including a request torn exactly at
  /// a line boundary (the buffer is empty but the parser has left the
  /// request-line phase). A connection torn here deserves a 408.
  bool MidMessage() const {
    return state_ == ParseState::kNeedMore &&
           (!buffer_.empty() || phase_ != Phase::kRequestLine);
  }

  void Reset();

 private:
  enum class Phase { kRequestLine, kHeaders, kBody };

  ParseState Advance();
  ParseState Fail(int status, std::string message);
  bool ParseRequestLine(std::string_view line);
  ParseState FinishHeaders();

  ParseState state_ = ParseState::kNeedMore;
  Phase phase_ = Phase::kRequestLine;
  std::string buffer_;          // unconsumed input
  size_t header_bytes_ = 0;     // header-section bytes seen so far
  size_t body_length_ = 0;      // declared Content-Length
  HttpRequest request_;
  int error_status_ = 0;
  std::string error_;
};

/// Incremental HTTP response parser (client side). Same framing rules as
/// RequestParser: Content-Length bodies only; a response without
/// Content-Length is an error (this client never sends requests that
/// elicit close-delimited bodies).
class ResponseParser {
 public:
  ParseState Consume(std::string_view bytes);
  ParseState state() const { return state_; }
  HttpResponse TakeResponse();
  const std::string& error() const { return error_; }

 private:
  enum class Phase { kStatusLine, kHeaders, kBody };

  ParseState Advance();
  ParseState Fail(std::string message);

  ParseState state_ = ParseState::kNeedMore;
  Phase phase_ = Phase::kStatusLine;
  std::string buffer_;
  size_t header_bytes_ = 0;
  size_t body_length_ = 0;
  HttpResponse response_;
  std::string error_;
};

}  // namespace ceres::net

#endif  // CERES_NET_HTTP_H_

#include "net/http.h"

#include <algorithm>

#include "util/string_util.h"

namespace ceres::net {

namespace {

/// Hard input limits of both parsers; exceeding any of them is a typed
/// parse error. The request-line limit also bounds a status line.
constexpr size_t kMaxRequestLineBytes = 8u << 10;
constexpr size_t kMaxHeaderSectionBytes = 64u << 10;
constexpr size_t kMaxHeaders = 100;
constexpr size_t kMaxBodyBytes = 8u << 20;

char ToLowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string LowerAscii(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), ToLowerAscii);
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToLowerAscii(a[i]) != ToLowerAscii(b[i])) return false;
  }
  return true;
}

/// RFC 9110 token characters, the legal alphabet of methods and header
/// names. Anything else in those positions is a 400.
bool IsTokenChar(char c) {
  if (c >= 'a' && c <= 'z') return true;
  if (c >= 'A' && c <= 'Z') return true;
  if (c >= '0' && c <= '9') return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

bool IsToken(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!IsTokenChar(c)) return false;
  }
  return true;
}

/// Strict non-negative decimal parse for Content-Length. Rejects signs,
/// whitespace, and anything non-digit — a sloppy length parse on the trust
/// boundary becomes request smuggling. Returns 0 and sets `*out` on
/// success, 413 for a number above kMaxBodyBytes, and 400 for anything
/// else (including more than 19 digits of a smaller number).
int ParseContentLength(std::string_view text, size_t* out) {
  if (text.empty()) return 400;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return 400;
    // Saturates just past the limit: beyond it only "too large" matters.
    if (value <= kMaxBodyBytes) {
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
  }
  if (value > kMaxBodyBytes) return 413;
  if (text.size() > 19) return 400;
  *out = static_cast<size_t>(value);
  return 0;
}

/// Parses one "Name: value" line into `headers`. Returns false on a
/// malformed line (no colon, illegal name, embedded control bytes).
bool ParseHeaderLine(std::string_view line, std::vector<HttpHeader>* headers) {
  const size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  std::string_view name = line.substr(0, colon);
  if (!IsToken(name)) return false;  // also rejects whitespace before ':'
  std::string_view value = StripWhitespace(line.substr(colon + 1));
  for (char c : value) {
    if (static_cast<unsigned char>(c) < 0x20 && c != '\t') return false;
  }
  headers->push_back(HttpHeader{LowerAscii(name), std::string(value)});
  return true;
}

const std::string* FindIn(const std::vector<HttpHeader>& headers,
                          std::string_view name) {
  for (const HttpHeader& header : headers) {
    if (EqualsIgnoreCase(header.name, name)) return &header.value;
  }
  return nullptr;
}

/// Shared header-section framing: pulls "line\r\n" (or lenient "line\n")
/// prefixes out of `buffer`. Returns false when no complete line is
/// buffered yet. `line` excludes the terminator; `consumed` includes it.
bool NextLine(const std::string& buffer, size_t start, std::string_view* line,
              size_t* consumed) {
  const size_t eol = buffer.find('\n', start);
  if (eol == std::string::npos) return false;
  size_t end = eol;
  if (end > start && buffer[end - 1] == '\r') --end;
  *line = std::string_view(buffer).substr(start, end - start);
  *consumed = eol + 1 - start;
  return true;
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  return FindIn(headers, name);
}

bool HttpRequest::KeepAlive() const {
  const std::string* connection = FindHeader("connection");
  if (version == "HTTP/1.0") {
    return connection != nullptr && EqualsIgnoreCase(*connection,
                                                     "keep-alive");
  }
  return connection == nullptr || !EqualsIgnoreCase(*connection, "close");
}

std::string_view HttpRequest::Path() const {
  const std::string_view t(target);
  const size_t q = t.find('?');
  return q == std::string_view::npos ? t : t.substr(0, q);
}

std::string_view HttpRequest::Query() const {
  const std::string_view t(target);
  const size_t q = t.find('?');
  return q == std::string_view::npos ? std::string_view() : t.substr(q + 1);
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Content Too Large";
    case 414: return "URI Too Long";
    case 422: return "Unprocessable Content";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default:  return "Status";
  }
}

std::string EncodeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out;
  out.reserve(128 + response.body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += StatusReason(response.status);
  out += "\r\n";
  for (const HttpHeader& header : response.headers) {
    out += header.name;
    out += ": ";
    out += header.value;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  out += response.body;
  return out;
}

std::string EncodeRequest(const HttpRequest& request) {
  std::string out;
  out.reserve(128 + request.body.size());
  out += request.method;
  out += ' ';
  out += request.target;
  out += ' ';
  out += request.version.empty() ? "HTTP/1.1" : request.version;
  out += "\r\n";
  for (const HttpHeader& header : request.headers) {
    out += header.name;
    out += ": ";
    out += header.value;
    out += "\r\n";
  }
  if (!request.body.empty() || request.method == "POST") {
    out += "Content-Length: ";
    out += std::to_string(request.body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out += request.body;
  return out;
}

std::map<std::string, std::string> ParseQuery(std::string_view query) {
  std::map<std::string, std::string> out;
  size_t start = 0;
  while (start <= query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string_view::npos) end = query.size();
    std::string_view pair = query.substr(start, end - start);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      std::string key(pair.substr(0, eq));
      std::string value(eq == std::string_view::npos ? std::string_view()
                                                     : pair.substr(eq + 1));
      std::replace(value.begin(), value.end(), '+', ' ');
      out.emplace(std::move(key), std::move(value));
    }
    if (end == query.size()) break;
    start = end + 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// RequestParser
// ---------------------------------------------------------------------------

void RequestParser::Reset() {
  state_ = ParseState::kNeedMore;
  phase_ = Phase::kRequestLine;
  buffer_.clear();
  header_bytes_ = 0;
  body_length_ = 0;
  request_ = HttpRequest{};
  error_status_ = 0;
  error_.clear();
}

ParseState RequestParser::Fail(int status, std::string message) {
  state_ = ParseState::kError;
  error_status_ = status;
  error_ = std::move(message);
  return state_;
}

ParseState RequestParser::Consume(std::string_view bytes) {
  if (state_ == ParseState::kError) return state_;
  // In kComplete the bytes are buffered (they belong to the next pipelined
  // request) but not parsed until TakeRequest() re-arms the parser.
  buffer_.append(bytes.data(), bytes.size());
  if (state_ == ParseState::kComplete) return state_;
  return Advance();
}

HttpRequest RequestParser::TakeRequest() {
  HttpRequest taken = std::move(request_);
  request_ = HttpRequest{};
  phase_ = Phase::kRequestLine;
  state_ = ParseState::kNeedMore;
  header_bytes_ = 0;
  body_length_ = 0;
  // Pipelined leftover stays in buffer_; re-parse it immediately so state()
  // already reflects a fully buffered follow-up request.
  if (!buffer_.empty()) (void)Advance();
  return taken;
}

bool RequestParser::ParseRequestLine(std::string_view line) {
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = line.substr(sp2 + 1);
  if (!IsToken(method) || method.size() > 16) return false;
  if (target.empty() || target.find(' ') != std::string_view::npos) {
    return false;
  }
  for (char c : target) {
    if (static_cast<unsigned char>(c) <= 0x20 ||
        static_cast<unsigned char>(c) == 0x7f) {
      return false;
    }
  }
  request_.method = std::string(method);
  request_.target = std::string(target);
  request_.version = std::string(version);
  return true;
}

ParseState RequestParser::FinishHeaders() {
  if (request_.FindHeader("transfer-encoding") != nullptr) {
    // Refusing beats a half-tested chunked decoder on the trust boundary.
    return Fail(501, "Transfer-Encoding is not supported");
  }
  const std::string* content_length = request_.FindHeader("content-length");
  body_length_ = 0;
  if (content_length != nullptr) {
    const int status = ParseContentLength(*content_length, &body_length_);
    if (status == 413) return Fail(413, "body exceeds limit");
    if (status != 0) return Fail(400, "malformed Content-Length");
  }
  phase_ = Phase::kBody;
  return Advance();
}

ParseState RequestParser::Advance() {
  while (true) {
    switch (phase_) {
      case Phase::kRequestLine: {
        std::string_view line;
        size_t consumed = 0;
        if (!NextLine(buffer_, 0, &line, &consumed)) {
          if (buffer_.size() > kMaxRequestLineBytes) {
            return Fail(414, "request line exceeds limit");
          }
          return state_ = ParseState::kNeedMore;
        }
        // Own the line before the erase below shifts buffer_ under it.
        const std::string owned(line);
        buffer_.erase(0, consumed);
        if (owned.empty()) continue;  // tolerate leading blank line (RFC)
        if (consumed > kMaxRequestLineBytes) {
          return Fail(414, "request line exceeds limit");
        }
        if (!ParseRequestLine(owned)) {
          return Fail(400, "malformed request line");
        }
        if (request_.version != "HTTP/1.1" &&
            request_.version != "HTTP/1.0") {
          return Fail(505, "unsupported HTTP version");
        }
        phase_ = Phase::kHeaders;
        continue;
      }
      case Phase::kHeaders: {
        std::string_view line;
        size_t consumed = 0;
        if (!NextLine(buffer_, 0, &line, &consumed)) {
          if (header_bytes_ + buffer_.size() > kMaxHeaderSectionBytes) {
            return Fail(431, "header section exceeds limit");
          }
          return state_ = ParseState::kNeedMore;
        }
        header_bytes_ += consumed;
        if (header_bytes_ > kMaxHeaderSectionBytes) {
          return Fail(431, "header section exceeds limit");
        }
        const std::string owned(line);
        buffer_.erase(0, consumed);
        if (owned.empty()) return FinishHeaders();
        if (request_.headers.size() >= kMaxHeaders) {
          return Fail(431, "too many headers");
        }
        if (!ParseHeaderLine(owned, &request_.headers)) {
          return Fail(400, "malformed header line");
        }
        continue;
      }
      case Phase::kBody: {
        if (buffer_.size() < body_length_) {
          return state_ = ParseState::kNeedMore;
        }
        request_.body = buffer_.substr(0, body_length_);
        buffer_.erase(0, body_length_);
        return state_ = ParseState::kComplete;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ResponseParser
// ---------------------------------------------------------------------------

ParseState ResponseParser::Fail(std::string message) {
  state_ = ParseState::kError;
  error_ = std::move(message);
  return state_;
}

ParseState ResponseParser::Consume(std::string_view bytes) {
  if (state_ == ParseState::kError || state_ == ParseState::kComplete) {
    return state_;
  }
  buffer_.append(bytes.data(), bytes.size());
  return Advance();
}

HttpResponse ResponseParser::TakeResponse() {
  HttpResponse taken = std::move(response_);
  response_ = HttpResponse{};
  phase_ = Phase::kStatusLine;
  state_ = ParseState::kNeedMore;
  header_bytes_ = 0;
  body_length_ = 0;
  if (!buffer_.empty()) (void)Advance();
  return taken;
}

ParseState ResponseParser::Advance() {
  while (true) {
    switch (phase_) {
      case Phase::kStatusLine: {
        std::string_view line;
        size_t consumed = 0;
        if (!NextLine(buffer_, 0, &line, &consumed)) {
          if (buffer_.size() > kMaxRequestLineBytes) {
            return Fail("status line exceeds limit");
          }
          return state_ = ParseState::kNeedMore;
        }
        const std::string owned(line);
        buffer_.erase(0, consumed);
        if (owned.empty()) continue;
        // "HTTP/1.1 200 OK"
        const std::string_view owned_view(owned);
        const size_t sp1 = owned_view.find(' ');
        if (sp1 == std::string_view::npos ||
            owned_view.substr(0, 5) != "HTTP/") {
          return Fail("malformed status line");
        }
        std::string_view code = owned_view.substr(sp1 + 1);
        const size_t sp2 = code.find(' ');
        if (sp2 != std::string_view::npos) code = code.substr(0, sp2);
        if (code.size() != 3) return Fail("malformed status code");
        int status = 0;
        for (char c : code) {
          if (c < '0' || c > '9') return Fail("malformed status code");
          status = status * 10 + (c - '0');
        }
        response_.status = status;
        phase_ = Phase::kHeaders;
        continue;
      }
      case Phase::kHeaders: {
        std::string_view line;
        size_t consumed = 0;
        if (!NextLine(buffer_, 0, &line, &consumed)) {
          if (header_bytes_ + buffer_.size() > kMaxHeaderSectionBytes) {
            return Fail("header section exceeds limit");
          }
          return state_ = ParseState::kNeedMore;
        }
        header_bytes_ += consumed;
        if (header_bytes_ > kMaxHeaderSectionBytes) {
          return Fail("header section exceeds limit");
        }
        const std::string owned(line);
        buffer_.erase(0, consumed);
        if (!owned.empty()) {
          if (response_.headers.size() >= kMaxHeaders) {
            return Fail("too many headers");
          }
          if (!ParseHeaderLine(owned, &response_.headers)) {
            return Fail("malformed header line");
          }
          continue;
        }
        const std::string* content_length =
            FindIn(response_.headers, "content-length");
        if (content_length == nullptr) {
          if (response_.status == 204) {
            body_length_ = 0;
          } else {
            return Fail("response without Content-Length");
          }
        } else if (ParseContentLength(*content_length, &body_length_) != 0) {
          return Fail("malformed or oversized Content-Length");
        }
        phase_ = Phase::kBody;
        continue;
      }
      case Phase::kBody: {
        if (buffer_.size() < body_length_) {
          return state_ = ParseState::kNeedMore;
        }
        response_.body = buffer_.substr(0, body_length_);
        buffer_.erase(0, body_length_);
        return state_ = ParseState::kComplete;
      }
    }
  }
}

}  // namespace ceres::net

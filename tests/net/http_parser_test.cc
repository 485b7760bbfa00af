#include "net/http.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "robustness/fault_injector.h"
#include "util/random.h"

namespace ceres::net {
namespace {

HttpRequest PostExtract(const std::string& body) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/extract?site=films.example";
  request.version = "HTTP/1.1";
  request.body = body;
  return request;
}

TEST(RequestParserTest, ParsesSimpleGetInOneChunk) {
  RequestParser parser;
  ASSERT_EQ(parser.Consume("GET /healthz HTTP/1.1\r\n"
                           "Host: localhost\r\n\r\n"),
            ParseState::kComplete);
  HttpRequest request = parser.TakeRequest();
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.Path(), "/healthz");
  EXPECT_TRUE(request.Query().empty());
  ASSERT_NE(request.FindHeader("HOST"), nullptr);
  EXPECT_EQ(*request.FindHeader("host"), "localhost");
  EXPECT_TRUE(request.KeepAlive());
}

TEST(RequestParserTest, RoundtripsEncodeRequestByteAtATime) {
  const std::string wire = EncodeRequest(PostExtract("<html>page</html>"));
  RequestParser parser;
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_EQ(parser.state(), ParseState::kNeedMore)
        << "completed early at byte " << i;
    parser.Consume(std::string_view(&wire[i], 1));
    if (i > 0 && i + 1 < wire.size()) {
      EXPECT_TRUE(parser.MidMessage());
    }
  }
  ASSERT_EQ(parser.state(), ParseState::kComplete);
  HttpRequest request = parser.TakeRequest();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.Path(), "/extract");
  EXPECT_EQ(request.body, "<html>page</html>");
  EXPECT_FALSE(parser.MidMessage());
}

TEST(RequestParserTest, ReArmsOnPipelinedRequests) {
  const std::string wire =
      EncodeRequest(PostExtract("one")) + EncodeRequest(PostExtract("two"));
  RequestParser parser;
  ASSERT_EQ(parser.Consume(wire), ParseState::kComplete);
  EXPECT_EQ(parser.TakeRequest().body, "one");
  // TakeRequest re-parses the buffered leftover immediately.
  ASSERT_EQ(parser.state(), ParseState::kComplete);
  EXPECT_EQ(parser.TakeRequest().body, "two");
  EXPECT_EQ(parser.state(), ParseState::kNeedMore);
  EXPECT_FALSE(parser.MidMessage());
}

TEST(RequestParserTest, TornRequestParksInNeedMore) {
  RequestParser parser;
  EXPECT_EQ(parser.Consume("POST /extract HTTP/1.1\r\nContent-Le"),
            ParseState::kNeedMore);
  EXPECT_TRUE(parser.MidMessage());
  // The remainder completes the message; nothing was lost at the tear.
  EXPECT_EQ(parser.Consume("ngth: 4\r\n\r\nbody"), ParseState::kComplete);
  EXPECT_EQ(parser.TakeRequest().body, "body");
}

TEST(RequestParserTest, RejectsChunkedTransferEncodingWith501) {
  RequestParser parser;
  ASSERT_EQ(parser.Consume("POST /extract HTTP/1.1\r\n"
                           "Transfer-Encoding: chunked\r\n\r\n"),
            ParseState::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(RequestParserTest, RejectsOversizedBodyWith413) {
  // The body limit is 8 MiB: a declared length at the limit is accepted
  // (the parser waits for the body), one byte more is refused.
  RequestParser at_limit;
  EXPECT_EQ(at_limit.Consume("POST /extract HTTP/1.1\r\n"
                             "Content-Length: 8388608\r\n\r\n"),
            ParseState::kNeedMore);
  RequestParser parser;
  ASSERT_EQ(parser.Consume("POST /extract HTTP/1.1\r\n"
                           "Content-Length: 8388609\r\n\r\n"),
            ParseState::kError);
  EXPECT_EQ(parser.error_status(), 413);
  // A number too long for 64 bits is still "too large", not malformed.
  RequestParser huge;
  ASSERT_EQ(huge.Consume("POST /extract HTTP/1.1\r\n"
                         "Content-Length: 1234567890123456789012345\r\n\r\n"),
            ParseState::kError);
  EXPECT_EQ(huge.error_status(), 413);
}

/// A request line of exactly `bytes` bytes, CRLF included.
std::string RequestLineOfSize(size_t bytes) {
  // "GET /" + target + " HTTP/1.1\r\n" is 16 bytes around the target.
  return "GET /" + std::string(bytes - 16, 'a') + " HTTP/1.1\r\n";
}

TEST(RequestParserTest, RejectsOversizedRequestLineWith414) {
  // The request-line limit is 8 KiB, CRLF included.
  RequestParser at_limit;
  EXPECT_EQ(at_limit.Consume(RequestLineOfSize(8192)), ParseState::kNeedMore);
  RequestParser parser;
  EXPECT_EQ(parser.Consume(RequestLineOfSize(8193)), ParseState::kError);
  EXPECT_EQ(parser.error_status(), 414);
}

TEST(RequestParserTest, OversizedRequestLineDetectedWithoutNewline) {
  // The limit must trip on buffered bytes alone — a peer streaming an
  // endless first line never sends the newline the parser is waiting for.
  RequestParser at_limit;
  EXPECT_EQ(at_limit.Consume("GET /" + std::string(8187, 'a')),
            ParseState::kNeedMore);
  RequestParser parser;
  EXPECT_EQ(parser.Consume("GET /" + std::string(8188, 'a')),
            ParseState::kError);
  EXPECT_EQ(parser.error_status(), 414);
}

TEST(RequestParserTest, RejectsOversizedHeaderSectionWith431) {
  // The header-section limit is 64 KiB: one "X-Filler: ...\r\n" line of
  // 65537 bytes is one over it.
  RequestParser parser;
  ASSERT_EQ(parser.Consume("GET / HTTP/1.1\r\n"), ParseState::kNeedMore);
  EXPECT_EQ(parser.Consume("X-Filler: " + std::string(65525, 'x') + "\r\n"),
            ParseState::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(RequestParserTest, RejectsTooManyHeadersWith431) {
  // 100 headers are accepted; the 101st is refused.
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 100; ++i) {
    wire += "X-H" + std::to_string(i) + ": v\r\n";
  }
  RequestParser at_limit;
  EXPECT_EQ(at_limit.Consume(wire + "\r\n"), ParseState::kComplete);
  RequestParser parser;
  ASSERT_EQ(parser.Consume(wire + "X-H100: v\r\n"), ParseState::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(RequestParserTest, RejectsUnsupportedVersionWith505) {
  RequestParser parser;
  ASSERT_EQ(parser.Consume("GET / HTTP/2.0\r\n\r\n"), ParseState::kError);
  EXPECT_EQ(parser.error_status(), 505);
  // Free-text junk splits as <method> <target> <everything else>: it is
  // rejected at the version check, still before any header handling.
  RequestParser junk;
  ASSERT_EQ(junk.Consume("not a request line at all\r\n"),
            ParseState::kError);
  EXPECT_EQ(junk.error_status(), 505);
}

TEST(RequestParserTest, RejectsMalformedInputWith400) {
  const char* bad[] = {
      "GET\r\n",
      "GET /\r\n",
      "G@T / HTTP/1.1\r\n",
      "GET / HTTP/1.1\r\nno-colon-here\r\n",
      "GET / HTTP/1.1\r\n: empty-name\r\n",
      "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n",
      // More than 19 digits, even of a small number.
      "POST / HTTP/1.1\r\nContent-Length: 000000000000000000001\r\n\r\n",
  };
  for (const char* wire : bad) {
    SCOPED_TRACE(wire);
    RequestParser parser;
    ASSERT_EQ(parser.Consume(wire), ParseState::kError);
    EXPECT_EQ(parser.error_status(), 400);
  }
}

TEST(RequestParserTest, ErrorIsStickyUntilReset) {
  RequestParser parser;
  ASSERT_EQ(parser.Consume("garbage\r\n"), ParseState::kError);
  // More bytes — even a valid request — cannot clear the error.
  EXPECT_EQ(parser.Consume("GET / HTTP/1.1\r\n\r\n"), ParseState::kError);
  parser.Reset();
  EXPECT_EQ(parser.Consume("GET / HTTP/1.1\r\n\r\n"), ParseState::kComplete);
}

/// Fault-injected wire bytes: a truncated request is a strict prefix, so
/// it must never complete; after any corruption and a Reset, the parser
/// must accept a clean request (no poisoned state, no crash).
TEST(RequestParserTest, SurvivesInjectedTruncationAndGarbling) {
  const std::string wire =
      EncodeRequest(PostExtract("<html><body>Film page</body></html>"));
  const std::string clean = "GET /healthz HTTP/1.1\r\n\r\n";
  FaultInjectionConfig config;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng torn_rng(seed);
    const std::string torn =
        CorruptHtml(wire, FaultType::kTruncate, config, &torn_rng);
    ASSERT_LT(torn.size(), wire.size());
    RequestParser parser;
    EXPECT_NE(parser.Consume(torn), ParseState::kComplete)
        << "seed " << seed << " completed on a truncated request";
    parser.Reset();
    ASSERT_EQ(parser.Consume(clean), ParseState::kComplete);

    Rng garbled_rng(seed);
    const std::string garbled =
        CorruptHtml(wire, FaultType::kGarble, config, &garbled_rng);
    RequestParser reused;
    // Garbled bytes may parse, park, or error — anything but a crash; a
    // completed parse must hand back a request without tripping limits.
    if (reused.Consume(garbled) == ParseState::kComplete) {
      (void)reused.TakeRequest();
    }
    reused.Reset();
    ASSERT_EQ(reused.Consume(clean), ParseState::kComplete);
  }
}

TEST(ResponseParserTest, RoundtripsEncodeResponse) {
  HttpResponse response;
  response.status = 429;
  response.headers.push_back(HttpHeader{"x-ceres-shed", "rate-limit"});
  response.body = "slow down";
  const std::string wire = EncodeResponse(response, /*keep_alive=*/false);
  ResponseParser parser;
  ASSERT_EQ(parser.Consume(wire), ParseState::kComplete);
  HttpResponse parsed = parser.TakeResponse();
  EXPECT_EQ(parsed.status, 429);
  EXPECT_EQ(parsed.body, "slow down");
  const std::string* connection = nullptr;
  for (const HttpHeader& header : parsed.headers) {
    if (header.name == "connection") connection = &header.value;
  }
  ASSERT_NE(connection, nullptr);
  EXPECT_EQ(*connection, "close");
}

TEST(ResponseParserTest, RequiresContentLengthExceptFor204) {
  ResponseParser parser;
  EXPECT_EQ(parser.Consume("HTTP/1.1 200 OK\r\n\r\n"), ParseState::kError);
  ResponseParser no_content;
  EXPECT_EQ(no_content.Consume("HTTP/1.1 204 No Content\r\n\r\n"),
            ParseState::kComplete);
  EXPECT_TRUE(no_content.TakeResponse().body.empty());
}

TEST(HttpMessageTest, KeepAliveDefaultsByVersion) {
  HttpRequest request;
  request.version = "HTTP/1.1";
  EXPECT_TRUE(request.KeepAlive());
  request.headers.push_back(HttpHeader{"connection", "Close"});
  EXPECT_FALSE(request.KeepAlive());
  HttpRequest old_request;
  old_request.version = "HTTP/1.0";
  EXPECT_FALSE(old_request.KeepAlive());
  old_request.headers.push_back(HttpHeader{"connection", "Keep-Alive"});
  EXPECT_TRUE(old_request.KeepAlive());
}

TEST(HttpMessageTest, ParseQuerySplitsPairs) {
  const auto query = ParseQuery("site=films.example&url=x+y&flag");
  EXPECT_EQ(query.at("site"), "films.example");
  EXPECT_EQ(query.at("url"), "x y");
  EXPECT_EQ(query.at("flag"), "");
}

}  // namespace
}  // namespace ceres::net

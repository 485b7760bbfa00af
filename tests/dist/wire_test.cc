// Wire protocol unit tests: frame encode/decode through fds and the
// incremental FrameBuffer, corruption detection, and byte-exact payload
// codec roundtrips (doubles must survive bit-for-bit — the byte-identical
// merge guarantee rests on it).

#include "dist/wire.h"

#include <unistd.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace ceres::dist {
namespace {

TEST(Fnv1a64Test, PinnedReferenceValues) {
  // FNV-1a 64 reference vectors; pinned because frame checksums, and so
  // checkpoint files, persist these values across processes.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(FrameTest, RoundTripThroughPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteFrame(fds[1], FrameType::kWorkerError, "hello").ok());
  Result<Frame> frame = ReadFrame(fds[0]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kWorkerError);
  EXPECT_EQ(frame->payload, "hello");
  ::close(fds[1]);
  // Clean EOF at a frame boundary is kNotFound, not an error.
  Result<Frame> eof = ReadFrame(fds[0]);
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  ::close(fds[0]);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteFrame(fds[1], FrameType::kWorkerError, "").ok());
  Result<Frame> frame = ReadFrame(fds[0]);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kWorkerError);
  EXPECT_TRUE(frame->payload.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FrameTest, TruncatedFrameIsInternal) {
  const std::string encoded = EncodeFrame(FrameType::kResult, "payload");
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Half the frame, then EOF: a worker that died mid-write.
  ASSERT_EQ(::write(fds[1], encoded.data(), encoded.size() / 2),
            static_cast<ssize_t>(encoded.size() / 2));
  ::close(fds[1]);
  Result<Frame> frame = ReadFrame(fds[0]);
  EXPECT_EQ(frame.status().code(), StatusCode::kInternal);
  ::close(fds[0]);
}

TEST(FrameTest, FlippedPayloadByteFailsChecksum) {
  std::string encoded = EncodeFrame(FrameType::kResult, "payload");
  encoded[7] = static_cast<char>(~encoded[7]);  // inside the payload
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], encoded.data(), encoded.size()),
            static_cast<ssize_t>(encoded.size()));
  ::close(fds[1]);
  Result<Frame> frame = ReadFrame(fds[0]);
  ASSERT_EQ(frame.status().code(), StatusCode::kInternal);
  EXPECT_NE(frame.status().message().find("checksum"), std::string::npos);
  ::close(fds[0]);
}

TEST(FrameTest, BadMagicIsInternal) {
  std::string encoded = EncodeFrame(FrameType::kResult, "x");
  encoded[0] = 'Z';
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], encoded.data(), encoded.size()),
            static_cast<ssize_t>(encoded.size()));
  ::close(fds[1]);
  EXPECT_EQ(ReadFrame(fds[0]).status().code(), StatusCode::kInternal);
  ::close(fds[0]);
}

TEST(FrameTest, UnknownFrameTypeIsInternal) {
  // The checksum covers only the payload, so a bad type byte passes it;
  // both decoders must reject the byte itself. 2, 3 and 5 are the retired
  // heartbeat, progress and shutdown frames.
  for (const uint8_t type :
       {uint8_t{0x7F}, uint8_t{2}, uint8_t{3}, uint8_t{5}}) {
    std::string encoded = EncodeFrame(FrameType::kWorkerError, "");
    encoded[1] = static_cast<char>(type);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], encoded.data(), encoded.size()),
              static_cast<ssize_t>(encoded.size()));
    ::close(fds[1]);
    Result<Frame> read = ReadFrame(fds[0]);
    ::close(fds[0]);
    ASSERT_EQ(read.status().code(), StatusCode::kInternal) << int{type};
    EXPECT_NE(read.status().message().find(
                  StrCat("unknown frame type ", int{type})),
              std::string::npos)
        << read.status().ToString();

    FrameBuffer buffer;
    buffer.Append(encoded.data(), encoded.size());
    Frame frame;
    Status next = buffer.Next(&frame);
    ASSERT_EQ(next.code(), StatusCode::kInternal) << int{type};
    EXPECT_NE(next.message().find(StrCat("unknown frame type ", int{type})),
              std::string::npos)
        << next.ToString();
  }
}

TEST(FrameBufferTest, DeliversFramesAcrossArbitraryChunks) {
  const std::string a = EncodeFrame(FrameType::kWorkerError, "one");
  const std::string b = EncodeFrame(FrameType::kResult, "two");
  const std::string stream = a + b;
  // Feed one byte at a time: every prefix must yield kNotFound until the
  // frame completes.
  FrameBuffer buffer;
  std::vector<Frame> frames;
  for (char c : stream) {
    buffer.Append(&c, 1);
    Frame frame;
    Status next = buffer.Next(&frame);
    if (next.ok()) {
      frames.push_back(std::move(frame));
    } else {
      ASSERT_EQ(next.code(), StatusCode::kNotFound);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kWorkerError);
  EXPECT_EQ(frames[0].payload, "one");
  EXPECT_EQ(frames[1].type, FrameType::kResult);
  EXPECT_EQ(frames[1].payload, "two");
  EXPECT_EQ(buffer.pending_bytes(), 0u);
}

TEST(FrameBufferTest, CorruptStreamIsInternal) {
  std::string encoded = EncodeFrame(FrameType::kResult, "data");
  encoded[encoded.size() - 1] ^= 0x01;  // corrupt the checksum itself
  FrameBuffer buffer;
  buffer.Append(encoded.data(), encoded.size());
  Frame frame;
  EXPECT_EQ(buffer.Next(&frame).code(), StatusCode::kInternal);
}

TEST(FrameBufferTest, OversizedLengthRejectedBeforeAllocation) {
  std::string header;
  header.push_back(static_cast<char>(0xCE));
  header.push_back(static_cast<char>(FrameType::kResult));
  const uint32_t huge = kMaxFramePayloadBytes + 1;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  FrameBuffer buffer;
  buffer.Append(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(buffer.Next(&frame).code(), StatusCode::kInternal);
}

ShardTask MakeTask() {
  ShardTask task;
  task.shard = 7;
  task.attempt = 2;
  task.fault = ProcessFaultType::kWorkerCrash;
  task.sites.push_back(
      ShardSite{"a.example",
                {RawPage{"http://a/1", "<html>1</html>"},
                 RawPage{"http://a/2", "<html>2</html>"}}});
  task.sites.push_back(ShardSite{"b.example", {}});
  return task;
}

TEST(PayloadTest, ShardTaskRoundTrips) {
  const ShardTask task = MakeTask();
  Result<ShardTask> decoded = DecodeShardTask(EncodeShardTask(task));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shard, 7);
  EXPECT_EQ(decoded->attempt, 2);
  EXPECT_EQ(decoded->fault, ProcessFaultType::kWorkerCrash);
  ASSERT_EQ(decoded->sites.size(), 2u);
  EXPECT_EQ(decoded->sites[0].site, "a.example");
  ASSERT_EQ(decoded->sites[0].pages.size(), 2u);
  EXPECT_EQ(decoded->sites[0].pages[1].url, "http://a/2");
  EXPECT_EQ(decoded->sites[0].pages[1].html, "<html>2</html>");
  EXPECT_TRUE(decoded->sites[1].pages.empty());
}

TEST(PayloadTest, TruncatedShardTaskIsUnderrun) {
  const std::string encoded = EncodeShardTask(MakeTask());
  for (size_t cut : {size_t{0}, size_t{3}, encoded.size() / 2,
                     encoded.size() - 1}) {
    Result<ShardTask> decoded =
        DecodeShardTask(std::string_view(encoded).substr(0, cut));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInternal)
        << "cut at " << cut;
  }
}

TEST(PayloadTest, ShardResultRoundTripsDoublesExactly) {
  ShardResult result;
  result.shard = 3;
  SiteResult site;
  site.site = "exact.example";
  site.pages = 5;
  site.quarantined_pages = 1;
  site.skipped_clusters = 2;
  // Confidences chosen to break any text round trip: only a bit-pattern
  // encoding reproduces them exactly.
  const double values[] = {0.1, 1.0 / 3.0, 0.7000000000000001,
                           std::nextafter(0.5, 1.0),
                           std::numeric_limits<double>::min(),
                           1e-300};
  for (double v : values) {
    Extraction e;
    e.page = 1;
    e.node = 2;
    e.predicate = 3;
    e.subject = "s";
    e.object = "o";
    e.confidence = v;
    site.extractions.push_back(e);
  }
  result.sites.push_back(site);

  Result<ShardResult> decoded = DecodeShardResult(EncodeShardResult(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->sites.size(), 1u);
  const SiteResult& got = decoded->sites[0];
  EXPECT_EQ(got.site, "exact.example");
  EXPECT_EQ(got.pages, 5);
  EXPECT_EQ(got.quarantined_pages, 1);
  EXPECT_EQ(got.skipped_clusters, 2);
  ASSERT_EQ(got.extractions.size(), std::size(values));
  for (size_t i = 0; i < std::size(values); ++i) {
    // Exact bit equality, not EXPECT_DOUBLE_EQ.
    EXPECT_EQ(got.extractions[i].confidence, values[i]) << i;
  }
}

TEST(PayloadTest, TrailingBytesRejected) {
  std::string task = EncodeShardTask(MakeTask());
  task.push_back('x');
  EXPECT_EQ(DecodeShardTask(task).status().code(), StatusCode::kInternal);

  ShardResult result;
  result.shard = 1;
  result.sites.push_back(SiteResult{"t.example", {}, 2, 0, 0});
  std::string encoded = EncodeShardResult(result);
  encoded.push_back('x');
  EXPECT_EQ(DecodeShardResult(encoded).status().code(),
            StatusCode::kInternal);
}

TEST(PayloadTest, LyingCountIsUnderrunNotAllocation) {
  // A count of 0xFFFFFFFF followed by no elements must be rejected from the
  // bytes left, before any container is sized to it.
  WireWriter result;
  result.PutI32(0);           // shard
  result.PutU32(0xFFFFFFFF);  // sites
  Result<ShardResult> decoded_result = DecodeShardResult(result.bytes());
  ASSERT_EQ(decoded_result.status().code(), StatusCode::kInternal);
  EXPECT_NE(decoded_result.status().message().find("underrun"),
            std::string::npos);

  // The same lie one level down: one site claiming 0xFFFFFFFF extractions.
  WireWriter extractions;
  extractions.PutI32(0);
  extractions.PutU32(1);
  extractions.PutStr("s.example");
  extractions.PutI64(1);
  extractions.PutI64(0);
  extractions.PutI64(0);
  extractions.PutU32(0xFFFFFFFF);
  EXPECT_EQ(DecodeShardResult(extractions.bytes()).status().code(),
            StatusCode::kInternal);

  // A shard task: a default task's header with its site count (0) cut
  // off, then the lying count.
  std::string header = EncodeShardTask(ShardTask{});
  header.resize(header.size() - 4);
  WireWriter sites;
  sites.PutU32(0xFFFFFFFF);
  Result<ShardTask> decoded_task = DecodeShardTask(header + sites.bytes());
  ASSERT_EQ(decoded_task.status().code(), StatusCode::kInternal);
  EXPECT_NE(decoded_task.status().message().find("underrun"),
            std::string::npos);

  // And one site claiming 0xFFFFFFFF pages.
  WireWriter pages;
  pages.PutU32(1);
  pages.PutStr("p.example");
  pages.PutU32(0xFFFFFFFF);
  EXPECT_EQ(DecodeShardTask(header + pages.bytes()).status().code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace ceres::dist

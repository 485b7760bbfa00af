#include "dist/wire.h"

#include <errno.h>
#include <unistd.h>

#include <cstring>

#include "util/string_util.h"

namespace ceres::dist {

namespace {

constexpr char kFrameMagic = static_cast<char>(0xCE);
// magic + type + payload_len.
constexpr size_t kFrameHeaderBytes = 1 + 1 + 4;
constexpr size_t kFrameChecksumBytes = 8;

// The smallest encoding of one element of each counted payload list (every
// string empty). Decoders check a wire count against these before sizing a
// container, so a lying count cannot become a huge allocation.
constexpr size_t kMinShardSiteBytes = 4 + 4;           // site, page count
constexpr size_t kMinRawPageBytes = 4 + 4;             // url, html
constexpr size_t kMinSiteResultBytes = 4 + 3 * 8 + 4;  // site, 3 i64, count
constexpr size_t kMinExtractionBytes = 3 * 4 + 4 + 4 + 8;  // 3 i32, 2 str, f64

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

/// Ok = all n bytes read; kNotFound = clean EOF before the first byte;
/// kInternal = read error or EOF mid-buffer.
Status ReadExact(int fd, char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, data + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrCat("read failed: ", std::strerror(errno)));
    }
    if (r == 0) {
      if (off == 0) return Status::NotFound("eof");
      return Status::Internal(
          StrCat("short read: got ", off, " of ", n, " bytes"));
    }
    off += static_cast<size_t>(r);
  }
  return Status::Ok();
}

/// Remaps the mid-frame clean-EOF case to kInternal: once a frame header
/// has been consumed, "peer closed" means "peer died mid-frame".
Status ReadFully(int fd, char* data, size_t n) {
  Status status = ReadExact(fd, data, n);
  if (status.code() == StatusCode::kNotFound) {
    return Status::Internal("eof mid-frame");
  }
  return status;
}

/// The frame type a header's type byte names, or kInternal for a byte
/// outside the enum. The checksum covers only the payload, so this is the
/// one check on the type byte.
Status ParseFrameType(char byte, FrameType* type) {
  const auto value = static_cast<uint8_t>(byte);
  switch (static_cast<FrameType>(value)) {
    case FrameType::kAssignShard:
    case FrameType::kResult:
    case FrameType::kWorkerError:
      *type = static_cast<FrameType>(value);
      return Status::Ok();
  }
  return Status::Internal(
      StrCat("unknown frame type ", static_cast<int>(value)));
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kAssignShard:
      return "assign-shard";
    case FrameType::kResult:
      return "result";
    case FrameType::kWorkerError:
      return "worker-error";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameChecksumBytes);
  out.push_back(kFrameMagic);
  out.push_back(static_cast<char>(type));
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  out.append(payload);
  const uint64_t checksum = Fnv1a64(payload);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((checksum >> (8 * i)) & 0xFF));
  }
  return out;
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  const std::string encoded = EncodeFrame(type, payload);
  size_t off = 0;
  while (off < encoded.size()) {
    const ssize_t w = ::write(fd, encoded.data() + off, encoded.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrCat("write ", FrameTypeName(type),
                                     " frame failed: ",
                                     std::strerror(errno)));
    }
    off += static_cast<size_t>(w);
  }
  return Status::Ok();
}

Result<Frame> ReadFrame(int fd) {
  char header[kFrameHeaderBytes];
  Status header_status = ReadExact(fd, header, sizeof(header));
  if (!header_status.ok()) {
    if (header_status.code() == StatusCode::kNotFound) return header_status;
    return PrependContext(std::move(header_status), "frame header");
  }
  if (header[0] != kFrameMagic) {
    return Status::Internal("corrupt frame: bad magic byte");
  }
  const uint32_t len = LoadU32(header + 2);
  if (len > kMaxFramePayloadBytes) {
    return Status::Internal(StrCat("corrupt frame: payload length ", len,
                                   " over the ", kMaxFramePayloadBytes,
                                   "-byte cap"));
  }
  Frame frame;
  CERES_RETURN_IF_ERROR(ParseFrameType(header[1], &frame.type));
  frame.payload.resize(len);
  if (len > 0) {
    CERES_RETURN_IF_ERROR(ReadFully(fd, frame.payload.data(), len));
  }
  char checksum_bytes[kFrameChecksumBytes];
  CERES_RETURN_IF_ERROR(
      ReadFully(fd, checksum_bytes, sizeof(checksum_bytes)));
  if (LoadU64(checksum_bytes) != Fnv1a64(frame.payload)) {
    return Status::Internal(
        StrCat("corrupt ", FrameTypeName(frame.type),
               " frame: checksum mismatch"));
  }
  return frame;
}

Status FrameBuffer::Next(Frame* out) {
  if (buffer_.size() < kFrameHeaderBytes) {
    return Status::NotFound("incomplete frame");
  }
  if (buffer_[0] != kFrameMagic) {
    return Status::Internal("corrupt stream: bad magic byte");
  }
  const uint32_t len = LoadU32(buffer_.data() + 2);
  if (len > kMaxFramePayloadBytes) {
    return Status::Internal(StrCat("corrupt stream: payload length ", len,
                                   " over the ", kMaxFramePayloadBytes,
                                   "-byte cap"));
  }
  const size_t total = kFrameHeaderBytes + len + kFrameChecksumBytes;
  if (buffer_.size() < total) return Status::NotFound("incomplete frame");
  CERES_RETURN_IF_ERROR(ParseFrameType(buffer_[1], &out->type));
  out->payload.assign(buffer_, kFrameHeaderBytes, len);
  const uint64_t checksum = LoadU64(buffer_.data() + kFrameHeaderBytes + len);
  buffer_.erase(0, total);
  if (checksum != Fnv1a64(out->payload)) {
    return Status::Internal(StrCat("corrupt ", FrameTypeName(out->type),
                                   " frame: checksum mismatch"));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Encoding primitives.
// ---------------------------------------------------------------------------

void WireWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void WireWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void WireWriter::PutF64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutStr(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s);
}

namespace {
Status Underrun() { return Status::Internal("payload underrun"); }
}  // namespace

Status WireReader::U8(uint8_t* v) {
  if (pos_ + 1 > data_.size()) return Underrun();
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::Ok();
}

Status WireReader::U32(uint32_t* v) {
  if (pos_ + 4 > data_.size()) return Underrun();
  *v = LoadU32(data_.data() + pos_);
  pos_ += 4;
  return Status::Ok();
}

Status WireReader::U64(uint64_t* v) {
  if (pos_ + 8 > data_.size()) return Underrun();
  *v = LoadU64(data_.data() + pos_);
  pos_ += 8;
  return Status::Ok();
}

Status WireReader::I32(int32_t* v) {
  uint32_t raw = 0;
  CERES_RETURN_IF_ERROR(U32(&raw));
  *v = static_cast<int32_t>(raw);
  return Status::Ok();
}

Status WireReader::I64(int64_t* v) {
  uint64_t raw = 0;
  CERES_RETURN_IF_ERROR(U64(&raw));
  *v = static_cast<int64_t>(raw);
  return Status::Ok();
}

Status WireReader::F64(double* v) {
  uint64_t bits = 0;
  CERES_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::Ok();
}

Status WireReader::Str(std::string* s) {
  uint32_t len = 0;
  CERES_RETURN_IF_ERROR(U32(&len));
  if (pos_ + len > data_.size()) return Underrun();
  s->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status WireReader::Count(uint32_t* n, size_t min_element_bytes) {
  CERES_RETURN_IF_ERROR(U32(n));
  if (*n > (data_.size() - pos_) / min_element_bytes) return Underrun();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

std::string EncodeShardTask(const ShardTask& task) {
  WireWriter w;
  w.PutI32(task.shard);
  w.PutI32(task.attempt);
  w.PutU8(static_cast<uint8_t>(task.fault));
  w.PutU32(static_cast<uint32_t>(task.sites.size()));
  for (const ShardSite& site : task.sites) {
    w.PutStr(site.site);
    w.PutU32(static_cast<uint32_t>(site.pages.size()));
    for (const RawPage& page : site.pages) {
      w.PutStr(page.url);
      w.PutStr(page.html);
    }
  }
  return w.Take();
}

Result<ShardTask> DecodeShardTask(std::string_view payload) {
  WireReader r(payload);
  ShardTask task;
  CERES_RETURN_IF_ERROR(r.I32(&task.shard));
  CERES_RETURN_IF_ERROR(r.I32(&task.attempt));
  uint8_t fault = 0;
  CERES_RETURN_IF_ERROR(r.U8(&fault));
  if (fault >= kNumProcessFaultTypes) {
    return Status::Internal(
        StrCat("bad fault kind ", static_cast<int>(fault)));
  }
  task.fault = static_cast<ProcessFaultType>(fault);
  uint32_t num_sites = 0;
  CERES_RETURN_IF_ERROR(r.Count(&num_sites, kMinShardSiteBytes));
  task.sites.resize(num_sites);
  for (ShardSite& site : task.sites) {
    CERES_RETURN_IF_ERROR(r.Str(&site.site));
    uint32_t num_pages = 0;
    CERES_RETURN_IF_ERROR(r.Count(&num_pages, kMinRawPageBytes));
    site.pages.resize(num_pages);
    for (RawPage& page : site.pages) {
      CERES_RETURN_IF_ERROR(r.Str(&page.url));
      CERES_RETURN_IF_ERROR(r.Str(&page.html));
    }
  }
  if (!r.AtEnd()) return Status::Internal("trailing bytes in shard task");
  return task;
}

std::string EncodeShardResult(const ShardResult& result) {
  WireWriter w;
  w.PutI32(result.shard);
  w.PutU32(static_cast<uint32_t>(result.sites.size()));
  for (const SiteResult& site : result.sites) {
    w.PutStr(site.site);
    w.PutI64(site.pages);
    w.PutI64(site.quarantined_pages);
    w.PutI64(site.skipped_clusters);
    w.PutU32(static_cast<uint32_t>(site.extractions.size()));
    for (const Extraction& e : site.extractions) {
      w.PutI32(e.page);
      w.PutI32(e.node);
      w.PutI32(e.predicate);
      w.PutStr(e.subject);
      w.PutStr(e.object);
      w.PutF64(e.confidence);
    }
  }
  return w.Take();
}

Result<ShardResult> DecodeShardResult(std::string_view payload) {
  WireReader r(payload);
  ShardResult result;
  CERES_RETURN_IF_ERROR(r.I32(&result.shard));
  uint32_t num_sites = 0;
  CERES_RETURN_IF_ERROR(r.Count(&num_sites, kMinSiteResultBytes));
  result.sites.resize(num_sites);
  for (SiteResult& site : result.sites) {
    CERES_RETURN_IF_ERROR(r.Str(&site.site));
    CERES_RETURN_IF_ERROR(r.I64(&site.pages));
    CERES_RETURN_IF_ERROR(r.I64(&site.quarantined_pages));
    CERES_RETURN_IF_ERROR(r.I64(&site.skipped_clusters));
    uint32_t num_extractions = 0;
    CERES_RETURN_IF_ERROR(r.Count(&num_extractions, kMinExtractionBytes));
    site.extractions.resize(num_extractions);
    for (Extraction& e : site.extractions) {
      CERES_RETURN_IF_ERROR(r.I32(&e.page));
      CERES_RETURN_IF_ERROR(r.I32(&e.node));
      CERES_RETURN_IF_ERROR(r.I32(&e.predicate));
      CERES_RETURN_IF_ERROR(r.Str(&e.subject));
      CERES_RETURN_IF_ERROR(r.Str(&e.object));
      CERES_RETURN_IF_ERROR(r.F64(&e.confidence));
    }
  }
  if (!r.AtEnd()) return Status::Internal("trailing bytes in shard result");
  return result;
}

}  // namespace ceres::dist

#ifndef CERES_DIST_WIRE_H_
#define CERES_DIST_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "robustness/fault_injector.h"
#include "robustness/resilient_loader.h"
#include "util/status.h"

/// The coordinator/worker wire protocol (see DESIGN.md "Distributed batch
/// extraction").
///
/// Every message is one length-prefixed frame:
///
///   [magic u8 = 0xCE][type u8][payload_len u32le][payload bytes]
///   [checksum u64le = Fnv1a64(payload)]
///
/// The checksum turns a torn pipe write or a flipped byte into a typed
/// kInternal error instead of a silently wrong shard result; a clean EOF at
/// a frame boundary is kNotFound so callers can tell "peer finished" from
/// "peer died mid-frame". Payloads are encoded with WireWriter/WireReader —
/// fixed-width little-endian integers, doubles as IEEE-754 bit patterns
/// (byte-exact round trip, required for the byte-identical merge
/// guarantee), and u32-length-prefixed strings.
namespace ceres::dist {

/// Frame kinds of the coordinator/worker protocol.
enum class FrameType : uint8_t {
  /// Coordinator -> worker: a ShardTask payload.
  kAssignShard = 1,
  // 2 (heartbeat), 3 (progress) and 5 (shutdown: a worker stops on EOF
  // of its inbound pipe) are retired; decoders reject them like any byte
  // outside this enum.
  /// Worker -> coordinator: the finished ShardResult.
  kResult = 4,
  /// Worker -> coordinator: shard-scoped failure message (string payload);
  /// the coordinator retries the shard per its budget.
  kWorkerError = 6,
};

/// Human-readable frame-type name ("assign-shard", ...).
const char* FrameTypeName(FrameType type);

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kResult;
  std::string payload;
};

/// Frames over this size are rejected as corrupt before any allocation —
/// a garbled length prefix must not become a 4 GB allocation.
inline constexpr uint32_t kMaxFramePayloadBytes = 256u << 20;

/// Encodes a complete frame (header + payload + checksum) into bytes.
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Blocking frame write with EINTR/partial-write handling. EPIPE (peer
/// died) comes back as kInternal, not a process-killing SIGPIPE — callers
/// must have SIGPIPE ignored (the coordinator does this for the run).
Status WriteFrame(int fd, FrameType type, std::string_view payload);

/// Blocking frame read. kNotFound on clean EOF at a frame boundary;
/// kInternal on truncation mid-frame, bad magic, unknown frame type,
/// oversized length, or checksum mismatch.
Result<Frame> ReadFrame(int fd);

/// Incremental frame decoder for the coordinator's poll loop: bytes arrive
/// in arbitrary chunks from a non-blocking fd, complete frames come out.
class FrameBuffer {
 public:
  void Append(const char* data, size_t n) { buffer_.append(data, n); }

  /// Extracts the next complete frame. Ok = frame written to `out`;
  /// kNotFound = need more bytes (not an error); kInternal = the stream is
  /// corrupt (bad magic / unknown frame type / oversized length / checksum
  /// mismatch) and the connection must be abandoned.
  Status Next(Frame* out);

  /// Bytes currently buffered (a non-zero value at EOF means the peer died
  /// mid-frame).
  size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Payload encoding primitives.
// ---------------------------------------------------------------------------

/// Append-only binary encoder for frame payloads and checkpoints.
class WireWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// IEEE-754 bit pattern: decoding reproduces the exact double.
  void PutF64(double v);
  void PutStr(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over an encoded payload. Every accessor returns
/// kInternal("payload underrun") past the end, so a truncated or garbled
/// payload decodes into a typed error, never out-of-bounds reads.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status I32(int32_t* v);
  Status I64(int64_t* v);
  Status F64(double* v);
  Status Str(std::string* s);
  /// Reads a u32 element count and rejects it as underrun when `n`
  /// elements of at least `min_element_bytes` each cannot fit in the bytes
  /// left — so a lying count fails before the caller sizes a container.
  Status Count(uint32_t* n, size_t min_element_bytes);

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Protocol payloads.
// ---------------------------------------------------------------------------

/// One website of a shard: the unit the worker pipelines independently.
struct ShardSite {
  std::string site;
  std::vector<RawPage> pages;
};

/// A shard task carries no pipeline setting: every worker, like the
/// single-process reference, runs PipelineConfig{} over the resilient
/// loader's defaults, which is what makes the distributed merge
/// byte-identical to a single-process run. This empty type is never
/// encoded. It is kept only while perfbench's frame-codec estimate
/// (perfbench/src/dist_workload.cc) still copies `DistConfig::pipeline`
/// into `ShardTask::options`; both fields go with that line.
struct RetiredPipelineOptions {};

/// Coordinator -> worker: run these sites as shard `shard`. The
/// coordinator sends one site per task, its shard; the list is the wire
/// format's, which also carries multi-site tasks.
struct ShardTask {
  int32_t shard = 0;
  /// 1-based attempt number, echoed into diagnostics and used to key the
  /// process-fault plan.
  int32_t attempt = 1;
  /// The fault this worker must act out on this attempt (kNone normally).
  ProcessFaultType fault = ProcessFaultType::kNone;
  RetiredPipelineOptions options;
  std::vector<ShardSite> sites;
};

/// One site's pipeline outcome inside a shard result.
struct SiteResult {
  std::string site;
  std::vector<Extraction> extractions;
  int64_t pages = 0;
  int64_t quarantined_pages = 0;
  int64_t skipped_clusters = 0;
};

/// Worker -> coordinator: everything the merge needs from one shard. Also
/// the unit of checkpointing (checkpoint.h persists exactly this).
struct ShardResult {
  int32_t shard = 0;
  std::vector<SiteResult> sites;
};

std::string EncodeShardTask(const ShardTask& task);
Result<ShardTask> DecodeShardTask(std::string_view payload);

std::string EncodeShardResult(const ShardResult& result);
Result<ShardResult> DecodeShardResult(std::string_view payload);

}  // namespace ceres::dist

#endif  // CERES_DIST_WIRE_H_

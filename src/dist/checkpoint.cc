#include "dist/checkpoint.h"

#include <dirent.h>
#include <errno.h>
#include <stdio.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/string_util.h"

namespace ceres::dist {

namespace {

constexpr std::string_view kCheckpointPrefix = "shard_";
constexpr std::string_view kCheckpointSuffix = ".ckpt";

}  // namespace

std::string ShardCheckpointPath(std::string_view dir, int32_t shard) {
  return StrCat(dir, "/", kCheckpointPrefix, shard, kCheckpointSuffix);
}

Status SaveShardCheckpoint(std::string_view dir, const ShardResult& result,
                           int64_t* bytes_written) {
  const std::string path = ShardCheckpointPath(dir, result.shard);
  // Same-directory temp file so the rename is atomic on every POSIX
  // filesystem; the pid suffix keeps a concurrently resuming coordinator
  // from clobbering our in-flight write.
  const std::string tmp = StrCat(path, ".tmp.", ::getpid());
  const std::string bytes =
      EncodeFrame(FrameType::kResult, EncodeShardResult(result));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal(StrCat("cannot open ", tmp, " for writing"));
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      (void)::unlink(tmp.c_str());
      return Status::Internal(StrCat("short write to ", tmp));
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    (void)::unlink(tmp.c_str());
    return Status::Internal(StrCat("rename ", tmp, " -> ", path,
                                   " failed: ", std::strerror(err)));
  }
  if (bytes_written != nullptr) {
    *bytes_written = static_cast<int64_t>(bytes.size());
  }
  return Status::Ok();
}

Result<ShardResult> LoadShardCheckpoint(std::string_view dir, int32_t shard) {
  const std::string path = ShardCheckpointPath(dir, shard);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(StrCat("no checkpoint at ", path));
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string bytes = contents.str();

  FrameBuffer buffer;
  buffer.Append(bytes.data(), bytes.size());
  Frame frame;
  Status decoded = buffer.Next(&frame);
  if (decoded.code() == StatusCode::kNotFound) {
    // "Need more bytes" is fine on a live stream, but the whole file is in
    // hand here: an incomplete frame means the checkpoint was truncated.
    decoded = Status::Internal(
        StrCat("truncated after ", bytes.size(), " byte(s)"));
  }
  CERES_RETURN_IF_ERROR(PrependContext(std::move(decoded),
                                       StrCat("checkpoint ", path)));
  if (buffer.pending_bytes() != 0) {
    return Status::Internal(
        StrCat("checkpoint ", path, ": trailing bytes after frame"));
  }
  if (frame.type != FrameType::kResult) {
    return Status::Internal(StrCat("checkpoint ", path, ": unexpected ",
                                   FrameTypeName(frame.type), " frame"));
  }
  CERES_ASSIGN_OR_RETURN(ShardResult result, DecodeShardResult(frame.payload),
                         StrCat("checkpoint ", path));
  if (result.shard != shard) {
    return Status::Internal(StrCat("checkpoint ", path, ": holds shard ",
                                   result.shard, ", expected ", shard));
  }
  return result;
}

std::vector<int32_t> ListShardCheckpoints(std::string_view dir) {
  std::vector<int32_t> shards;
  DIR* d = ::opendir(std::string(dir).c_str());
  if (d == nullptr) return shards;
  while (struct dirent* entry = ::readdir(d)) {
    std::string_view name = entry->d_name;
    if (name.size() <= kCheckpointPrefix.size() + kCheckpointSuffix.size() ||
        name.substr(0, kCheckpointPrefix.size()) != kCheckpointPrefix ||
        name.substr(name.size() - kCheckpointSuffix.size()) !=
            kCheckpointSuffix) {
      continue;
    }
    const std::string_view digits = name.substr(
        kCheckpointPrefix.size(),
        name.size() - kCheckpointPrefix.size() - kCheckpointSuffix.size());
    // from_chars takes a leading '-', which no written id has; it reports
    // an id past int32_t as out of range instead of overflowing.
    int32_t shard = 0;
    const char* end = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), end, shard);
    if (digits.front() != '-' && ec == std::errc() && ptr == end) {
      shards.push_back(shard);
    }
  }
  ::closedir(d);
  std::sort(shards.begin(), shards.end());
  return shards;
}

Status CorruptShardCheckpoint(std::string_view dir, int32_t shard) {
  const std::string path = ShardCheckpointPath(dir, shard);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound(StrCat("no checkpoint at ", path));
    std::ostringstream contents;
    contents << in.rdbuf();
    bytes = contents.str();
  }
  if (bytes.empty()) return Status::Ok();  // already maximally corrupt
  // Flip bytes in the middle of the payload: the header stays plausible,
  // so only the checksum catches it — the realistic failure mode.
  const size_t mid = bytes.size() / 2;
  bytes[mid] = static_cast<char>(~bytes[mid]);
  if (mid + 1 < bytes.size()) {
    bytes[mid + 1] = static_cast<char>(bytes[mid + 1] ^ 0x5A);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal(StrCat("cannot rewrite ", path));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::Internal(StrCat("short rewrite of ", path));
  return Status::Ok();
}

}  // namespace ceres::dist

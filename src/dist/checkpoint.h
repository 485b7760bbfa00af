#ifndef CERES_DIST_CHECKPOINT_H_
#define CERES_DIST_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dist/wire.h"
#include "util/status.h"

/// Per-shard checkpoint files for the distributed coordinator.
///
/// A checkpoint is the shard's validated ShardResult wrapped in one wire
/// frame (`[0xCE][kResult][len u32le][payload][Fnv1a64 u64le]`) — the same
/// bytes the worker sent, so the on-disk format gets the frame layer's
/// corruption detection for free. Files are written atomically (temp file
/// + rename in the same directory), so a crash mid-write leaves either the
/// old file or no file, never a torn one. A checkpoint that fails any
/// validation (magic, length, checksum, decode, shard-id mismatch) is
/// treated as absent: the shard simply re-runs.
namespace ceres::dist {

/// The checkpoint file path for `shard` under `dir` (no I/O).
std::string ShardCheckpointPath(std::string_view dir, int32_t shard);

/// Atomically writes `result` as the checkpoint for its shard under `dir`.
/// On success `bytes_written` (optional) receives the file size, for the
/// checkpoint-bytes metric.
Status SaveShardCheckpoint(std::string_view dir, const ShardResult& result,
                           int64_t* bytes_written = nullptr);

/// Loads and validates the checkpoint for `shard` under `dir`. kNotFound
/// when no file exists; kInternal when the file exists but fails
/// validation — callers treat both as "re-run the shard", but the typed
/// split keeps corrupt-vs-missing visible in diagnostics.
Result<ShardResult> LoadShardCheckpoint(std::string_view dir, int32_t shard);

/// Shard ids with a checkpoint file present under `dir` (valid or not),
/// ascending; a name whose id is not a non-negative int32_t is skipped.
/// For tests and tools that inspect or clean up a checkpoint directory; the
/// resuming coordinator loads each of its shards' paths directly.
std::vector<int32_t> ListShardCheckpoints(std::string_view dir);

/// Flips bytes in the middle of the checkpoint file for `shard` — the
/// kCorruptCheckpoint process fault (simulated partial storage failure).
/// kNotFound when there is no checkpoint to corrupt.
Status CorruptShardCheckpoint(std::string_view dir, int32_t shard);

}  // namespace ceres::dist

#endif  // CERES_DIST_CHECKPOINT_H_

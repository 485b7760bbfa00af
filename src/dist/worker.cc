#include "dist/worker.h"

#include <errno.h>
#include <unistd.h>

#include <string>
#include <utility>

#include "core/pipeline.h"
#include "robustness/resilient_loader.h"
#include "util/string_util.h"

namespace ceres::dist {

namespace {

/// Writes the first `n` bytes of `bytes` to `fd`, best-effort — the
/// kTruncatedResult fault wants exactly a torn frame on the wire, so write
/// errors are deliberately swallowed (the process is about to _exit).
void WritePrefix(int fd, const std::string& bytes, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, bytes.data() + off, n - off);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(w);
  }
}

/// Acts out a crash or hang fault. Never returns for one of those: the
/// worker process ends (or blocks forever, for the watchdog to reap).
void MaybeActFault(ProcessFaultType fault) {
  switch (fault) {
    case ProcessFaultType::kWorkerCrash:
      _exit(3);
    case ProcessFaultType::kWorkerHang:
      // Silent forever: no frame, no exit. pause() returns only on a
      // signal; SIGKILL from the watchdog is the one way out.
      for (;;) ::pause();
    case ProcessFaultType::kNone:
    case ProcessFaultType::kTruncatedResult:   // acts at result-write time
    case ProcessFaultType::kCorruptCheckpoint:  // coordinator-side fault
      break;
  }
}

/// Runs the resilient pipeline over one site's raw pages and condenses the
/// outcome into a SiteResult. Worker and single-process reference alike
/// run the default PipelineConfig and load options: that is the
/// byte-identical guarantee.
Result<SiteResult> RunSiteForDist(const ShardSite& site,
                                  const KnowledgeBase& kb) {
  CERES_ASSIGN_OR_RETURN(PipelineResult pipeline,
                         RunPipelineResilient(site.pages, kb),
                         StrCat("site ", site.site));
  SiteResult result;
  result.site = site.site;
  result.extractions = std::move(pipeline.extractions);
  result.pages = static_cast<int64_t>(site.pages.size());
  result.quarantined_pages =
      static_cast<int64_t>(pipeline.diagnostics.quarantined_pages.size());
  result.skipped_clusters =
      static_cast<int64_t>(pipeline.diagnostics.skipped_clusters.size());
  return result;
}

}  // namespace

Result<ShardResult> RunShard(const ShardTask& task, const KnowledgeBase& kb) {
  ShardResult result;
  result.shard = task.shard;
  result.sites.reserve(task.sites.size());
  for (const ShardSite& site : task.sites) {
    CERES_ASSIGN_OR_RETURN(
        SiteResult site_result,
        RunSiteForDist(site, kb),
        StrCat("shard ", task.shard));
    result.sites.push_back(std::move(site_result));
  }
  return result;
}

Status RunWorkerLoop(int in_fd, int out_fd, const KnowledgeBase& kb) {
  for (;;) {
    Result<Frame> frame = ReadFrame(in_fd);
    if (!frame.ok()) {
      // Clean EOF is the stop signal: the coordinator closed the pipe at
      // shutdown, or it is gone.
      if (frame.status().code() == StatusCode::kNotFound) return Status::Ok();
      return PrependContext(frame.status(), "worker inbound");
    }
    if (frame->type != FrameType::kAssignShard) {
      return Status::Internal(StrCat("worker got unexpected ",
                                     FrameTypeName(frame->type), " frame"));
    }

    Result<ShardTask> task = DecodeShardTask(frame->payload);
    if (!task.ok()) {
      CERES_RETURN_IF_ERROR(WriteFrame(out_fd, FrameType::kWorkerError,
                                       task.status().ToString()));
      return PrependContext(task.status(), "decoding shard task");
    }

    MaybeActFault(task->fault);
    Result<ShardResult> result = RunShard(*task, kb);
    if (!result.ok()) {
      // The coordinator retries the shard per its budget.
      CERES_RETURN_IF_ERROR(WriteFrame(out_fd, FrameType::kWorkerError,
                                       result.status().ToString()));
      continue;
    }

    const std::string payload = EncodeShardResult(*result);
    if (task->fault == ProcessFaultType::kTruncatedResult) {
      // The interrupted-pipe-write fault: half the encoded frame, then
      // gone. The coordinator's FrameBuffer must flag the torn stream.
      const std::string encoded = EncodeFrame(FrameType::kResult, payload);
      WritePrefix(out_fd, encoded, encoded.size() / 2);
      _exit(4);
    }
    CERES_RETURN_IF_ERROR(WriteFrame(out_fd, FrameType::kResult, payload));
  }
}

}  // namespace ceres::dist

#ifndef CERES_DIST_WORKER_H_
#define CERES_DIST_WORKER_H_

#include "dist/wire.h"
#include "kb/knowledge_base.h"
#include "util/status.h"

/// The worker side of the distributed extraction protocol (see wire.h and
/// DESIGN.md "Distributed batch extraction").
///
/// A worker is a loop over its inbound pipe: decode an assign-shard frame,
/// run the shard through RunShard, send the shard result, repeat until
/// EOF, which is how the coordinator stops it. The coordinator's
/// single-process reference path calls the same RunShard, which is what
/// makes the distributed merge byte-identical to a single-process run.
namespace ceres::dist {

/// Runs a whole shard in-process: every site through the resilient
/// pipeline, in task order. Page indices in the extractions are site-local
/// (the site's raw page order); a site whose batch empties out under the
/// quarantine budget yields zero extractions, not an error. Ignores
/// `task.fault`: fault acting is the worker loop's job.
Result<ShardResult> RunShard(const ShardTask& task, const KnowledgeBase& kb);

/// The worker process main loop: reads frames from `in_fd`, writes frames
/// to `out_fd`, until a clean EOF. Acts out the process fault carried in
/// each task: a crash or hang right after decoding the task, before
/// RunShard; a truncated result frame at write time. In a forked child
/// these end the child, never the caller. Returns OK on that EOF; an error
/// Status means the inbound stream was corrupt or a write failed (the
/// worker should exit nonzero).
Status RunWorkerLoop(int in_fd, int out_fd, const KnowledgeBase& kb);

}  // namespace ceres::dist

#endif  // CERES_DIST_WORKER_H_

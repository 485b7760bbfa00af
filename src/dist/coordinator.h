#ifndef CERES_DIST_COORDINATOR_H_
#define CERES_DIST_COORDINATOR_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dist/wire.h"
#include "fusion/knowledge_fusion.h"
#include "kb/knowledge_base.h"
#include "kb/ontology.h"
#include "robustness/fault_injector.h"
#include "util/deadline.h"
#include "util/status.h"

/// The coordinator side of distributed batch extraction (see DESIGN.md
/// "Distributed batch extraction").
///
/// The coordinator runs each site of a corpus as one shard, whose id is the
/// site's corpus index, on a pool of forked worker processes over pipes
/// (wire.h protocol), and survives worker crashes, hangs, and torn frames:
/// a CPU-time watchdog reclaims hung workers, failed shards retry
/// under exponential backoff with a per-shard budget of three attempts,
/// exhausted shards land in quarantine, and per-shard checkpoints make a
/// restarted run skip completed work. Each forked child runs RunWorkerLoop
/// on a copy-on-write view of the caller's KB (a mapped KB image's pages
/// stay shared). The surviving shards merge through fusion::FuseExtractions
/// byte-identical to a single-process run over the same corpus.
namespace ceres::dist {

/// Configuration of RunDistributedExtraction.
struct DistConfig {
  /// Worker processes to keep alive while shards remain.
  int num_workers = 2;
  /// Watchdog: a worker with an assigned shard whose process CPU time grew
  /// by less than a sixteenth of this during this long is hung; it is
  /// killed and its shard retried. A worker that keeps computing is never
  /// reclaimed, however long its site takes: this bounds how long a hang
  /// holds a shard, not how long a site may run.
  std::chrono::milliseconds worker_liveness_timeout{2000};
  /// Directory for per-shard checkpoints (created if missing); empty
  /// disables checkpointing. A rerun with the same corpus and directory
  /// loads completed shards instead of re-running them; a checkpoint whose
  /// site is no longer at its shard's corpus index re-runs.
  std::string checkpoint_dir;
  /// Carries no setting; see RetiredPipelineOptions (wire.h).
  RetiredPipelineOptions pipeline;
  /// Planned process faults for chaos tests and bench/dist_recovery.
  /// Worker-acted faults travel inside the assign-shard frame; the
  /// checkpoint fault is acted by the coordinator itself.
  ProcessFaultPlan faults;
  /// Whole-run budget. On expiry the run degrades gracefully: workers are
  /// stopped, unfinished shards are recorded, completed shards still merge.
  Deadline deadline;
};

/// One failed shard attempt, in failure order.
struct ShardFailure {
  int32_t shard = -1;
  /// 1-based attempt number that failed.
  int32_t attempt = 0;
  Status reason;
};

/// A shard that exhausted its attempt budget.
struct QuarantinedShard {
  int32_t shard = -1;
  int32_t attempts = 0;
  /// The site lost with the shard.
  std::string site;
  Status last_error;
};

/// Everything a distributed run dropped, retried, or recovered — the
/// process-level analogue of PipelineDiagnostics.
struct DistDiagnostics {
  /// Every failed attempt, typed (worker death, watchdog kill, torn
  /// frame, worker-reported pipeline error), in failure order.
  std::vector<ShardFailure> failures;
  /// Shards that failed all three attempts, shard-id order.
  std::vector<QuarantinedShard> quarantined_shards;
  /// Shards still pending or running when the run deadline expired,
  /// shard-id order.
  std::vector<int32_t> unfinished_shards;
  /// Re-dispatches after a failed attempt (first attempts not counted).
  int64_t retries = 0;
  /// Worker processes lost to a crash, corrupt stream, or watchdog kill
  /// and replaced (a surviving idle worker may absorb the retried shard,
  /// so this counts deaths, not literal respawns).
  int64_t worker_restarts = 0;
  /// Shards that produced a merged result this run (checkpoint loads
  /// included).
  int64_t shards_completed = 0;
  /// Completed shards satisfied from a valid checkpoint instead of work,
  /// shard-id order. They ran no attempt this run.
  std::vector<int32_t> shards_from_checkpoint;
  /// Bytes of checkpoint data written this run.
  int64_t checkpoint_bytes = 0;
  /// True when the run deadline expired before all shards finished.
  bool deadline_expired = false;

  /// Multi-line human-readable rendering for logs and CLI tools.
  std::string Summary() const;
};

/// Result of a distributed (or single-process reference) run.
struct DistResult {
  /// Completed shards, shard-id (= corpus) order.
  std::vector<ShardResult> shards;
  /// Per-site extractions of completed shards, corpus order — the fusion
  /// input, exposed for byte-identical comparison in tests.
  std::vector<fusion::SiteExtractions> site_extractions;
  /// Cross-site fusion over `site_extractions`.
  fusion::FusionResult fused;
  DistDiagnostics diagnostics;
};

/// A stable bucket for a site: FNV-1a hash of the site name modulo
/// `num_buckets`, never std::hash, so it agrees across processes and runs.
/// For callers that group sites into multi-site tasks; the coordinator
/// does not use it (its shard id is the site's corpus index).
int32_t ShardOfSite(std::string_view site, int32_t num_buckets);

/// Runs distributed extraction over `corpus` (one entry per site; pages
/// are raw HTML, parsed worker-side by the resilient loader).
///
/// Degrades, not fails: worker faults become retries, quarantined shards,
/// or unfinished shards in the diagnostics, and the merge covers whatever
/// completed. Returns an error Status only for malformed configuration or
/// an unusable checkpoint directory.
Result<DistResult> RunDistributedExtraction(
    const std::vector<ShardSite>& corpus, const KnowledgeBase& kb,
    const Ontology& ontology, const DistConfig& config = {});

/// The single-process reference: the same shards (one per site), shard
/// runner, and merge, with no processes, faults, or checkpoints. A
/// fault-free distributed run must match this byte for byte
/// (site_extractions and fused alike); chaos tests compare against it after
/// recovery. No field of `config` changes the reference; callers may pass
/// the one they give RunDistributedExtraction.
Result<DistResult> RunSingleProcess(const std::vector<ShardSite>& corpus,
                                    const KnowledgeBase& kb,
                                    const Ontology& ontology,
                                    const DistConfig& config = {});

}  // namespace ceres::dist

#endif  // CERES_DIST_COORDINATOR_H_

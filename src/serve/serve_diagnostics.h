#ifndef CERES_SERVE_SERVE_DIAGNOSTICS_H_
#define CERES_SERVE_SERVE_DIAGNOSTICS_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace ceres::serve {

/// Why a request left the service without full extraction output. The
/// online-path analogue of core/pipeline.h's typed ClusterSkip reasons:
/// load shedding and partial failures are reported, never silent.
enum class ShedCause {
  kNone = 0,
  /// Admission control: the global pending queue was at capacity.
  kQueueFull,
  /// The request's deadline was already expired when it was submitted.
  kDeadlineBeforeAdmission,
  /// The deadline expired while the request sat in a site queue.
  kTimedOutInQueue,
  /// The site's model could not be loaded (missing site, corrupt or
  /// truncated model file, registry failure).
  kModelLoadFailed,
  /// The request's HTML did not parse under the service's parse budget.
  kParseFailed,
  /// The service was stopped while the request was still queued.
  kShutdown,
};
inline constexpr int kNumShedCauses = 7;

/// Human-readable cause name ("queue_full", ...).
const char* ShedCauseName(ShedCause cause);

/// Per-request timing and outcome record, returned with every ServeResult.
/// Mirrors PipelineDiagnostics at request granularity: where the time went
/// (queue, parse, inference) and, for shed requests, the typed cause.
struct ServeDiagnostics {
  ShedCause shed_cause = ShedCause::kNone;
  /// Time from admission to being picked up by a worker batch.
  std::chrono::microseconds queue_wait{0};
  /// HTML parse time of this request's page.
  std::chrono::microseconds parse_time{0};
  /// Model application time of the batch this request rode in (shared
  /// across the batch; per-request attribution below node granularity is
  /// not meaningful for a batched matrix pass).
  std::chrono::microseconds inference_time{0};
  /// Requests in the batch this one was served with.
  int batch_size = 0;
  /// True when the site model came from the warm cache; false when this
  /// batch paid a cold load.
  bool model_cache_hit = false;
  /// True when the result was served from the near-duplicate page cache —
  /// the request skipped parse and inference entirely; the timing fields
  /// are those of the original (cached) extraction.
  bool near_dup_hit = false;
  /// Version of the site model applied; -1 when no model was reached.
  int64_t model_version = -1;
};

/// Service-wide counters, aggregated across all requests since Start().
struct ServiceStats {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t extractions = 0;
  int64_t batches = 0;
  /// Sum of batch sizes, for mean-batch-size reporting.
  int64_t batched_requests = 0;
  /// Shed totals indexed by ShedCause (kNone slot unused).
  int64_t shed[kNumShedCauses] = {};

  int64_t total_shed() const;
};

}  // namespace ceres::serve

#endif  // CERES_SERVE_SERVE_DIAGNOSTICS_H_

#ifndef CERES_ROBUSTNESS_FAULT_INJECTOR_H_
#define CERES_ROBUSTNESS_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "robustness/resilient_loader.h"
#include "util/random.h"

namespace ceres {

/// The fault kinds the chaos harness can inject into a crawl. The first
/// five corrupt a page's HTML in place; the last two corrupt the crawl's
/// shape (a page missing, a page fetched twice).
enum class FaultType {
  kNone = 0,
  /// Cut the byte stream off at a random point (interrupted transfer).
  kTruncate,
  /// Overwrite a fraction of bytes with random values (encoding damage).
  kGarble,
  /// Delete whole tags, unbalancing the markup (broken templating).
  kTagDelete,
  /// Break character entities mid-sequence (&am, &#xZZ;, unterminated).
  kEntityBreak,
  /// Append a long run of sibling elements so the element count blows any
  /// reasonable parse budget (scraper-trap / pathological page). Only
  /// triggers quarantine when HtmlParseOptions::max_nodes is lowered below
  /// `node_bomb_nodes`.
  kNodeBomb,
  /// Remove the page from the crawl.
  kDrop,
  /// Emit the page twice.
  kDuplicate,
};
inline constexpr int kNumFaultTypes = 8;

/// Human-readable fault name ("truncate", ...).
const char* FaultTypeName(FaultType fault);

/// Configuration of InjectFaults. All randomness flows from `seed`, forked
/// per page, so a given (crawl, config) pair always corrupts identically.
struct FaultInjectionConfig {
  uint64_t seed = 1;

  /// Probability that a page receives an in-place HTML fault.
  double page_fault_rate = 0.0;
  /// Relative weights of the in-place fault kinds, for pages that are hit.
  /// A zero weight disables the kind.
  double truncate_weight = 1.0;
  double garble_weight = 1.0;
  double tag_delete_weight = 1.0;
  double entity_break_weight = 1.0;
  double node_bomb_weight = 0.0;

  /// Probability that a page is dropped from the crawl entirely, and that
  /// a (kept) page appears twice. Decided independently of the in-place
  /// fault; a duplicated page duplicates its corrupted bytes.
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;

  /// Per-kind knobs.
  double truncate_keep_min = 0.05;  // fraction of bytes kept, lower bound
  double truncate_keep_max = 0.8;   // ... upper bound
  double garble_byte_fraction = 0.02;
  double tag_delete_fraction = 0.15;
  int node_bomb_nodes = 1 << 16;
};

/// One fault applied to one source page.
struct InjectedFault {
  PageIndex source_page = 0;
  FaultType fault = FaultType::kNone;
};

/// Exactly which faults InjectFaults applied, for ground-truth accounting
/// in chaos tests.
struct FaultReport {
  std::vector<InjectedFault> faults;
  int64_t count(FaultType fault) const;
  /// Source pages hit by `fault`, ascending.
  std::vector<PageIndex> PagesWith(FaultType fault) const;
};

/// Applies one in-place fault to an HTML string. kNone / kDrop / kDuplicate
/// return the input unchanged.
std::string CorruptHtml(std::string_view html, FaultType fault,
                        const FaultInjectionConfig& config, Rng* rng);

/// Deterministically corrupts a crawl according to `config`. Crawl order is
/// preserved; dropped pages are omitted, duplicated pages appear twice in a
/// row. Each applied fault is recorded in `report` (optional) against the
/// page's index in the input vector.
std::vector<RawPage> InjectFaults(const std::vector<RawPage>& pages,
                                  const FaultInjectionConfig& config,
                                  FaultReport* report = nullptr);

/// Process-level fault kinds for the distributed coordinator/worker
/// harness (src/dist/). The first three are acted out by the worker
/// process itself; the last corrupts the coordinator's on-disk
/// checkpoint after it is written, so restart-time validation is testable.
enum class ProcessFaultType {
  kNone = 0,
  /// Worker _exit()s abruptly right after decoding its shard task.
  kWorkerCrash,
  /// Worker blocks forever right after decoding its shard task, sending no
  /// frame and using no CPU; only the coordinator's watchdog (CPU-time
  /// liveness) can reclaim the shard.
  kWorkerHang,
  /// Worker computes the full result but writes only a prefix of the
  /// result frame before exiting (interrupted pipe write).
  kTruncatedResult,
  /// Coordinator-side: the shard's checkpoint file is corrupted in place
  /// after the atomic write-rename, as if by partial storage failure.
  kCorruptCheckpoint,
};
inline constexpr int kNumProcessFaultTypes = 5;

/// Human-readable process-fault name ("worker-crash", ...).
const char* ProcessFaultTypeName(ProcessFaultType fault);

/// One planned process fault: `fault` fires whenever `shard` runs with an
/// attempt number <= `attempts` (1-based), then stops — so a shard crashed
/// on its first attempt succeeds on retry, and a shard with
/// `attempts >= 3` (the coordinator's per-shard attempt budget) exhausts
/// its budget and lands in quarantine. Deterministic by construction: no
/// randomness at fire time.
struct ProcessFault {
  int shard = 0;
  ProcessFaultType fault = ProcessFaultType::kNone;
  int attempts = 1;
};

/// A deterministic schedule of process-level faults, keyed by shard id and
/// attempt number. The plan travels from the coordinator to workers inside
/// the assign-shard frame, so a forked worker misbehaves identically across
/// runs.
struct ProcessFaultPlan {
  std::vector<ProcessFault> faults;

  /// The fault to act out for this (shard, attempt), kNone when the shard
  /// has no planned fault or its fault budget is spent. `attempt` is
  /// 1-based.
  ProcessFaultType FaultFor(int shard, int attempt) const;
  /// Shards planned to receive `fault` (on any attempt), ascending.
  std::vector<int> ShardsWith(ProcessFaultType fault) const;
};

/// Builds a plan that applies `fault` to ceil(fault_fraction * num_shards)
/// shards, chosen by seeded shuffle, on their first `attempts` attempt(s).
/// The workhorse of the dist chaos tests and bench/dist_recovery.
ProcessFaultPlan MakeProcessFaultPlan(int num_shards, double fault_fraction,
                                      uint64_t seed,
                                      ProcessFaultType fault =
                                          ProcessFaultType::kWorkerCrash,
                                      int attempts = 1);

}  // namespace ceres

#endif  // CERES_ROBUSTNESS_FAULT_INJECTOR_H_

#include "dist/coordinator.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "dist/checkpoint.h"
#include "dist/worker.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace ceres::dist {

namespace {

/// A shard is quarantined after this many failed attempts.
constexpr int kMaxAttemptsPerShard = 3;
/// Exponential retry backoff: attempt n re-dispatches no sooner than
/// base * 2^(n-1) after the failure, capped at kRetryBackoffMax.
constexpr std::chrono::milliseconds kRetryBackoffBase{10};
constexpr std::chrono::milliseconds kRetryBackoffMax{500};
/// How long stopped workers get to exit before they are killed.
constexpr std::chrono::milliseconds kShutdownGrace{500};
/// A busy worker makes progress when its CPU time grows by at least
/// 1/kProgressDivisor of worker_liveness_timeout. Less is not work on the
/// shard: a hung worker's process clock still creeps while a runtime thread
/// of its own wakes (ThreadSanitizer's, every 100 ms, ~1 ms of CPU per
/// second).
constexpr int kProgressDivisor = 16;

/// Ignores SIGPIPE for the scope of a run (a dead worker's pipe must
/// surface as an EPIPE Status, not kill the coordinator) and restores the
/// previous disposition after. Forked workers inherit the ignore, which
/// their frame writes rely on too.
class SigPipeGuard {
 public:
  SigPipeGuard() {
    struct sigaction ignore;
    std::memset(&ignore, 0, sizeof(ignore));
    ignore.sa_handler = SIG_IGN;
    saved_ok_ = ::sigaction(SIGPIPE, &ignore, &saved_) == 0;
  }
  ~SigPipeGuard() {
    if (saved_ok_) (void)::sigaction(SIGPIPE, &saved_, nullptr);
  }

 private:
  struct sigaction saved_ {};
  bool saved_ok_ = false;
};

/// The merge both paths share: lays the per-site extractions of
/// `out->shards` out in shard-id (= corpus) order and fuses them on a
/// default FusionConfig.
void MergeAndFuse(const Ontology& ontology, DistResult* out) {
  out->site_extractions.reserve(out->shards.size());
  for (const ShardResult& shard : out->shards) {
    for (const SiteResult& site : shard.sites) {
      out->site_extractions.push_back(
          fusion::SiteExtractions{site.site, site.extractions});
    }
  }
  out->fused = fusion::FuseExtractions(out->site_extractions, ontology);
}

enum class SlotState { kPending, kRunning, kDone, kQuarantined };

struct ShardSlot {
  /// The shard id, which is also the corpus index of its one site.
  int32_t id = 0;
  SlotState state = SlotState::kPending;
  /// Attempts started (1-based once dispatched).
  int attempts = 0;
  /// Earliest re-dispatch time while backing off.
  obs::TimePoint eligible_at{};
  bool has_backoff = false;
  Status last_error;
  ShardResult result;
};

struct WorkerProc {
  pid_t pid = -1;
  int to_fd = -1;
  int from_fd = -1;
  FrameBuffer inbound;
  /// Currently assigned shard, -1 when idle.
  int32_t shard = -1;
  /// The worker process's CPU-time clock (clock_getcpuclockid).
  clockid_t cpu_clock{};
  bool has_cpu_clock = false;
  /// When the worker last made progress on its shard (its dispatch, or the
  /// last watchdog pass that saw its CPU time grow enough), and the CPU
  /// time it had used then.
  obs::TimePoint last_progress{};
  std::chrono::nanoseconds cpu_at_progress{0};
  bool alive = false;
};

/// CPU time `worker` has used so far; zero when its clock cannot be read
/// (then the watchdog times from the dispatch alone).
std::chrono::nanoseconds CpuTimeOf(const WorkerProc& worker) {
  timespec ts{};
  if (!worker.has_cpu_clock || ::clock_gettime(worker.cpu_clock, &ts) != 0) {
    return std::chrono::nanoseconds(0);
  }
  return std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec);
}

class Coordinator {
 public:
  Coordinator(const std::vector<ShardSite>& corpus, const KnowledgeBase& kb,
              const Ontology& ontology, const DistConfig& config)
      : corpus_(corpus), kb_(kb), ontology_(ontology), config_(config) {}

  Result<DistResult> Run() {
    CERES_RETURN_IF_ERROR(Validate());
    BuildShards();
    ResumeFromCheckpoints();
    if (AllSettled()) return Merge();
    SigPipeGuard guard;
    Status loop = EventLoop();
    Shutdown();
    if (!loop.ok()) return loop;
    return Merge();
  }

 private:
  // -- setup ---------------------------------------------------------------

  Status Validate() {
    if (config_.num_workers < 1) {
      return Status::InvalidArgument("num_workers must be >= 1");
    }
    std::unordered_set<std::string_view> names;
    for (const ShardSite& site : corpus_) {
      if (!names.insert(site.site).second) {
        return Status::InvalidArgument(
            StrCat("duplicate site in corpus: ", site.site));
      }
    }
    if (!config_.checkpoint_dir.empty()) {
      if (::mkdir(config_.checkpoint_dir.c_str(), 0755) != 0 &&
          errno != EEXIST) {
        return Status::Internal(StrCat("cannot create checkpoint dir ",
                                       config_.checkpoint_dir, ": ",
                                       std::strerror(errno)));
      }
    }
    return Status::Ok();
  }

  void BuildShards() {
    slots_.resize(corpus_.size());
    for (size_t s = 0; s < slots_.size(); ++s) {
      slots_[s].id = static_cast<int32_t>(s);
    }
  }

  const ShardSite& SiteOf(const ShardSlot& slot) const {
    return corpus_[static_cast<size_t>(slot.id)];
  }

  void ResumeFromCheckpoints() {
    if (config_.checkpoint_dir.empty()) return;
    for (ShardSlot& slot : slots_) {
      if (slot.state != SlotState::kPending) continue;
      Result<ShardResult> loaded =
          LoadShardCheckpoint(config_.checkpoint_dir, slot.id);
      if (!loaded.ok()) {
        // Missing = first run of this shard; corrupt = treated as absent
        // but surfaced as an attempt-0 failure so resume tests can see
        // the validation fire.
        if (loaded.status().code() != StatusCode::kNotFound) {
          diagnostics_.failures.push_back(
              ShardFailure{slot.id, 0, loaded.status()});
        }
        continue;
      }
      if (!CheckpointMatchesShard(*loaded, slot)) {
        diagnostics_.failures.push_back(ShardFailure{
            slot.id, 0,
            Status::Internal(StrCat("checkpoint for shard ", slot.id,
                                    " does not hold its site ",
                                    SiteOf(slot).site, "; re-running"))});
        continue;
      }
      slot.result = std::move(loaded.value());
      slot.state = SlotState::kDone;
      ++diagnostics_.shards_completed;
      diagnostics_.shards_from_checkpoint.push_back(slot.id);
    }
  }

  bool CheckpointMatchesShard(const ShardResult& result,
                              const ShardSlot& slot) const {
    const ShardSite& expected = SiteOf(slot);
    return result.sites.size() == 1 &&
           result.sites[0].site == expected.site &&
           result.sites[0].pages ==
               static_cast<int64_t>(expected.pages.size());
  }

  // -- worker lifecycle ----------------------------------------------------

  Status Spawn() {
    int to_pipe[2] = {-1, -1};
    int from_pipe[2] = {-1, -1};
    if (::pipe(to_pipe) != 0) {
      return Status::ResourceExhausted(
          StrCat("pipe failed: ", std::strerror(errno)));
    }
    if (::pipe(from_pipe) != 0) {
      const int err = errno;
      (void)::close(to_pipe[0]);
      (void)::close(to_pipe[1]);
      return Status::ResourceExhausted(
          StrCat("pipe failed: ", std::strerror(err)));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      (void)::close(to_pipe[0]);
      (void)::close(to_pipe[1]);
      (void)::close(from_pipe[0]);
      (void)::close(from_pipe[1]);
      return Status::ResourceExhausted(
          StrCat("fork failed: ", std::strerror(err)));
    }
    if (pid == 0) {
      // Child. Close the coordinator ends and every other worker's pipes —
      // an inherited write end would keep a sibling's pipe from ever
      // reporting EOF to the coordinator.
      (void)::close(to_pipe[1]);
      (void)::close(from_pipe[0]);
      for (const WorkerProc& other : workers_) {
        if (other.to_fd >= 0) (void)::close(other.to_fd);
        if (other.from_fd >= 0) (void)::close(other.from_fd);
      }
      Status status = RunWorkerLoop(to_pipe[0], from_pipe[1], kb_);
      _exit(status.ok() ? 0 : 1);
    }
    // Parent.
    (void)::close(to_pipe[0]);
    (void)::close(from_pipe[1]);
    const int flags = ::fcntl(from_pipe[0], F_GETFL, 0);
    (void)::fcntl(from_pipe[0], F_SETFL, flags | O_NONBLOCK);
    WorkerProc worker;
    worker.pid = pid;
    worker.to_fd = to_pipe[1];
    worker.from_fd = from_pipe[0];
    worker.has_cpu_clock = ::clock_getcpuclockid(pid, &worker.cpu_clock) == 0;
    worker.alive = true;
    workers_.push_back(std::move(worker));
    return Status::Ok();
  }

  /// Kills and reaps one worker, failing its assigned shard. Only
  /// unexpected deaths come through here (EOF, corrupt stream, watchdog,
  /// dispatch failure — never shutdown), so this is the exact place to
  /// count lost-and-replaced workers: a surviving idle worker may absorb
  /// the retry without a respawn, which would undercount if restarts were
  /// tallied at Spawn time.
  void RetireWorker(WorkerProc* worker, const Status& reason) {
    if (!worker->alive) return;
    ++diagnostics_.worker_restarts;
    (void)::kill(worker->pid, SIGKILL);
    const int32_t shard = worker->shard;
    Reap(worker);
    if (shard >= 0) FailShard(shard, reason);
  }

  /// Waits for a worker that is exiting (killed, or its outbound pipe at
  /// EOF) and releases its pipes.
  static void Reap(WorkerProc* worker) {
    int wait_status = 0;
    (void)::waitpid(worker->pid, &wait_status, 0);
    if (worker->to_fd >= 0) (void)::close(worker->to_fd);
    (void)::close(worker->from_fd);
    worker->to_fd = -1;
    worker->from_fd = -1;
    worker->alive = false;
    worker->shard = -1;
  }

  int LiveWorkers() const {
    int live = 0;
    for (const WorkerProc& worker : workers_) {
      if (worker.alive) ++live;
    }
    return live;
  }

  int UnsettledShards() const {
    int unsettled = 0;
    for (const ShardSlot& slot : slots_) {
      if (slot.state == SlotState::kPending ||
          slot.state == SlotState::kRunning) {
        ++unsettled;
      }
    }
    return unsettled;
  }

  bool AllSettled() const { return UnsettledShards() == 0; }

  // -- shard bookkeeping ---------------------------------------------------

  void FailShard(int32_t shard, const Status& reason) {
    ShardSlot& slot = slots_[static_cast<size_t>(shard)];
    diagnostics_.failures.push_back(
        ShardFailure{shard, static_cast<int32_t>(slot.attempts), reason});
    slot.last_error = reason;
    if (slot.attempts >= kMaxAttemptsPerShard) {
      slot.state = SlotState::kQuarantined;
      return;
    }
    slot.state = SlotState::kPending;
    auto backoff = kRetryBackoffBase;
    for (int i = 1; i < slot.attempts && backoff < kRetryBackoffMax; ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, kRetryBackoffMax);
    slot.eligible_at = obs::MonotonicNow() + backoff;
    slot.has_backoff = true;
  }

  void CompleteShard(int32_t shard, ShardResult result) {
    ShardSlot& slot = slots_[static_cast<size_t>(shard)];
    slot.result = std::move(result);
    slot.state = SlotState::kDone;
    ++diagnostics_.shards_completed;
    if (config_.checkpoint_dir.empty()) return;
    int64_t bytes = 0;
    Status saved =
        SaveShardCheckpoint(config_.checkpoint_dir, slot.result, &bytes);
    if (!saved.ok()) {
      // A failed checkpoint write degrades resumability, not this run.
      diagnostics_.failures.push_back(ShardFailure{
          shard, 0, PrependContext(std::move(saved), "checkpoint write")});
      return;
    }
    diagnostics_.checkpoint_bytes += bytes;
    if (config_.faults.FaultFor(shard, slot.attempts) ==
        ProcessFaultType::kCorruptCheckpoint) {
      (void)CorruptShardCheckpoint(config_.checkpoint_dir, shard);
    }
  }

  // -- dispatch ------------------------------------------------------------

  ShardSlot* NextEligibleShard(obs::TimePoint now) {
    for (ShardSlot& slot : slots_) {
      if (slot.state != SlotState::kPending) continue;
      if (slot.has_backoff && now < slot.eligible_at) continue;
      return &slot;
    }
    return nullptr;
  }

  void Dispatch(WorkerProc* worker, ShardSlot* slot) {
    const obs::TimePoint now = obs::MonotonicNow();
    ++slot->attempts;
    if (slot->attempts > 1) {
      ++diagnostics_.retries;
    }
    ShardTask task;
    task.shard = slot->id;
    task.attempt = slot->attempts;
    const ProcessFaultType fault =
        config_.faults.FaultFor(slot->id, slot->attempts);
    // The checkpoint fault is the coordinator's to act (CompleteShard);
    // everything else is carried to the worker.
    task.fault = fault == ProcessFaultType::kCorruptCheckpoint
                     ? ProcessFaultType::kNone
                     : fault;
    task.sites.push_back(SiteOf(*slot));
    slot->state = SlotState::kRunning;
    slot->has_backoff = false;
    worker->shard = slot->id;
    worker->last_progress = now;
    worker->cpu_at_progress = CpuTimeOf(*worker);
    // Blocking write is safe: the worker is idle, parked in ReadFrame, so
    // it drains the pipe as fast as we fill it.
    Status written = WriteFrame(worker->to_fd, FrameType::kAssignShard,
                                EncodeShardTask(task));
    if (!written.ok()) {
      RetireWorker(worker, PrependContext(std::move(written),
                                          "worker died at dispatch"));
    }
  }

  // -- the event loop ------------------------------------------------------

  Status EventLoop() {
    while (!AllSettled()) {
      if (config_.deadline.expired()) {
        diagnostics_.deadline_expired = true;
        return Status::Ok();
      }
      // Keep the pool at strength and hand work to every idle worker.
      const int target = std::min(config_.num_workers, UnsettledShards());
      while (LiveWorkers() < target) {
        CERES_RETURN_IF_ERROR(Spawn());
      }
      const obs::TimePoint now = obs::MonotonicNow();
      for (WorkerProc& worker : workers_) {
        if (!worker.alive || worker.shard >= 0) continue;
        ShardSlot* slot = NextEligibleShard(now);
        if (slot == nullptr) break;
        Dispatch(&worker, slot);
      }

      PollWorkers();
      Watchdog();
    }
    return Status::Ok();
  }

  /// Waits up to `timeout_ms` on the live workers' outbound pipes and
  /// hands each one that has news to `on_ready`. False when none is live.
  template <typename OnReady>
  bool PollLive(int timeout_ms, OnReady on_ready) {
    std::vector<pollfd> fds;
    std::vector<WorkerProc*> polled;
    for (WorkerProc& worker : workers_) {
      if (!worker.alive) continue;
      fds.push_back(pollfd{worker.from_fd, POLLIN, 0});
      polled.push_back(&worker);
    }
    if (fds.empty()) return false;
    if (::poll(fds.data(), fds.size(), timeout_ms) > 0) {
      for (size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents != 0) on_ready(polled[i]);
      }
    }
    return true;
  }

  void PollWorkers() {
    // Short slices keep the watchdog, backoff gates, and run deadline
    // responsive without any sleeping in the loop.
    (void)PollLive(20, [this](WorkerProc* worker) { DrainWorker(worker); });
  }

  /// Appends what a worker's non-blocking outbound pipe holds to its
  /// inbound buffer; true once the pipe is at EOF (or unreadable).
  static bool ReadInbound(WorkerProc* worker) {
    char buffer[65536];
    for (;;) {
      const ssize_t r = ::read(worker->from_fd, buffer, sizeof(buffer));
      if (r > 0) {
        worker->inbound.Append(buffer, static_cast<size_t>(r));
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      // A read error is treated like a dead pipe.
      return r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
    }
  }

  void DrainWorker(WorkerProc* worker) {
    const bool saw_eof = ReadInbound(worker);
    // Deliver complete frames before acting on EOF — a worker may write
    // its result and exit in the same scheduling quantum.
    for (;;) {
      Frame frame;
      Status next = worker->inbound.Next(&frame);
      if (next.code() == StatusCode::kNotFound) break;
      if (!next.ok()) {
        RetireWorker(worker,
                     PrependContext(std::move(next), "worker stream"));
        return;
      }
      HandleFrame(worker, std::move(frame));
      if (!worker->alive) return;
    }
    if (saw_eof) {
      Status reason = worker->inbound.pending_bytes() > 0
                          ? Status::Internal(StrCat(
                                "worker exited mid-frame with ",
                                worker->inbound.pending_bytes(),
                                " bytes pending (truncated result)"))
                          : Status::Internal("worker exited unexpectedly");
      RetireWorker(worker, reason);
    }
  }

  void HandleFrame(WorkerProc* worker, Frame frame) {
    switch (frame.type) {
      case FrameType::kWorkerError: {
        if (worker->shard >= 0) {
          const int32_t shard = worker->shard;
          worker->shard = -1;  // the worker stays alive and idle
          FailShard(shard, Status::Internal(frame.payload));
        }
        return;
      }
      case FrameType::kResult: {
        Result<ShardResult> result = DecodeShardResult(frame.payload);
        if (!result.ok()) {
          RetireWorker(worker, PrependContext(result.status(),
                                              "decoding shard result"));
          return;
        }
        if (result->shard != worker->shard) {
          RetireWorker(worker,
                       Status::Internal(StrCat(
                           "worker answered shard ", result->shard,
                           " while assigned ", worker->shard)));
          return;
        }
        const int32_t shard = worker->shard;
        worker->shard = -1;
        CompleteShard(shard, std::move(result.value()));
        return;
      }
      case FrameType::kAssignShard:
        RetireWorker(worker, Status::Internal(
                                 StrCat("unexpected ",
                                        FrameTypeName(frame.type),
                                        " frame from worker")));
        return;
    }
  }

  /// Reclaims every worker hung on its shard. A worker sends one frame
  /// per shard, its result, so silence says nothing; CPU time does. A
  /// worker computing a site keeps using CPU, however long the site takes.
  /// A hung one (blocked, stopped, or parked in pause()) uses next to none,
  /// and is killed once a whole worker_liveness_timeout passes without
  /// progress.
  void Watchdog() {
    const obs::TimePoint now = obs::MonotonicNow();
    const std::chrono::nanoseconds progress =
        config_.worker_liveness_timeout / kProgressDivisor;
    for (WorkerProc& worker : workers_) {
      if (!worker.alive || worker.shard < 0) continue;
      const std::chrono::nanoseconds cpu = CpuTimeOf(worker);
      if (cpu - worker.cpu_at_progress >= progress) {
        worker.cpu_at_progress = cpu;
        worker.last_progress = now;
        continue;
      }
      if (now - worker.last_progress < config_.worker_liveness_timeout) {
        continue;
      }
      using std::chrono::duration_cast;
      using std::chrono::milliseconds;
      RetireWorker(
          &worker,
          Status::DeadlineExceeded(StrCat(
              "watchdog: worker ", worker.pid, " used ",
              duration_cast<milliseconds>(cpu - worker.cpu_at_progress)
                  .count(),
              " ms of CPU in ",
              duration_cast<milliseconds>(now - worker.last_progress)
                  .count(),
              " ms on shard ", worker.shard)));
    }
  }

  /// Stops the pool. Closing a worker's inbound pipe is the stop signal:
  /// RunWorkerLoop returns on that clean EOF. A worker's outbound pipe
  /// reports EOF once its process is exiting, and the worker is reaped right
  /// then. Late bytes are read (a worker blocked writing a result must get
  /// to its EOF) but never decoded. Whatever is alive when the grace ends —
  /// a worker hung on a shard at the run deadline — is killed and reaped.
  void Shutdown() {
    for (WorkerProc& worker : workers_) {
      if (!worker.alive) continue;
      (void)::close(worker.to_fd);
      worker.to_fd = -1;
    }
    const obs::TimePoint grace_end = obs::MonotonicNow() + kShutdownGrace;
    for (;;) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          grace_end - obs::MonotonicNow());
      if (left.count() <= 0) break;
      const bool any_live =
          PollLive(static_cast<int>(left.count()), [](WorkerProc* worker) {
            if (ReadInbound(worker)) Reap(worker);
          });
      if (!any_live) break;
    }
    for (WorkerProc& worker : workers_) {
      if (!worker.alive) continue;
      (void)::kill(worker.pid, SIGKILL);
      Reap(&worker);
    }
  }

  // -- merge ---------------------------------------------------------------

  DistResult Merge() {
    DistResult out;
    for (ShardSlot& slot : slots_) {
      switch (slot.state) {
        case SlotState::kDone:
          out.shards.push_back(std::move(slot.result));
          break;
        case SlotState::kQuarantined: {
          QuarantinedShard q;
          q.shard = slot.id;
          q.attempts = static_cast<int32_t>(slot.attempts);
          q.site = SiteOf(slot).site;
          q.last_error = slot.last_error;
          diagnostics_.quarantined_shards.push_back(std::move(q));
          break;
        }
        case SlotState::kPending:
        case SlotState::kRunning:
          diagnostics_.unfinished_shards.push_back(slot.id);
          break;
      }
    }
    MergeAndFuse(ontology_, &out);
    out.diagnostics = std::move(diagnostics_);
    return out;
  }

  const std::vector<ShardSite>& corpus_;
  const KnowledgeBase& kb_;
  const Ontology& ontology_;
  const DistConfig& config_;
  std::vector<ShardSlot> slots_;
  std::vector<WorkerProc> workers_;
  DistDiagnostics diagnostics_;
};

}  // namespace

int32_t ShardOfSite(std::string_view site, int32_t num_buckets) {
  if (num_buckets <= 0) return 0;
  return static_cast<int32_t>(Fnv1a64(site) %
                              static_cast<uint64_t>(num_buckets));
}

std::string DistDiagnostics::Summary() const {
  std::string out = StrCat("shards: ", shards_completed, " completed (",
                           shards_from_checkpoint.size(),
                           " from checkpoint), ",
                           quarantined_shards.size(), " quarantined, ",
                           unfinished_shards.size(), " unfinished\n");
  out += StrCat("retries: ", retries, ", worker restarts: ", worker_restarts,
                ", checkpoint bytes: ", checkpoint_bytes,
                deadline_expired ? ", run deadline expired\n" : "\n");
  for (const ShardFailure& failure : failures) {
    out += StrCat("  failure: shard ", failure.shard, " attempt ",
                  failure.attempt, ": ", failure.reason.ToString(), "\n");
  }
  for (const QuarantinedShard& q : quarantined_shards) {
    out += StrCat("  quarantined: shard ", q.shard, " (", q.site, ") after ",
                  q.attempts, " attempts: ", q.last_error.ToString(), "\n");
  }
  return out;
}

Result<DistResult> RunDistributedExtraction(
    const std::vector<ShardSite>& corpus, const KnowledgeBase& kb,
    const Ontology& ontology, const DistConfig& config) {
  Coordinator coordinator(corpus, kb, ontology, config);
  return coordinator.Run();
}

Result<DistResult> RunSingleProcess(const std::vector<ShardSite>& corpus,
                                    const KnowledgeBase& kb,
                                    const Ontology& ontology,
                                    const DistConfig& /*config*/) {
  // Same shards, same shard runner, same merge — no processes.
  DistResult out;
  for (size_t shard = 0; shard < corpus.size(); ++shard) {
    ShardTask task;
    task.shard = static_cast<int32_t>(shard);
    task.sites.push_back(corpus[shard]);
    CERES_ASSIGN_OR_RETURN(ShardResult result, RunShard(task, kb));
    out.shards.push_back(std::move(result));
    ++out.diagnostics.shards_completed;
  }
  MergeAndFuse(ontology, &out);
  return out;
}

}  // namespace ceres::dist

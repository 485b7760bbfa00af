#include "serve/extraction_service.h"

#include <algorithm>
#include <utility>

#include "util/parallel.h"
#include "util/string_util.h"

namespace ceres::serve {

namespace {

/// Global pending-request bound (admission control).
constexpr size_t kMaxQueue = 1024;
/// Most requests drained into one model application batch.
constexpr size_t kMaxBatch = 16;
/// Concurrent batches per site (per-site fairness).
constexpr int kPerSiteMaxInflight = 2;

}  // namespace

ExtractionService::ExtractionService(ModelRegistry* registry,
                                     ExtractionServiceConfig config)
    : registry_(registry), config_(std::move(config)) {}

ExtractionService::~ExtractionService() { Stop(); }

ServeResult ExtractionService::ShedResult(Status status, ShedCause cause) {
  ServeResult result;
  result.status = std::move(status);
  result.diagnostics.shed_cause = cause;
  return result;
}

Status ExtractionService::Start() {
  MutexLock lock(mu_);
  if (started_) return Status::FailedPrecondition("service already started");
  if (stopping_) return Status::FailedPrecondition("service was stopped");
  started_ = true;
  const size_t workers =
      config_.worker_threads > 0
          ? static_cast<size_t>(config_.worker_threads)
          : std::max(1u, std::thread::hardware_concurrency());
  // The pool rides util/parallel.h: one launcher thread fans out `workers`
  // long-lived WorkerLoop bodies and inherits ParallelFor's exception
  // containment (a throwing worker surfaces at join, not via terminate).
  pool_ = std::thread([this, workers] {
    ParallelConfig pool;
    pool.threads = static_cast<int>(workers);
    ParallelFor(workers, pool, [this](size_t) { WorkerLoop(); });
  });
  return Status::Ok();
}

void ExtractionService::Stop() {
  std::vector<PendingRequest> orphans;
  // The pool handle leaves the critical section with us so the join below
  // never races a concurrent Start writing pool_.
  std::thread pool;
  {
    MutexLock lock(mu_);
    accepting_ = false;
    stopping_ = true;
    pool = std::move(pool_);
    for (auto& [site, queue] : queues_) {
      for (PendingRequest& pending : queue.pending) {
        orphans.push_back(std::move(pending));
      }
      queue.pending.clear();
      queue.in_ready_list = false;
    }
    ready_.clear();
    total_pending_ = 0;
  }
  work_ready_.notify_all();
  for (PendingRequest& orphan : orphans) {
    ServeResult result = ShedResult(
        Status::Cancelled("service stopped with request still queued"),
        ShedCause::kShutdown);
    if (orphan.on_complete) orphan.on_complete(result);
    orphan.promise.set_value(std::move(result));
  }
  if (!orphans.empty()) {
    MutexLock lock(stats_mu_);
    stats_.shed[static_cast<int>(ShedCause::kShutdown)] +=
        static_cast<int64_t>(orphans.size());
  }
  if (pool.joinable()) pool.join();
}

std::future<ServeResult> ExtractionService::Submit(
    ServeRequest request, CompletionHook on_complete) {
  std::promise<ServeResult> shed_promise;
  std::future<ServeResult> shed_future = shed_promise.get_future();
  {
    MutexLock lock(stats_mu_);
    ++stats_.submitted;
  }

  auto shed = [&](Status status, ShedCause cause) {
    {
      MutexLock lock(stats_mu_);
      ++stats_.shed[static_cast<int>(cause)];
    }
    ServeResult result = ShedResult(std::move(status), cause);
    if (on_complete) on_complete(result);
    shed_promise.set_value(std::move(result));
    return std::move(shed_future);
  };

  if (request.deadline.expired()) {
    return shed(request.deadline.Check("admission"),
                ShedCause::kDeadlineBeforeAdmission);
  }

  UniqueMutexLock lock(mu_);
  if (!accepting_) {
    lock.unlock();
    return shed(Status::Cancelled("service is stopped"),
                ShedCause::kShutdown);
  }
  if (total_pending_ >= kMaxQueue) {
    lock.unlock();
    return shed(
        Status::ResourceExhausted(
            StrCat("request queue full (", kMaxQueue, " pending)")),
        ShedCause::kQueueFull);
  }

  PendingRequest pending;
  pending.request = std::move(request);
  pending.on_complete = std::move(on_complete);
  pending.enqueued = obs::MonotonicNow();
  std::future<ServeResult> future = pending.promise.get_future();
  SiteQueue& queue = queues_[pending.request.site];
  const std::string site = pending.request.site;
  queue.pending.push_back(std::move(pending));
  ++total_pending_;
  MaybeReadyLocked(site, &queue);
  return future;
}

void ExtractionService::MaybeReadyLocked(const std::string& site,
                                         SiteQueue* queue) {
  if (queue->in_ready_list || queue->pending.empty()) return;
  if (queue->inflight_batches >= kPerSiteMaxInflight) return;
  ready_.push_back(site);
  queue->in_ready_list = true;
  work_ready_.notify_one();
}

void ExtractionService::WorkerLoop() {
  UniqueMutexLock lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    if (ready_.empty()) {
      if (stopping_) return;
      continue;
    }
    const std::string site = std::move(ready_.front());
    ready_.pop_front();
    auto it = queues_.find(site);
    if (it == queues_.end()) continue;
    SiteQueue& queue = it->second;
    queue.in_ready_list = false;
    if (queue.pending.empty()) continue;

    const size_t n = std::min(kMaxBatch, queue.pending.size());
    std::vector<PendingRequest> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue.pending.front()));
      queue.pending.pop_front();
    }
    total_pending_ -= n;
    ++queue.inflight_batches;
    // Leftover work re-arms the site immediately (up to the inflight cap),
    // so another worker can run the next batch concurrently.
    MaybeReadyLocked(site, &queue);

    lock.unlock();
    ProcessBatch(site, std::move(batch));
    lock.lock();

    auto post = queues_.find(site);
    if (post != queues_.end()) {
      --post->second.inflight_batches;
      if (post->second.pending.empty() &&
          post->second.inflight_batches == 0 &&
          !post->second.in_ready_list) {
        queues_.erase(post);
      } else {
        MaybeReadyLocked(site, &post->second);
      }
    }
  }
}

void ExtractionService::ProcessBatch(const std::string& site,
                                     std::vector<PendingRequest> batch) {
  struct LiveRequest {
    PendingRequest pending;
    std::chrono::microseconds queue_wait{0};
    std::chrono::microseconds parse_time{0};
    DomDocument doc;
  };
  // Promises are fulfilled only at the very end, AFTER the stats update: a
  // caller woken by future.get() must never observe counters that do not
  // yet include its own request. The whole PendingRequest rides along so
  // its completion hook can run just before set_value.
  std::vector<PendingRequest> resolved;
  std::vector<ServeResult> outcomes;
  resolved.reserve(batch.size());
  outcomes.reserve(batch.size());
  auto resolve = [&](PendingRequest pending, ServeResult result) {
    resolved.push_back(std::move(pending));
    outcomes.push_back(std::move(result));
  };

  int64_t timed_out = 0;
  int64_t parse_failed = 0;
  int64_t model_load_failed = 0;
  int64_t completed = 0;
  int64_t total_extractions = 0;
  bool batch_ran = false;

  std::vector<LiveRequest> live;
  live.reserve(batch.size());
  const obs::TimePoint picked_up = obs::MonotonicNow();
  for (PendingRequest& pending : batch) {
    const std::chrono::microseconds wait =
        obs::ElapsedMicros(pending.enqueued, picked_up);
    histograms_.queue_wait_us.Record(wait.count());
    if (pending.request.deadline.expired()) {
      ServeResult result = ShedResult(pending.request.deadline.Check("queue"),
                                      ShedCause::kTimedOutInQueue);
      result.diagnostics.queue_wait = wait;
      resolve(std::move(pending), std::move(result));
      ++timed_out;
      continue;
    }
    LiveRequest request;
    request.pending = std::move(pending);
    request.queue_wait = wait;
    live.push_back(std::move(request));
  }

  if (!live.empty()) {
    // One model fetch covers the whole batch — this is where
    // micro-batching pays: the registry lookup (or cold load) amortizes
    // across `live`.
    bool cache_hit = false;
    Result<std::shared_ptr<const SiteModel>> model_or =
        registry_->Get(site, &cache_hit);
    if (!model_or.ok()) {
      model_load_failed = static_cast<int64_t>(live.size());
      for (LiveRequest& request : live) {
        ServeResult result =
            ShedResult(model_or.status(), ShedCause::kModelLoadFailed);
        result.diagnostics.queue_wait = request.queue_wait;
        result.diagnostics.batch_size = static_cast<int>(live.size());
        resolve(std::move(request.pending), std::move(result));
      }
      live.clear();
    } else {
      const std::shared_ptr<const SiteModel>& model = model_or.value();

      // Parse each page; a broken page fails its own request only.
      std::vector<LiveRequest> parsed;
      parsed.reserve(live.size());
      for (LiveRequest& request : live) {
        const obs::TimePoint parse_start = obs::MonotonicNow();
        Result<DomDocument> doc =
            ParseHtml(request.pending.request.html, config_.parse);
        request.parse_time =
            obs::ElapsedMicros(parse_start, obs::MonotonicNow());
        histograms_.parse_us.Record(request.parse_time.count());
        if (!doc.ok()) {
          ServeResult result = ShedResult(
              PrependContext(doc.status(),
                             StrCat("parsing ", request.pending.request.url)),
              ShedCause::kParseFailed);
          result.diagnostics.queue_wait = request.queue_wait;
          result.diagnostics.parse_time = request.parse_time;
          result.diagnostics.model_version = model->version;
          result.diagnostics.model_cache_hit = cache_hit;
          resolve(std::move(request.pending), std::move(result));
          ++parse_failed;
          continue;
        }
        request.doc = std::move(doc).value();
        parsed.push_back(std::move(request));
      }

      if (!parsed.empty()) {
        std::vector<const DomDocument*> pages;
        std::vector<PageIndex> page_indices;
        pages.reserve(parsed.size());
        page_indices.reserve(parsed.size());
        for (size_t i = 0; i < parsed.size(); ++i) {
          pages.push_back(&parsed[i].doc);
          page_indices.push_back(static_cast<PageIndex>(i));
        }

        // The frozen feature map makes this a read-only pass over the
        // shared model; ExtractFromPages only takes TrainedModel* for the
        // (unused here) training-time interning path.
        const obs::TimePoint inference_start = obs::MonotonicNow();
        std::vector<Extraction> extractions = ExtractFromPages(
            pages, page_indices,
            const_cast<TrainedModel*>(&model->model), model->featurizer,
            ExtractionConfig{});
        const std::chrono::microseconds inference_time =
            obs::ElapsedMicros(inference_start, obs::MonotonicNow());
        histograms_.inference_us.Record(inference_time.count());

        std::vector<std::vector<Extraction>> per_request(parsed.size());
        for (Extraction& extraction : extractions) {
          const size_t index = static_cast<size_t>(extraction.page);
          extraction.page = 0;  // each request carries exactly one page
          per_request[index].push_back(std::move(extraction));
        }

        batch_ran = true;
        completed = static_cast<int64_t>(parsed.size());
        histograms_.batch_size.Record(completed);
        const obs::TimePoint resolved_at = obs::MonotonicNow();
        for (size_t i = 0; i < parsed.size(); ++i) {
          histograms_.request_latency_us.Record(
              obs::ElapsedMicros(parsed[i].pending.enqueued, resolved_at)
                  .count());
          ServeResult result;
          result.status = Status::Ok();
          result.triples = std::move(per_request[i]);
          total_extractions += static_cast<int64_t>(result.triples.size());
          result.diagnostics.queue_wait = parsed[i].queue_wait;
          result.diagnostics.parse_time = parsed[i].parse_time;
          result.diagnostics.inference_time = inference_time;
          result.diagnostics.batch_size = static_cast<int>(parsed.size());
          result.diagnostics.model_cache_hit = cache_hit;
          result.diagnostics.model_version = model->version;
          resolve(std::move(parsed[i].pending), std::move(result));
        }
      }
    }
  }

  {
    MutexLock lock(stats_mu_);
    stats_.shed[static_cast<int>(ShedCause::kTimedOutInQueue)] += timed_out;
    stats_.shed[static_cast<int>(ShedCause::kParseFailed)] += parse_failed;
    stats_.shed[static_cast<int>(ShedCause::kModelLoadFailed)] +=
        model_load_failed;
    stats_.completed += completed;
    stats_.extractions += total_extractions;
    if (batch_ran) {
      ++stats_.batches;
      stats_.batched_requests += completed;
    }
  }
  for (size_t i = 0; i < resolved.size(); ++i) {
    if (resolved[i].on_complete) resolved[i].on_complete(outcomes[i]);
    resolved[i].promise.set_value(std::move(outcomes[i]));
  }
}

ServiceStats ExtractionService::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

}  // namespace ceres::serve

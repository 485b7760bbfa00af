// Shared pieces of the CERES benchmark: run options, clocks and resource
// probes, the percentile rule, the metric sink, output checks, the span
// recorder used by traced runs, and the seeded input corpus.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "dom/dom_tree.h"
#include "eval/metrics.h"
#include "fusion/knowledge_fusion.h"
#include "kb/knowledge_base.h"
#include "synth/corpora.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MillisBetween(Clock::time_point a, Clock::time_point b);

/// User+sys CPU seconds of this process, plus reaped children when
/// `with_children` (dist workers are children of the coordinator).
double ProcessCpuSeconds(bool with_children);
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();
/// Peak resident set of this process, in MB.
double PeakRssMb();
/// Peak resident set of the largest reaped child, in MB.
double LargestChildPeakRssMb();

/// Aggregate CPU tick counters from /proc/stat.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Steal ticks over busy (non-idle) ticks between two readings; 0 when
/// /proc/stat is unreadable or nothing ran.
double StealFraction(const CpuTicks& before, const CpuTicks& after,
                     uint64_t idle_before, uint64_t idle_after);
uint64_t ReadIdleTicks();

/// A percentile taken from raw samples by nearest rank. It is valid only
/// when at least ten samples lie beyond it: p99 needs >= 1000 samples,
/// p50 needs >= 20.
struct Percentile {
  bool valid = false;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Percentile TakePercentile(std::vector<double> samples, double q);
/// The tail percentile q = min(0.99, 1 - 10 / min_samples), nearest rank:
/// the highest percentile up to p99 that keeps ten samples beyond it in
/// every run of at least `min_samples` samples, so q does not depend on
/// how many samples a run happened to collect.
struct TailPercentile {
  Percentile p;
  double quantile = 0;
};
TailPercentile TakeTailPercentile(std::vector<double> samples,
                                  size_t min_samples);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Metric names use only [A-Za-z0-9_.-] and start with a letter or digit.
bool ValidMetricName(std::string_view name);

/// Ordered name -> (value, unit) sink for one run's metrics.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  std::string Json() const;
  void Print(const char* title) const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

/// Everything a workload hands back to main().
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  Metrics metrics;
  bool correct() const { return check_failures.empty(); }
};

/// Records a failed output check (printed to stderr; makes the run exit
/// non-zero).
void Check(Outcome* outcome, bool ok, const std::string& what);

/// One measured window: a whole pass over a batch corpus, or a slice of a
/// serve stream.
struct Window {
  double seconds = 0;
  double cpu_seconds = 0;
  int64_t units = 0;  // pages or requests
  /// Serve only: one sample per request, from when it was due. The batch
  /// workloads leave it empty and pool their samples (SetPooledLatency).
  std::vector<double> latency_ms;
  /// Samples p99 is taken from when not empty (serve: response time from
  /// when the request was sent); otherwise latency_ms.
  std::vector<double> tail_ms;
};

/// Sets cpu_ms_per_page (and pages_per_s when `set_rate`) to the median
/// over windows of each window's own value, so a burst of host noise that
/// spoils one window does not move the result. When the windows carry
/// latency samples, sets p50_ms and p99_ms the same way; each window's
/// percentiles must pass the ten-samples-beyond rule.
void SetWindowMedians(Outcome* outcome, const std::vector<Window>& windows,
                      bool set_rate);

/// Batch workloads measure whole passes over their corpus, at least this
/// many, and as many as fit in --seconds.
inline constexpr int kMinPasses = 3;

/// Sets p50_ms and p99_ms from independent samples pooled over a whole run
/// (batch: one per site pipeline or per distributed call, `per_pass` in
/// every pass). p50 must pass the ten-samples-beyond rule; p99_ms is the
/// tail percentile that kMinPasses passes support (TakeTailPercentile).
/// `what` names one sample in the printed line.
void SetPooledLatency(Outcome* outcome, const std::vector<double>& samples,
                      size_t per_pass, const char* what);

/// Set-up is repeated at least this many times, and until this much set-up
/// wall time has accumulated; setup_s is the median repeat.
inline constexpr int kMinSetupRepeats = 15;
inline constexpr double kMinSetupSeconds = 1.0;
/// Runs `set_up` as above and returns each repeat's wall time in seconds,
/// or nothing as soon as a repeat returns false.
std::vector<double> TimeSetups(const std::function<bool()>& set_up);

/// Waits for `due` by spinning with sched_yield: a request is sent on time
/// without a timer wake-up, and any runnable thread on this CPU still gets
/// it. Meant for a thread pinned with PinnedToOneCpu.
void WaitUntil(Clock::time_point due);

/// Pins the calling thread (and every thread it creates afterwards) to the
/// highest CPU it may run on; restores the previous affinity on
/// destruction. The serve workloads pin the whole serving stack and the
/// load generator to one CPU that never halts while they run: on a VM,
/// waking a halted vCPU waits for the host scheduler, and that wait, not
/// the program, dominated request latency under CPU steal.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu();
  ~PinnedToOneCpu();
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;
  /// The CPU pinned to, or -1 when pinning failed.
  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_ = {};
  int cpu_ = -1;
};

/// Run options parsed from the command line.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test hook: "drop-triple" removes one triple from the workload's
  /// output before the checks run, which must fail the run.
  std::string tamper;
  /// Scratch directory for model stores and KB files, inside the checkout.
  std::string work_dir;
};

/// In-memory span recorder for traced runs. Each span has a name, start,
/// end, parent and run/request id; self time is the span's duration minus
/// the time its children cover. Untraced code passes a null Tracer*, and
/// a Scope on a null tracer records nothing.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t id = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
    int32_t saved_parent_ = -1;
  };

  struct NameTotals {
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  /// Per span name: count, total and self time. Only closed spans count.
  std::map<std::string, NameTotals> Totals() const;
  /// Total time of spans named `name`, in ms.
  double TotalMs(const std::string& name) const;
  int64_t Count(const std::string& name) const;
  /// Wall time of the first root span, in ms.
  double RootMs() const;
  /// Prints the self-time table: every name's self time and share of the
  /// root span's wall time, plus the unaccounted remainder (root self).
  void PrintSelfTimes() const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int32_t parent = -1;
    int64_t id = -1;
  };
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// 64-bit FNV-1a, chained through `h`.
uint64_t Fnv(std::string_view bytes, uint64_t h = 1469598103934665603ULL);
uint64_t FnvExtractions(const std::vector<ceres::Extraction>& extractions,
                        uint64_t h);
uint64_t FnvFusion(const ceres::fusion::FusionResult& fused, uint64_t h);
bool SameExtractions(const std::vector<ceres::Extraction>& a,
                     const std::vector<ceres::Extraction>& b);

// --------------------------------------------------------------------------
// The batch corpus: all four SWDE verticals, generated from the seed.
// --------------------------------------------------------------------------

/// One generated crawl of one vertical: its seed KB plus raw pages.
struct CrawlInput {
  std::string label;  // e.g. "Movie#1"
  std::unique_ptr<ceres::synth::Corpus> corpus;
  /// Seed KB written out as text (.kb) and as a frozen image (.kbi).
  std::string kb_path;
  std::string kbi_path;
};

struct BatchCorpus {
  std::vector<CrawlInput> crawls;
  size_t sites = 0;
  size_t pages = 0;
  uint64_t digest = 0;
};

/// Crawls per vertical and corpus scale of the batch workloads.
inline constexpr int kCrawlsPerVertical = 2;
inline constexpr double kBatchScale = 0.2;

/// Generates the batch corpus for `seed` and writes each crawl's seed KB
/// under `work_dir`. Same seed, same bytes (the digest covers every page
/// and KB file).
BatchCorpus MakeBatchCorpus(uint64_t seed, const std::string& work_dir);

/// The paper's §5.3 protocol: even pages annotate, odd pages are held out.
void HalfSplit(size_t num_pages, std::vector<ceres::PageIndex>* annotate,
               std::vector<ceres::PageIndex>* extract);

/// Ids of the corpus's evaluated predicates (the vertical's SWDE
/// attributes).
std::vector<ceres::PredicateId> EvalPredicateIds(
    const ceres::synth::Corpus& corpus);

/// Scores `extractions` (site-local page indices) on the site's held-out
/// odd pages against the generator's ground truth, over the corpus's
/// evaluated predicates.
ceres::eval::Prf ScoreHeldOutHalf(
    const ceres::synth::Corpus& corpus, const ceres::synth::SyntheticSite& site,
    const std::vector<ceres::Extraction>& extractions);

/// Parses a site's raw pages; false when any page fails to parse.
bool ParsePages(const std::vector<ceres::synth::GeneratedPage>& pages,
                std::vector<ceres::DomDocument>* docs);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

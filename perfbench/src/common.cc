#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "dom/html_parser.h"
#include "kb/kb_io.h"
#include "synth/truth.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

namespace {

int64_t NanosSinceEpoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

double UsageCpuSeconds(int who) {
  rusage usage{};
  if (getrusage(who, &usage) != 0) return 0;
  return TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
}

}  // namespace

double ProcessCpuSeconds(bool with_children) {
  double seconds = UsageCpuSeconds(RUSAGE_SELF);
  if (with_children) seconds += UsageCpuSeconds(RUSAGE_CHILDREN);
  return seconds;
}

double ThreadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double LargestChildPeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_CHILDREN, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

// Fields of the aggregate "cpu" line: user nice system idle iowait irq
// softirq steal ...
bool ReadCpuLine(std::vector<uint64_t>* fields) {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return false;
  uint64_t value = 0;
  while (fields->size() < 8 && in >> value) fields->push_back(value);
  return fields->size() == 8;
}

}  // namespace

CpuTicks ReadCpuTicks() {
  std::vector<uint64_t> fields;
  CpuTicks ticks;
  if (!ReadCpuLine(&fields)) return ticks;
  for (uint64_t v : fields) ticks.total += v;
  ticks.steal = fields[7];
  return ticks;
}

uint64_t ReadIdleTicks() {
  std::vector<uint64_t> fields;
  if (!ReadCpuLine(&fields)) return 0;
  return fields[3] + fields[4];
}

double StealFraction(const CpuTicks& before, const CpuTicks& after,
                     uint64_t idle_before, uint64_t idle_after) {
  const double busy = static_cast<double>(after.total - before.total) -
                      static_cast<double>(idle_after - idle_before);
  if (busy <= 0) return 0;
  return static_cast<double>(after.steal - before.steal) / busy;
}

Percentile TakePercentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  p.valid = p.beyond >= 10;
  return p;
}

TailPercentile TakeTailPercentile(std::vector<double> samples,
                                  size_t min_samples) {
  // q = num / den, kept as a fraction so the rank is exact.
  size_t num = 99, den = 100;
  if (min_samples < 1000) {
    num = min_samples > 10 ? min_samples - 10 : 0;
    den = std::max<size_t>(min_samples, 1);
  }
  TailPercentile tail;
  tail.quantile = static_cast<double>(num) / static_cast<double>(den);
  const size_t n = samples.size();
  tail.p.samples = n;
  const size_t rank = (num * n + den - 1) / den;
  if (n == 0 || rank == 0) return tail;
  std::sort(samples.begin(), samples.end());
  tail.p.value = samples[rank - 1];
  tail.p.beyond = n - rank;
  tail.p.valid = tail.p.beyond >= 10;
  return tail;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!ValidMetricName(name)) {
    std::fprintf(stderr, "invalid metric name: %s\n", name.c_str());
    std::abort();
  }
  if (entries_.find(name) == entries_.end()) order_.push_back(name);
  entries_[name] = Entry{value, unit};
}

bool Metrics::Has(const std::string& name) const {
  return entries_.count(name) != 0;
}

double Metrics::Get(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.value;
}

std::string Metrics::Json() const {
  std::string out = "{";
  bool first = true;
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    char value[64];
    // %.17g keeps every digit of the measurement.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

void Metrics::Print(const char* title) const {
  std::printf("%s\n", title);
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    std::printf("  %-32s %14.4f %s\n", name.c_str(), e.value, e.unit.c_str());
  }
}

void Check(Outcome* outcome, bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  outcome->check_failures.push_back(what);
}

void SetWindowMedians(Outcome* outcome, const std::vector<Window>& windows,
                      bool set_rate) {
  std::vector<double> rate, cpu, p50, p99;
  bool latency = !windows.empty();
  for (const Window& w : windows) latency = latency && !w.latency_ms.empty();
  bool valid = !windows.empty();
  std::printf("  %6s %9s %7s %10s %12s", "window", "seconds", "units",
              "units/s", "cpu_ms/unit");
  if (latency) std::printf(" %10s %10s %13s", "p50_ms", "p99_ms", "p99_latency");
  std::printf("\n");
  for (size_t i = 0; i < windows.size(); ++i) {
    const Window& w = windows[i];
    const double units = static_cast<double>(w.units);
    rate.push_back(w.seconds > 0 ? units / w.seconds : 0);
    cpu.push_back(units > 0 ? w.cpu_seconds * 1e3 / units : 0);
    std::printf("  %6zu %9.3f %7lld %10.2f %12.4f", i, w.seconds,
                static_cast<long long>(w.units), rate.back(), cpu.back());
    if (!latency) {
      std::printf("\n");
      continue;
    }
    const Percentile a = TakePercentile(w.latency_ms, 0.50);
    const Percentile b =
        TakePercentile(w.tail_ms.empty() ? w.latency_ms : w.tail_ms, 0.99);
    p50.push_back(a.value);
    p99.push_back(b.value);
    // The last column is p99 of latency_ms itself, for comparison when
    // p99_ms comes from tail_ms.
    std::printf(" %10.4f %10.4f %13.4f  (n=%zu, p99 beyond=%zu)\n", a.value,
                b.value, TakePercentile(w.latency_ms, 0.99).value, b.samples,
                b.beyond);
    Check(outcome, a.valid && b.valid,
          "window " + std::to_string(i) +
              ": fewer than ten samples beyond a percentile");
    valid = valid && a.valid && b.valid;
  }
  Check(outcome, !windows.empty(), "no measured window");
  if (!valid) return;
  if (set_rate) outcome->metrics.Set("pages_per_s", Median(rate), "1/s");
  outcome->metrics.Set("cpu_ms_per_page", Median(cpu), "ms");
  if (!latency) return;
  outcome->metrics.Set("p50_ms", Median(p50), "ms");
  outcome->metrics.Set("p99_ms", Median(p99), "ms");
}

void SetPooledLatency(Outcome* outcome, const std::vector<double>& samples,
                      size_t per_pass, const char* what) {
  const Percentile p50 = TakePercentile(samples, 0.50);
  const TailPercentile tail =
      TakeTailPercentile(samples, kMinPasses * per_pass);
  std::printf("latency: %zu %s samples; p50 %.4f ms (%zu beyond), p99_ms "
              "reports p%.1f = %.4f ms (%zu beyond)\n",
              samples.size(), what, p50.value, p50.beyond,
              100 * tail.quantile, tail.p.value, tail.p.beyond);
  Check(outcome, p50.valid && tail.p.valid,
        std::string("fewer than ten ") + what +
            " samples beyond a percentile");
  if (!p50.valid || !tail.p.valid) return;
  outcome->metrics.Set("p50_ms", p50.value, "ms");
  outcome->metrics.Set("p99_ms", tail.p.value, "ms");
}

std::vector<double> TimeSetups(const std::function<bool()>& set_up) {
  std::vector<double> seconds;
  double total = 0;
  while (static_cast<int>(seconds.size()) < kMinSetupRepeats ||
         total < kMinSetupSeconds) {
    const Clock::time_point start = Clock::now();
    if (!set_up()) return {};
    seconds.push_back(SecondsSince(start));
    total += seconds.back();
  }
  return seconds;
}

void WaitUntil(Clock::time_point due) {
  while (Clock::now() < due) std::this_thread::yield();
}

PinnedToOneCpu::PinnedToOneCpu() {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) cpu_ = cpu;
    return;
  }
}

PinnedToOneCpu::~PinnedToOneCpu() {
  if (cpu_ >= 0) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
}

// --------------------------------------------------------------------------
// Tracer
// --------------------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t id)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->current_;
  span.id = id;
  span.start_ns = NanosSinceEpoch(Clock::now());
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  saved_parent_ = tracer_->current_;
  tracer_->current_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns =
      NanosSinceEpoch(Clock::now());
  tracer_->current_ = saved_parent_;
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.end_ns < 0 || s.parent < 0) continue;
    child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    NameTotals& t = totals[s.name];
    const int64_t duration = s.end_ns - s.start_ns;
    ++t.count;
    t.total_ms += static_cast<double>(duration) * 1e-6;
    t.self_ms += static_cast<double>(duration - child_ns[i]) * 1e-6;
  }
  return totals;
}

double Tracer::TotalMs(const std::string& name) const {
  auto totals = Totals();
  auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second.total_ms;
}

int64_t Tracer::Count(const std::string& name) const {
  auto totals = Totals();
  auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second.count;
}

double Tracer::RootMs() const {
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.end_ns >= 0) {
      return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  return 0;
}

void Tracer::PrintSelfTimes() const {
  const double root = RootMs();
  std::string root_name;
  for (const Span& s : spans_) {
    if (s.parent < 0) {
      root_name = s.name;
      break;
    }
  }
  std::printf("trace: %zu spans, root '%s' %.3f ms\n", spans_.size(),
              root_name.c_str(), root);
  std::printf("  %-28s %9s %12s %12s %7s\n", "span", "count", "total_ms",
              "self_ms", "self%");
  double accounted = 0;
  for (const auto& [name, t] : Totals()) {
    if (name == root_name) continue;
    accounted += t.self_ms;
    std::printf("  %-28s %9lld %12.3f %12.3f %6.2f%%\n", name.c_str(),
                static_cast<long long>(t.count), t.total_ms, t.self_ms,
                root > 0 ? 100.0 * t.self_ms / root : 0.0);
  }
  const double remainder = root - accounted;
  std::printf("  %-28s %9s %12s %12.3f %6.2f%%\n", "(unaccounted)", "", "",
              remainder, root > 0 ? 100.0 * remainder / root : 0.0);
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"id\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.id));
  }
  return std::fclose(out) == 0;
}

// --------------------------------------------------------------------------
// Digests and comparisons
// --------------------------------------------------------------------------

uint64_t Fnv(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

uint64_t FnvDouble(double v, uint64_t h) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &v, sizeof(v));
  return Fnv(std::string_view(bytes, sizeof(bytes)), h);
}

uint64_t FnvInt(int64_t v, uint64_t h) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  return Fnv(std::string_view(bytes, sizeof(bytes)), h);
}

}  // namespace

uint64_t FnvExtractions(const std::vector<ceres::Extraction>& extractions,
                        uint64_t h) {
  for (const ceres::Extraction& e : extractions) {
    h = FnvInt(e.page, h);
    h = FnvInt(e.node, h);
    h = FnvInt(e.predicate, h);
    h = Fnv(e.subject, h);
    h = Fnv(e.object, h);
    h = FnvDouble(e.confidence, h);
  }
  return h;
}

uint64_t FnvFusion(const ceres::fusion::FusionResult& fused, uint64_t h) {
  for (const ceres::fusion::FusedTriple& t : fused.triples) {
    h = Fnv(t.subject, h);
    h = FnvInt(t.predicate, h);
    h = Fnv(t.object, h);
    h = FnvDouble(t.score, h);
    for (const std::string& site : t.sites) h = Fnv(site, h);
  }
  return h;
}

bool SameExtractions(const std::vector<ceres::Extraction>& a,
                     const std::vector<ceres::Extraction>& b) {
  return FnvExtractions(a, 1) == FnvExtractions(b, 1) && a.size() == b.size();
}

// --------------------------------------------------------------------------
// Batch corpus
// --------------------------------------------------------------------------

void HalfSplit(size_t num_pages, std::vector<ceres::PageIndex>* annotate,
               std::vector<ceres::PageIndex>* extract) {
  for (size_t i = 0; i < num_pages; ++i) {
    (i % 2 == 0 ? annotate : extract)
        ->push_back(static_cast<ceres::PageIndex>(i));
  }
}

bool ParsePages(const std::vector<ceres::synth::GeneratedPage>& pages,
                std::vector<ceres::DomDocument>* docs) {
  docs->clear();
  docs->reserve(pages.size());
  for (const ceres::synth::GeneratedPage& page : pages) {
    ceres::Result<ceres::DomDocument> doc = ceres::ParseHtml(page.html);
    if (!doc.ok()) return false;
    doc->set_url(page.url);
    docs->push_back(std::move(doc).value());
  }
  return true;
}

std::vector<ceres::PredicateId> EvalPredicateIds(
    const ceres::synth::Corpus& corpus) {
  std::vector<ceres::PredicateId> ids;
  for (const std::string& name : corpus.eval_predicates) {
    ceres::Result<ceres::PredicateId> id =
        corpus.seed_kb.ontology().PredicateByName(name);
    if (id.ok()) ids.push_back(*id);
  }
  return ids;
}

ceres::eval::Prf ScoreHeldOutHalf(
    const ceres::synth::Corpus& corpus, const ceres::synth::SyntheticSite& site,
    const std::vector<ceres::Extraction>& extractions) {
  std::vector<ceres::DomDocument> docs;
  if (!ParsePages(site.pages, &docs)) return ceres::eval::Prf();
  const ceres::eval::SiteTruth truth =
      ceres::synth::BuildSiteTruth(site.pages, docs);
  ceres::eval::ScoreOptions score;
  score.predicates = EvalPredicateIds(corpus);
  std::vector<ceres::PageIndex> annotate;
  HalfSplit(docs.size(), &annotate, &score.pages);
  return ceres::eval::ScoreExtractions(extractions, truth, score);
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

BatchCorpus MakeBatchCorpus(uint64_t seed, const std::string& work_dir) {
  using ceres::synth::SwdeVertical;
  const SwdeVertical verticals[] = {SwdeVertical::kMovie, SwdeVertical::kBook,
                                    SwdeVertical::kNbaPlayer,
                                    SwdeVertical::kUniversity};
  BatchCorpus out;
  uint64_t h = Fnv("batch-corpus");
  std::filesystem::create_directories(work_dir);
  for (int v = 0; v < 4; ++v) {
    for (int k = 0; k < kCrawlsPerVertical; ++k) {
      // Distinct, seed-derived generator seeds per (vertical, crawl); the
      // generator itself offsets by up to +19 internally.
      const uint64_t crawl_seed = seed * 1000 + static_cast<uint64_t>(v) * 100 +
                                  static_cast<uint64_t>(k) * 25;
      CrawlInput crawl;
      crawl.label = ceres::synth::SwdeVerticalName(verticals[v]) + "#" +
                    std::to_string(k);
      crawl.corpus = std::make_unique<ceres::synth::Corpus>(
          ceres::synth::MakeSwdeCorpus(verticals[v], kBatchScale, crawl_seed));
      const std::string stem =
          work_dir + "/crawl-" + std::to_string(v) + "-" + std::to_string(k);
      crawl.kb_path = stem + ".kb";
      crawl.kbi_path = stem + ".kbi";
      if (!ceres::SaveKbToFile(crawl.corpus->seed_kb, crawl.kb_path).ok() ||
          !crawl.corpus->seed_kb.SaveImage(crawl.kbi_path).ok()) {
        std::fprintf(stderr, "cannot write KB files under %s\n",
                     work_dir.c_str());
        std::exit(1);
      }
      h = Fnv(ReadFile(crawl.kb_path), h);
      for (const ceres::synth::SyntheticSite& site : crawl.corpus->sites) {
        h = Fnv(site.name, h);
        for (const ceres::synth::GeneratedPage& page : site.pages) {
          h = Fnv(page.url, h);
          h = Fnv(page.html, h);
        }
        ++out.sites;
        out.pages += site.pages.size();
      }
      out.crawls.push_back(std::move(crawl));
    }
  }
  out.digest = h;
  return out;
}

}  // namespace perfbench

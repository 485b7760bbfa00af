// ceres_perfbench: one benchmark run of one workload.
//
//   ceres_perfbench --workload <batch_swde|batch_dist|serve_fresh|
//                   serve_recrawl> --seed N --seconds S --trace 0|1
//                   [--work-dir DIR] [--tamper drop-triple]
//   ceres_perfbench --self-test [--work-dir DIR]
//   ceres_perfbench --list-metrics
//
// Prints human-readable progress, the host-health line, and as its last
// line one JSON object {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end set measured with tracing off;
// with --trace 1 they are the per-layer set from a separate traced run.
// Exits non-zero (without the JSON line) when an output check fails.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/test_perfbench.py checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"pages_per_s", "1/s"},  {"cpu_ms_per_page", "ms"}, {"p50_ms", "ms"},
    {"p99_ms", "ms"},        {"extract_f1", "ratio"},   {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"dom.parse_us_per_page", "us"},
    {"dom.parse_allocs_per_page", "count"},
    {"cluster.ms_per_site", "ms"},
    {"cluster.clusters_per_site", "count"},
    {"kb.load_ms", "ms"},
    {"kb.match_us_per_page", "us"},
    {"kb.mentions_per_page", "count"},
    {"core.topic_ms", "ms"},
    {"core.topic_accept_ratio", "ratio"},
    {"core.annotate_ms", "ms"},
    {"core.annotations_per_page", "count"},
    {"core.train_ms", "ms"},
    {"core.train_cpu_ms", "ms"},
    {"core.train_share", "ratio"},
    {"core.train_features", "count"},
    {"core.extract_us_per_page", "us"},
    {"core.triples_per_page", "count"},
    {"fusion.fuse_ms", "ms"},
    {"fusion.fused_triples", "count"},
    {"dist.fixed_ms", "ms"},
    {"dist.encode_ms", "ms"},
    {"dist.decode_ms", "ms"},
    {"dist.frame_bytes", "bytes"},
    {"dist.retries", "count"},
    {"dist.worker_restarts", "count"},
    {"dist.overhead_ratio", "ratio"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.parse_us_p50", "us"},
    {"serve.inference_us_p50", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.shed", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.fingerprint_us", "us"},
    {"serve.cache_evictions", "count"},
    {"serve.cache_invalidations", "count"},
    {"serve.publish_ms", "ms"},
    {"serve.model_hit_ratio", "ratio"},
    {"serve.inproc_p50_us", "us"},
    {"net.overhead_us_p50", "us"},
    {"net.requests", "count"},
    {"net.responses", "count"},
    {"net.accepted", "count"},
    {"net.parse_errors", "count"},
    {"host.steal_frac", "ratio"},
    {"loadgen.late_ms_p99", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: ceres_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--tamper drop-triple]\n"
               "       ceres_perfbench --self-test [--work-dir DIR]\n"
               "       ceres_perfbench --list-metrics\n");
  return 2;
}

// Emits the result object. Per-layer metrics of layers a workload does not
// run are reported as 0 and listed, so every run carries the full set.
int Finish(const Options& options, Outcome outcome, double steal,
           double cpu_wall) {
  std::vector<std::string> missing;
  std::vector<std::string> unexercised;
  Metrics result;
  if (options.trace) {
    outcome.metrics.Set("host.steal_frac", steal, "ratio");
    for (const MetricSpec& spec : kPerLayer) {
      if (outcome.metrics.Has(spec.name)) {
        result.Set(spec.name, outcome.metrics.Get(spec.name), spec.unit);
      } else {
        unexercised.push_back(spec.name);
        result.Set(spec.name, 0.0, spec.unit);
      }
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      if (outcome.metrics.Has(spec.name)) {
        result.Set(spec.name, outcome.metrics.Get(spec.name), spec.unit);
      } else {
        missing.push_back(spec.name);
      }
    }
  }
  for (const std::string& name : missing) {
    Check(&outcome, false, "end-to-end metric not measured: " + name);
  }
  if (!unexercised.empty()) {
    std::string list;
    for (const std::string& name : unexercised) list += " " + name;
    std::printf("layers not run by %s (reported as 0):%s\n",
                options.workload.c_str(), list.c_str());
  }
  const double failed_frac =
      outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 0.0;
  std::printf("health: host.steal_frac %.4f  loadgen.late_ms_p99 %.3f  "
              "cpu/wall %.3f  failed_frac %.6f (%lld/%lld)\n",
              steal, outcome.metrics.Get("loadgen.late_ms_p99"), cpu_wall,
              failed_frac, static_cast<long long>(outcome.failed),
              static_cast<long long>(outcome.attempted));
  result.Print(options.trace ? "per-layer metrics:" : "end-to-end metrics:");
  if (!outcome.correct() || outcome.attempted < 1) {
    std::fprintf(stderr, "%zu output checks failed; no result printed\n",
                 outcome.check_failures.size());
    std::fflush(stdout);
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), result.Json().c_str());
  std::fflush(stdout);
  return 0;
}

int Main(int argc, char** argv) {
  Options options;
  options.work_dir = ".bench_build/work";
  bool self_test = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--list-metrics") {
      for (const MetricSpec& spec : kEndToEnd) {
        std::printf("end_to_end %s %s\n", spec.name, spec.unit);
      }
      for (const MetricSpec& spec : kPerLayer) {
        std::printf("per_layer %s %s\n", spec.name, spec.unit);
      }
      return 0;
    } else if (arg == "--workload" && (v = value())) {
      options.workload = v;
      have_workload = true;
    } else if (arg == "--seed" && (v = value())) {
      options.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && (v = value())) {
      options.seconds = std::atof(v);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace" && (v = value())) {
      options.trace = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || options.trace;
    } else if (arg == "--work-dir" && (v = value())) {
      options.work_dir = v;
    } else if (arg == "--tamper" && (v = value())) {
      options.tamper = v;
    } else {
      return Usage();
    }
  }
  std::filesystem::create_directories(options.work_dir);
  if (self_test) return RunSelfTest(options.work_dir) == 0 ? 0 : 1;
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  if (!options.tamper.empty() && options.tamper != "drop-triple") {
    return Usage();
  }
  options.work_dir += "/" + options.workload;
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  std::printf("workload %s seed %llu seconds %.1f trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const CpuTicks ticks_before = ReadCpuTicks();
  const uint64_t idle_before = ReadIdleTicks();
  const double cpu_before = ProcessCpuSeconds(true);
  const Clock::time_point start = Clock::now();
  Outcome outcome;
  if (options.workload == "batch_swde") {
    outcome = RunBatchSwde(options);
  } else if (options.workload == "batch_dist") {
    outcome = RunBatchDist(options);
  } else if (options.workload == "serve_fresh") {
    outcome = RunServe(options, /*recrawl=*/false);
  } else if (options.workload == "serve_recrawl") {
    outcome = RunServe(options, /*recrawl=*/true);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  const double wall = SecondsSince(start);
  const double cpu_wall =
      wall > 0 ? (ProcessCpuSeconds(true) - cpu_before) / wall : 0.0;
  const double steal = StealFraction(ticks_before, ReadCpuTicks(), idle_before,
                                     ReadIdleTicks());
  return Finish(options, std::move(outcome), steal, cpu_wall);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// The benchmark's own tests, run by `ceres_perfbench --self-test` (and by
// perfbench/test_perfbench.py): the percentile rule, seeded inputs, the
// near-duplicate generator, and metric names.
#include <cstdio>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

int SelfTestServeInputs();

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileRule() {
  std::printf("percentile rule (nearest rank, ten samples beyond):\n");
  Percentile p = TakePercentile(Iota(1000), 0.99);
  Expect(p.valid && p.value == 990 && p.beyond == 10,
         "p99 of 1..1000 is 990 with 10 beyond");
  p = TakePercentile(Iota(999), 0.99);
  Expect(!p.valid && p.beyond == 9, "p99 of 999 samples is dropped");
  p = TakePercentile(Iota(20), 0.50);
  Expect(p.valid && p.value == 10 && p.beyond == 10,
         "p50 of 1..20 is 10 with 10 beyond");
  p = TakePercentile(Iota(19), 0.50);
  Expect(!p.valid, "p50 of 19 samples is dropped");
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  p = TakePercentile(shuffled, 0.5);
  Expect(p.value == 3 && !p.valid, "unsorted input is sorted first");
  Expect(!TakePercentile({}, 0.5).valid, "no samples, no percentile");
  Window full, thin;
  full.units = 1000;
  full.seconds = 1;
  full.latency_ms = Iota(1000);
  thin = full;
  thin.latency_ms = Iota(500);
  Outcome ok_outcome, thin_outcome;
  SetWindowMedians(&ok_outcome, {full, full, full}, true);
  Expect(ok_outcome.correct() && ok_outcome.metrics.Get("p99_ms") == 990,
         "windows of 1000 samples report p99");
  SetWindowMedians(&thin_outcome, {full, thin, full}, true);
  Expect(!thin_outcome.correct() && !thin_outcome.metrics.Has("p99_ms"),
         "an under-sampled window fails the run instead of reporting");

  TailPercentile tail = TakeTailPercentile(Iota(2000), 2000);
  Expect(tail.p.valid && tail.p.value == 1980 && tail.quantile == 0.99,
         "with 1000 or more samples guaranteed, the tail is p99");
  tail = TakeTailPercentile(Iota(240), 240);
  Expect(tail.p.valid && tail.p.value == 230 && tail.p.beyond == 10,
         "240 samples guaranteed: the tail keeps ten beyond (p95.8)");
  tail = TakeTailPercentile(Iota(720), 240);
  Expect(tail.p.valid && tail.p.value == 690 && tail.p.beyond == 30,
         "more samples than guaranteed: the same percentile, more beyond");
  tail = TakeTailPercentile(Iota(24), 24);
  Expect(tail.p.valid && tail.p.value == 14 && tail.p.beyond == 10,
         "24 samples guaranteed: the tail is the 14th");
  Expect(!TakeTailPercentile(Iota(20), 24).p.valid,
         "fewer samples than guaranteed: fewer than ten beyond, dropped");
  Outcome pooled, sparse;
  Window pass;
  pass.units = 100;
  pass.seconds = 1;
  SetWindowMedians(&pooled, {pass, pass, pass}, true);
  SetPooledLatency(&pooled, Iota(240), 80, "site");
  Expect(pooled.correct() && pooled.metrics.Get("p50_ms") == 120 &&
             pooled.metrics.Get("p99_ms") == 230 &&
             pooled.metrics.Get("pages_per_s") == 100,
         "pooled samples: p50 of 240 is 120, the tail 230");
  SetPooledLatency(&sparse, Iota(19), 8, "call");
  Expect(!sparse.correct() && !sparse.metrics.Has("p50_ms"),
         "19 pooled samples give no p50 and fail the run");
}

void TestBatchInputs(const std::string& work_dir) {
  std::printf("batch inputs are a function of the seed:\n");
  const BatchCorpus a = MakeBatchCorpus(7, work_dir + "/a");
  const BatchCorpus b = MakeBatchCorpus(7, work_dir + "/b");
  const BatchCorpus c = MakeBatchCorpus(8, work_dir + "/c");
  std::printf("  seed 7 digest %016llx twice %016llx, seed 8 %016llx\n",
              static_cast<unsigned long long>(a.digest),
              static_cast<unsigned long long>(b.digest),
              static_cast<unsigned long long>(c.digest));
  Expect(a.digest == b.digest, "same seed, byte-identical pages and KBs");
  Expect(a.digest != c.digest, "another seed, other inputs");
  Expect(a.sites == 80 && a.pages == c.pages,
         "fixed scale: 4 verticals x 2 crawls x 10 sites");
}

void TestMetricNames() {
  std::printf("metric names:\n");
  for (const char* good : {"pages_per_s", "dom.parse_us_per_page",
                           "net.overhead_us_p50", "a-b.c_9"}) {
    Expect(ValidMetricName(good), std::string("accepts ") + good);
  }
  for (const char* bad : {"", ".x", "_x", "a b", "x/y", "p99%", "é"}) {
    Expect(!ValidMetricName(bad), std::string("rejects '") + bad + "'");
  }
}

}  // namespace

int RunSelfTest(const std::string& work_dir) {
  TestPercentileRule();
  TestBatchInputs(work_dir + "/self-test");
  TestMetricNames();
  std::printf("serve inputs (seeded, near-duplicate edits, fresh pages):\n");
  g_failures += SelfTestServeInputs();
  std::printf("self-test: %d failures\n", g_failures);
  return g_failures;
}

}  // namespace perfbench

// Coordinator/worker fault-tolerance tests (labels: dist, chaos).
//
// The contract under process-level chaos: injected worker crashes, hangs,
// and torn result frames become retries or typed quarantine entries — and
// for every non-quarantined shard the merged extractions are byte-identical
// to a single-process run of the same corpus.

#include "dist/coordinator.h"

#include <errno.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/dist_corpus.h"
#include "dist/wire.h"
#include "robustness/fault_injector.h"

namespace ceres::dist {
namespace {

using dist_testing::DistTestCorpus;
using dist_testing::MakeDistTestCorpus;

class CoordinatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new DistTestCorpus(MakeDistTestCorpus());
    Result<DistResult> reference =
        RunSingleProcess(corpus_->sites, *corpus_->seed_kb,
                         corpus_->seed_kb->ontology(), BaseConfig());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    reference_ = new DistResult(std::move(reference.value()));
    // The suite is meaningless if the corpus extracts nothing.
    size_t total = 0;
    for (const auto& site : reference_->site_extractions) {
      total += site.extractions.size();
    }
    ASSERT_GT(total, 0u);
  }

  static void TearDownTestSuite() {
    delete reference_;
    reference_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }

  static DistConfig BaseConfig() {
    DistConfig config;
    // One shard per site: 4 shards, shard k holds corpus site k.
    config.num_workers = 2;
    return config;
  }

  static Result<DistResult> RunDist(const DistConfig& config) {
    return RunDistributedExtraction(corpus_->sites, *corpus_->seed_kb,
                                    corpus_->seed_kb->ontology(), config);
  }

  /// Byte-identical comparison of merged per-site extractions, restricted
  /// to sites present in `got` (quarantined shards drop out of the merge).
  static void ExpectExtractionsMatchReference(const DistResult& got) {
    size_t ref_index = 0;
    for (const fusion::SiteExtractions& site : got.site_extractions) {
      while (ref_index < reference_->site_extractions.size() &&
             reference_->site_extractions[ref_index].site != site.site) {
        ++ref_index;
      }
      ASSERT_LT(ref_index, reference_->site_extractions.size())
          << "site " << site.site << " missing from reference";
      const fusion::SiteExtractions& ref =
          reference_->site_extractions[ref_index];
      ASSERT_EQ(site.extractions.size(), ref.extractions.size())
          << "site " << site.site;
      for (size_t i = 0; i < site.extractions.size(); ++i) {
        const Extraction& a = site.extractions[i];
        const Extraction& b = ref.extractions[i];
        EXPECT_EQ(a.page, b.page);
        EXPECT_EQ(a.node, b.node);
        EXPECT_EQ(a.predicate, b.predicate);
        EXPECT_EQ(a.subject, b.subject);
        EXPECT_EQ(a.object, b.object);
        // Bitwise, not almost-equal: the wire format must not perturb
        // a single ULP.
        EXPECT_EQ(a.confidence, b.confidence)
            << "site " << site.site << " extraction " << i;
      }
    }
  }

  static DistTestCorpus* corpus_;
  static DistResult* reference_;
};

DistTestCorpus* CoordinatorTest::corpus_ = nullptr;
DistResult* CoordinatorTest::reference_ = nullptr;

// Every worker is reaped before the run returns: the process has no child
// left to wait for.
void ExpectNoChildLeft() {
  int wait_status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &wait_status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST_F(CoordinatorTest, CleanRunMatchesSingleProcessByteForByte) {
  Result<DistResult> got = RunDist(BaseConfig());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->diagnostics.failures.empty());
  EXPECT_TRUE(got->diagnostics.quarantined_shards.empty());
  EXPECT_EQ(got->diagnostics.shards_completed,
            static_cast<int64_t>(corpus_->sites.size()));
  ASSERT_EQ(got->site_extractions.size(),
            reference_->site_extractions.size());
  ExpectExtractionsMatchReference(*got);
  // Identical inputs fuse identically.
  ASSERT_EQ(got->fused.triples.size(), reference_->fused.triples.size());
  for (size_t i = 0; i < got->fused.triples.size(); ++i) {
    EXPECT_EQ(got->fused.triples[i].subject,
              reference_->fused.triples[i].subject);
    EXPECT_EQ(got->fused.triples[i].object,
              reference_->fused.triples[i].object);
    EXPECT_EQ(got->fused.triples[i].score,
              reference_->fused.triples[i].score);
  }
  ExpectNoChildLeft();
}

TEST_F(CoordinatorTest, WorkerHungAtRunDeadlineIsKilledAndReaped) {
  DistConfig config = BaseConfig();
  // The liveness timeout (60 s) is far past the deadline, so only the
  // shutdown grace can end the hung worker.
  config.worker_liveness_timeout = std::chrono::seconds(60);
  const int32_t victim = 0;
  config.faults.faults.push_back(
      ProcessFault{victim, ProcessFaultType::kWorkerHang, 1});
  const auto start = std::chrono::steady_clock::now();
  config.deadline = Deadline::After(std::chrono::milliseconds(300));

  Result<DistResult> got = RunDist(config);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->diagnostics.deadline_expired);
  EXPECT_TRUE(got->diagnostics.failures.empty());
  const std::vector<int32_t>& unfinished = got->diagnostics.unfinished_shards;
  EXPECT_NE(std::find(unfinished.begin(), unfinished.end(), victim),
            unfinished.end());
  ExpectNoChildLeft();
  // Deadline + the 500 ms grace + 2 s of slack for a loaded box.
  EXPECT_LT(elapsed, std::chrono::milliseconds(300 + 500 + 2000));
}

TEST_F(CoordinatorTest, CrashesOnHalfTheShardsRetryToByteIdentical) {
  DistConfig config = BaseConfig();
  // Crash workers on 50% of shards (>= the 25% acceptance floor), first
  // attempt only: every crashed shard must succeed on retry.
  config.faults = MakeProcessFaultPlan(
      static_cast<int>(corpus_->sites.size()), 0.5, /*seed=*/17,
      ProcessFaultType::kWorkerCrash, /*attempts=*/1);
  const size_t planned = config.faults.faults.size();
  ASSERT_GE(planned, 2u);

  Result<DistResult> got = RunDist(config);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GE(got->diagnostics.retries, static_cast<int64_t>(planned));
  EXPECT_GE(got->diagnostics.worker_restarts, static_cast<int64_t>(planned));
  EXPECT_GE(got->diagnostics.failures.size(), planned);
  EXPECT_TRUE(got->diagnostics.quarantined_shards.empty());
  // Full recovery: every site merged, byte-identical to single-process.
  ASSERT_EQ(got->site_extractions.size(),
            reference_->site_extractions.size());
  ExpectExtractionsMatchReference(*got);
}

TEST_F(CoordinatorTest, TruncatedResultFrameIsRetried) {
  DistConfig config = BaseConfig();
  const int32_t victim = 0;
  config.faults.faults.push_back(
      ProcessFault{victim, ProcessFaultType::kTruncatedResult, 1});

  Result<DistResult> got = RunDist(config);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_GE(got->diagnostics.failures.size(), 1u);
  // The torn frame must be detected as such, not silently merged.
  EXPECT_NE(got->diagnostics.failures[0].reason.ToString().find("mid-frame"),
            std::string::npos)
      << got->diagnostics.failures[0].reason.ToString();
  EXPECT_TRUE(got->diagnostics.quarantined_shards.empty());
  ASSERT_EQ(got->site_extractions.size(),
            reference_->site_extractions.size());
  ExpectExtractionsMatchReference(*got);
}

TEST_F(CoordinatorTest, ExhaustedAttemptBudgetQuarantinesShard) {
  DistConfig config = BaseConfig();
  const int32_t victim = 1;
  // Crashes on all three allowed attempts: the shard must land in
  // quarantine.
  config.faults.faults.push_back(
      ProcessFault{victim, ProcessFaultType::kWorkerCrash, 3});

  Result<DistResult> got = RunDist(config);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->diagnostics.quarantined_shards.size(), 1u);
  const QuarantinedShard& q = got->diagnostics.quarantined_shards[0];
  EXPECT_EQ(q.shard, victim);
  EXPECT_EQ(q.attempts, 3);
  EXPECT_EQ(q.site, corpus_->sites[1].site);
  EXPECT_FALSE(q.last_error.ok());
  // Graceful degradation: the other sites still merge, byte-identical.
  ASSERT_EQ(got->site_extractions.size(),
            reference_->site_extractions.size() - 1);
  for (const fusion::SiteExtractions& site : got->site_extractions) {
    EXPECT_NE(site.site, corpus_->sites[1].site);
  }
  ExpectExtractionsMatchReference(*got);
}

TEST_F(CoordinatorTest, WatchdogReclaimsHungWorker) {
  DistConfig config = BaseConfig();
  // Short enough to reclaim the planned hang quickly, long enough that a
  // healthy worker on a loaded box rarely trips it — and if one does, that
  // kill is also kDeadlineExceeded and its retry still converges, so the
  // assertions below hold either way.
  config.worker_liveness_timeout = std::chrono::milliseconds(5000);
  const int32_t victim = 2;
  config.faults.faults.push_back(
      ProcessFault{victim, ProcessFaultType::kWorkerHang, 1});

  Result<DistResult> got = RunDist(config);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_GE(got->diagnostics.failures.size(), 1u);
  EXPECT_EQ(got->diagnostics.failures[0].reason.code(),
            StatusCode::kDeadlineExceeded)
      << got->diagnostics.failures[0].reason.ToString();
  EXPECT_GE(got->diagnostics.worker_restarts, 1);
  EXPECT_TRUE(got->diagnostics.quarantined_shards.empty());
  ASSERT_EQ(got->site_extractions.size(),
            reference_->site_extractions.size());
  ExpectExtractionsMatchReference(*got);
}

TEST_F(CoordinatorTest, ComputingWorkerOutlivesShortLivenessTimeout) {
  // Each site of this corpus computes for several times the liveness
  // timeout and sends no frame until its result. A worker whose CPU time
  // keeps advancing is computing, not hung: no shard may be reclaimed.
  const DistTestCorpus big = MakeDistTestCorpus(/*num_sites=*/2,
                                                /*pages_per_site=*/1500);
  DistConfig config = BaseConfig();
  config.worker_liveness_timeout = std::chrono::milliseconds(100);
  const auto start = std::chrono::steady_clock::now();
  Result<DistResult> got = RunDistributedExtraction(
      big.sites, *big.seed_kb, big.seed_kb->ontology(), config);
  // The premise: the sites outlast the timeout.
  EXPECT_GT(std::chrono::steady_clock::now() - start,
            config.worker_liveness_timeout);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->diagnostics.failures.empty())
      << got->diagnostics.Summary();
  EXPECT_EQ(got->diagnostics.retries, 0);
  EXPECT_EQ(got->diagnostics.shards_completed,
            static_cast<int64_t>(big.sites.size()));
  ExpectNoChildLeft();
}

TEST_F(CoordinatorTest, ExpiredRunDeadlineDegradesGracefully) {
  DistConfig config = BaseConfig();
  config.deadline = Deadline::After(std::chrono::milliseconds(0));
  Result<DistResult> got = RunDist(config);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->diagnostics.deadline_expired);
  EXPECT_EQ(got->diagnostics.unfinished_shards.size(),
            corpus_->sites.size());
  EXPECT_TRUE(got->site_extractions.empty());
  EXPECT_TRUE(got->fused.triples.empty());
}

TEST_F(CoordinatorTest, FusedTriplesHaveCrossSiteSupport) {
  // The test corpus overlaps topic windows between sites; fusion over the
  // distributed merge must see multi-site support for some triples.
  Result<DistResult> got = RunDist(BaseConfig());
  ASSERT_TRUE(got.ok());
  bool multi_site = false;
  for (const fusion::FusedTriple& triple : got->fused.triples) {
    if (triple.sites.size() >= 2) {
      multi_site = true;
      break;
    }
  }
  EXPECT_TRUE(multi_site);
}

TEST(CoordinatorValidationTest, EmptyCorpusIsOkAndEmpty) {
  KnowledgeBase kb((Ontology()));
  Result<DistResult> got =
      RunDistributedExtraction({}, kb, kb.ontology(), DistConfig());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->shards.empty());
  EXPECT_TRUE(got->site_extractions.empty());
}

TEST(CoordinatorValidationTest, DuplicateSitesRejected) {
  KnowledgeBase kb((Ontology()));
  std::vector<ShardSite> corpus(2);
  corpus[0].site = "same.example";
  corpus[1].site = "same.example";
  Result<DistResult> got =
      RunDistributedExtraction(corpus, kb, kb.ontology(), DistConfig());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(CoordinatorValidationTest, BadConfigRejected) {
  KnowledgeBase kb((Ontology()));
  DistConfig config;
  config.num_workers = 0;
  EXPECT_EQ(RunDistributedExtraction({}, kb, kb.ontology(), config)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardOfSiteTest, StableAndInRange) {
  // Callers that bucket sites rely on it agreeing across calls and runs;
  // pin an actual value so an accidental hash change cannot slip through.
  EXPECT_EQ(ShardOfSite("imdb.example", 1), 0);
  const int32_t pinned = ShardOfSite("imdb.example", 1000);
  EXPECT_EQ(ShardOfSite("imdb.example", 1000), pinned);
  for (int32_t shards : {1, 2, 7, 64}) {
    const int32_t got = ShardOfSite("any.example", shards);
    EXPECT_GE(got, 0);
    EXPECT_LT(got, shards);
  }
}

}  // namespace
}  // namespace ceres::dist

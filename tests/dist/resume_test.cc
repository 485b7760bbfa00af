// Checkpoint-resume chaos tests (labels: dist, chaos): a coordinator
// SIGKILLed mid-run must be resumable from its per-shard checkpoints to a
// byte-identical result, and a corrupt checkpoint must be detected on
// restart and re-run rather than merged, as must a checkpoint whose site
// moved to another shard.

#include <signal.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/checkpoint.h"
#include "dist/coordinator.h"
#include "dist/dist_corpus.h"
#include "robustness/fault_injector.h"

namespace ceres::dist {
namespace {

using dist_testing::DistTestCorpus;
using dist_testing::MakeDistTestCorpus;

class ResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new DistTestCorpus(MakeDistTestCorpus());
    Result<DistResult> reference =
        RunSingleProcess(corpus_->sites, *corpus_->seed_kb,
                         corpus_->seed_kb->ontology(), DistConfig());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    reference_ = new DistResult(std::move(reference.value()));
  }

  static void TearDownTestSuite() {
    delete reference_;
    reference_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }

  void SetUp() override {
    char tmpl[] = "/tmp/ceres_resume_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    for (int32_t shard : ListShardCheckpoints(dir_)) {
      (void)::unlink(ShardCheckpointPath(dir_, shard).c_str());
    }
    (void)::rmdir(dir_.c_str());
  }

  DistConfig CheckpointedConfig() const {
    DistConfig config;
    config.num_workers = 1;  // one shard per site, run one at a time
    config.checkpoint_dir = dir_;
    return config;
  }

  Result<DistResult> RunDist(const DistConfig& config) const {
    return RunDistributedExtraction(corpus_->sites, *corpus_->seed_kb,
                                    corpus_->seed_kb->ontology(), config);
  }

  static void ExpectSameSite(const fusion::SiteExtractions& a,
                             const fusion::SiteExtractions& b) {
    ASSERT_EQ(a.site, b.site);
    ASSERT_EQ(a.extractions.size(), b.extractions.size()) << a.site;
    for (size_t i = 0; i < a.extractions.size(); ++i) {
      EXPECT_EQ(a.extractions[i].page, b.extractions[i].page);
      EXPECT_EQ(a.extractions[i].node, b.extractions[i].node);
      EXPECT_EQ(a.extractions[i].predicate, b.extractions[i].predicate);
      EXPECT_EQ(a.extractions[i].subject, b.extractions[i].subject);
      EXPECT_EQ(a.extractions[i].object, b.extractions[i].object);
      EXPECT_EQ(a.extractions[i].confidence, b.extractions[i].confidence)
          << a.site << " extraction " << i;
    }
  }

  static void ExpectMatchesReference(const DistResult& got) {
    ASSERT_EQ(got.site_extractions.size(),
              reference_->site_extractions.size());
    for (size_t s = 0; s < got.site_extractions.size(); ++s) {
      ExpectSameSite(got.site_extractions[s], reference_->site_extractions[s]);
    }
  }

  static DistTestCorpus* corpus_;
  static DistResult* reference_;
  std::string dir_;
};

DistTestCorpus* ResumeTest::corpus_ = nullptr;
DistResult* ResumeTest::reference_ = nullptr;

TEST_F(ResumeTest, KilledCoordinatorResumesByteIdentical) {
  // Run the coordinator in a child process so we can SIGKILL it mid-run —
  // the same shape as a batch job preempted by the OS. One worker makes
  // shard completion sequential, so checkpoints appear one at a time.
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    DistConfig config = CheckpointedConfig();
    (void)RunDist(config);
    // Skip gtest/atexit teardown: this process only exists to be killed,
    // and if it wins the race, its checkpoints are all we need.
    ::_exit(0);
  }

  // Wait for the first checkpoint to land, then kill the coordinator. The
  // child may finish all shards before we fire — the resume assertions
  // below hold either way, just with more checkpoints to load.
  const int kMaxPollMs = 30000;
  int waited_ms = 0;
  while (ListShardCheckpoints(dir_).empty() && waited_ms < kMaxPollMs) {
    ::usleep(20 * 1000);
    waited_ms += 20;
    int status = 0;
    if (::waitpid(child, &status, WNOHANG) == child) {
      break;  // child already exited; checkpoints are complete
    }
  }
  ASSERT_FALSE(ListShardCheckpoints(dir_).empty())
      << "no checkpoint appeared within " << kMaxPollMs << "ms";
  (void)::kill(child, SIGKILL);
  int status = 0;
  (void)::waitpid(child, &status, 0);

  const size_t survived = ListShardCheckpoints(dir_).size();
  ASSERT_GE(survived, 1u);

  // Restart: completed shards load from checkpoint, the rest re-run.
  Result<DistResult> resumed = RunDist(CheckpointedConfig());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GE(resumed->diagnostics.shards_from_checkpoint.size(), survived);
  EXPECT_EQ(resumed->diagnostics.shards_completed,
            static_cast<int64_t>(corpus_->sites.size()));
  EXPECT_TRUE(resumed->diagnostics.quarantined_shards.empty());
  ExpectMatchesReference(*resumed);
}

TEST_F(ResumeTest, CorruptCheckpointIsDetectedAndRerun) {
  const int32_t victim = 0;

  // First run completes normally but its checkpoint for `victim` is
  // corrupted in place after the atomic rename (storage-failure model).
  DistConfig first = CheckpointedConfig();
  first.faults.faults.push_back(
      ProcessFault{victim, ProcessFaultType::kCorruptCheckpoint, 1});
  Result<DistResult> initial = RunDist(first);
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  // The corruption is disk-only: the in-memory result is unaffected.
  ExpectMatchesReference(*initial);
  EXPECT_EQ(LoadShardCheckpoint(dir_, victim).status().code(),
            StatusCode::kInternal);

  // Restart over the same directory: the corrupt file must surface as an
  // attempt-0 failure for `victim` and the shard must re-run, while the
  // intact checkpoints still load.
  Result<DistResult> resumed = RunDist(CheckpointedConfig());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  bool corrupt_reported = false;
  for (const ShardFailure& failure : resumed->diagnostics.failures) {
    if (failure.shard == victim && failure.attempt == 0 &&
        failure.reason.code() == StatusCode::kInternal) {
      corrupt_reported = true;
    }
  }
  EXPECT_TRUE(corrupt_reported)
      << "no attempt-0 kInternal failure for shard " << victim;
  EXPECT_EQ(resumed->diagnostics.shards_from_checkpoint.size(),
            corpus_->sites.size() - 1);
  EXPECT_EQ(resumed->diagnostics.shards_completed,
            static_cast<int64_t>(corpus_->sites.size()));
  ExpectMatchesReference(*resumed);
  // The re-run rewrote a valid checkpoint over the corrupt one.
  EXPECT_TRUE(LoadShardCheckpoint(dir_, victim).ok());
}

TEST_F(ResumeTest, StaleCheckpointForDifferentCorpusIsIgnored) {
  // A checkpoint whose sites do not match the shard's current corpus
  // assignment (e.g. the corpus changed between runs) must be re-run, not
  // merged.
  const int32_t victim = 0;
  ShardResult stale;
  stale.shard = victim;
  SiteResult site;
  site.site = "stale.example";
  site.pages = 1;
  stale.sites.push_back(site);
  ASSERT_TRUE(SaveShardCheckpoint(dir_, stale, nullptr).ok());

  Result<DistResult> got = RunDist(CheckpointedConfig());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  bool mismatch_reported = false;
  for (const ShardFailure& failure : got->diagnostics.failures) {
    if (failure.shard == victim && failure.attempt == 0) {
      mismatch_reported = true;
    }
  }
  EXPECT_TRUE(mismatch_reported);
  ExpectMatchesReference(*got);
}

TEST_F(ResumeTest, ReorderedCorpusRerunsMovedShards) {
  // Shard k is corpus site k, and checkpoints are keyed by shard id. After
  // the corpus is reversed, a shard whose site moved holds another site's
  // checkpoint: it must report that and re-run, never merge it.
  Result<DistResult> first = RunDist(CheckpointedConfig());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(ListShardCheckpoints(dir_).size(), corpus_->sites.size());

  const std::vector<ShardSite> reversed(corpus_->sites.rbegin(),
                                        corpus_->sites.rend());
  Result<DistResult> got = RunDistributedExtraction(
      reversed, *corpus_->seed_kb, corpus_->seed_kb->ontology(),
      CheckpointedConfig());
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  size_t moved = 0;
  for (size_t k = 0; k < reversed.size(); ++k) {
    const int32_t shard = static_cast<int32_t>(k);
    const bool site_moved = reversed[k].site != corpus_->sites[k].site;
    if (site_moved) ++moved;
    bool mismatch_reported = false;
    for (const ShardFailure& failure : got->diagnostics.failures) {
      if (failure.shard == shard && failure.attempt == 0 &&
          failure.reason.code() == StatusCode::kInternal) {
        mismatch_reported = true;
      }
    }
    EXPECT_EQ(mismatch_reported, site_moved) << "shard " << k;
    // The shard's checkpoint now holds its new site.
    Result<ShardResult> checkpoint = LoadShardCheckpoint(dir_, shard);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    ASSERT_EQ(checkpoint->sites.size(), 1u);
    EXPECT_EQ(checkpoint->sites[0].site, reversed[k].site);
  }
  ASSERT_GE(moved, 2u);
  EXPECT_EQ(got->diagnostics.shards_from_checkpoint.size(),
            reversed.size() - moved);
  EXPECT_EQ(got->diagnostics.shards_completed,
            static_cast<int64_t>(reversed.size()));

  // The merge is in the new corpus order, and each site's extractions are
  // its own: equal to the reference's for that site.
  ASSERT_EQ(got->site_extractions.size(), reversed.size());
  for (size_t k = 0; k < reversed.size(); ++k) {
    EXPECT_EQ(got->site_extractions[k].site, reversed[k].site);
    ExpectSameSite(got->site_extractions[k],
                   reference_->site_extractions[reversed.size() - 1 - k]);
  }
}

}  // namespace
}  // namespace ceres::dist

// Checkpoint layer tests: atomic save/load roundtrip, corrupt and missing
// files, directory listing, and the corrupt-checkpoint process fault.

#include "dist/checkpoint.h"

#include <stdlib.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ceres::dist {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ceres_ckpt_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    // Best-effort cleanup of the handful of files the tests create.
    for (int32_t shard : ListShardCheckpoints(dir_)) {
      (void)::unlink(ShardCheckpointPath(dir_, shard).c_str());
    }
    (void)::rmdir(dir_.c_str());
  }

  static ShardResult MakeResult(int32_t shard) {
    ShardResult result;
    result.shard = shard;
    SiteResult site;
    site.site = "ck.example";
    site.pages = 3;
    Extraction e;
    e.page = 0;
    e.node = 7;
    e.predicate = 1;
    e.subject = "Film";
    e.object = "Director";
    e.confidence = 0.875;
    site.extractions.push_back(e);
    result.sites.push_back(site);
    return result;
  }

  std::string dir_;
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  int64_t bytes = 0;
  ASSERT_TRUE(SaveShardCheckpoint(dir_, MakeResult(2), &bytes).ok());
  EXPECT_GT(bytes, 0);

  Result<ShardResult> loaded = LoadShardCheckpoint(dir_, 2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->shard, 2);
  ASSERT_EQ(loaded->sites.size(), 1u);
  EXPECT_EQ(loaded->sites[0].site, "ck.example");
  ASSERT_EQ(loaded->sites[0].extractions.size(), 1u);
  EXPECT_EQ(loaded->sites[0].extractions[0].confidence, 0.875);
}

TEST_F(CheckpointTest, MissingIsNotFound) {
  EXPECT_EQ(LoadShardCheckpoint(dir_, 9).status().code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointTest, SaveLeavesNoTempFile) {
  ASSERT_TRUE(SaveShardCheckpoint(dir_, MakeResult(0), nullptr).ok());
  // Only the renamed-in-place final file may exist.
  std::vector<int32_t> shards = ListShardCheckpoints(dir_);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], 0);
}

TEST_F(CheckpointTest, OverwriteReplacesAtomically) {
  ASSERT_TRUE(SaveShardCheckpoint(dir_, MakeResult(1), nullptr).ok());
  ShardResult second = MakeResult(1);
  second.sites[0].pages = 42;
  ASSERT_TRUE(SaveShardCheckpoint(dir_, second, nullptr).ok());
  Result<ShardResult> loaded = LoadShardCheckpoint(dir_, 1);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->sites[0].pages, 42);
}

TEST_F(CheckpointTest, CorruptFileIsInternal) {
  ASSERT_TRUE(SaveShardCheckpoint(dir_, MakeResult(5), nullptr).ok());
  ASSERT_TRUE(CorruptShardCheckpoint(dir_, 5).ok());
  Result<ShardResult> loaded = LoadShardCheckpoint(dir_, 5);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

TEST_F(CheckpointTest, ShardIdMismatchRejected) {
  // A checkpoint renamed onto the wrong shard id must not load.
  ASSERT_TRUE(SaveShardCheckpoint(dir_, MakeResult(3), nullptr).ok());
  ASSERT_EQ(::rename(ShardCheckpointPath(dir_, 3).c_str(),
                     ShardCheckpointPath(dir_, 4).c_str()),
            0);
  Result<ShardResult> loaded = LoadShardCheckpoint(dir_, 4);
  ASSERT_EQ(loaded.status().code(), StatusCode::kInternal);
  EXPECT_NE(loaded.status().message().find("holds shard"),
            std::string::npos);
}

TEST_F(CheckpointTest, TruncatedFileIsInternal) {
  ASSERT_TRUE(SaveShardCheckpoint(dir_, MakeResult(6), nullptr).ok());
  const std::string path = ShardCheckpointPath(dir_, 6);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_EQ(LoadShardCheckpoint(dir_, 6).status().code(),
            StatusCode::kInternal);
}

TEST_F(CheckpointTest, ListSkipsForeignFiles) {
  ASSERT_TRUE(SaveShardCheckpoint(dir_, MakeResult(10), nullptr).ok());
  ASSERT_TRUE(SaveShardCheckpoint(dir_, MakeResult(2), nullptr).ok());
  {
    std::ofstream junk(dir_ + "/notes.txt");
    junk << "not a checkpoint";
  }
  {
    std::ofstream junk(dir_ + "/shard_x.ckpt");
    junk << "non-numeric id";
  }
  std::vector<int32_t> shards = ListShardCheckpoints(dir_);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0], 2);
  EXPECT_EQ(shards[1], 10);
  (void)::unlink((dir_ + "/notes.txt").c_str());
  (void)::unlink((dir_ + "/shard_x.ckpt").c_str());
}

TEST_F(CheckpointTest, ListSkipsIdsOutOfRange) {
  ASSERT_TRUE(SaveShardCheckpoint(dir_, MakeResult(7), nullptr).ok());
  // Past int32_t, and negative: neither names a shard this layer writes.
  const std::vector<std::string> junk = {dir_ + "/shard_99999999999.ckpt",
                                         dir_ + "/shard_-1.ckpt"};
  for (const std::string& path : junk) {
    std::ofstream(path) << "not a shard id";
  }
  const std::vector<int32_t> shards = ListShardCheckpoints(dir_);
  for (const std::string& path : junk) (void)::unlink(path.c_str());
  EXPECT_EQ(shards, std::vector<int32_t>{7});
}

TEST_F(CheckpointTest, CorruptMissingIsNotFound) {
  EXPECT_EQ(CorruptShardCheckpoint(dir_, 77).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ceres::dist

// Tests for hard links and the section 5.4 rearrangement mechanism
// (re-clustering tertiary-resident data by observed access pattern).

#include <gtest/gtest.h>

#include "blockdev/sim_disk.h"
#include "highlight/highlight.h"
#include "util/rng.h"

namespace hl {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

// --- Hard links ---------------------------------------------------------------

class HardLinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<SimDisk>("d0", 8 * 1024, Rz57Profile(), &clock_);
    LfsParams params;
    params.seg_size_blocks = 64;
    auto fs = Lfs::Mkfs(disk_.get(), &clock_, params);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(*fs);
  }

  SimClock clock_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<Lfs> fs_;
};

TEST_F(HardLinkTest, LinkSharesTheInode) {
  Result<uint32_t> ino = fs_->Create("/orig");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(10000, 1)).ok());
  ASSERT_TRUE(fs_->Link("/orig", "/alias").ok());
  Result<uint32_t> alias = fs_->LookupPath("/alias");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(*alias, *ino);
  EXPECT_EQ(fs_->Stat(*ino)->nlink, 2);
  // Writes through one name are visible through the other.
  ASSERT_TRUE(fs_->Write(*alias, 0, Pattern(10000, 2)).ok());
  std::vector<uint8_t> out(10000);
  ASSERT_TRUE(fs_->Read(*ino, 0, out).ok());
  EXPECT_EQ(out, Pattern(10000, 2));
}

TEST_F(HardLinkTest, UnlinkOneNameKeepsTheFile) {
  Result<uint32_t> ino = fs_->Create("/orig");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(5000, 3)).ok());
  ASSERT_TRUE(fs_->Link("/orig", "/alias").ok());
  ASSERT_TRUE(fs_->Unlink("/orig").ok());
  Result<uint32_t> alias = fs_->LookupPath("/alias");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(fs_->Stat(*alias)->nlink, 1);
  std::vector<uint8_t> out(5000);
  ASSERT_TRUE(fs_->Read(*alias, 0, out).ok());
  EXPECT_EQ(out, Pattern(5000, 3));
  // The last unlink frees it.
  ASSERT_TRUE(fs_->Unlink("/alias").ok());
  EXPECT_FALSE(fs_->Stat(*alias).ok());
}

TEST_F(HardLinkTest, DirectoryLinksRejected) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  EXPECT_EQ(fs_->Link("/d", "/d2").code(), ErrorCode::kIsADirectory);
}

TEST_F(HardLinkTest, LinkToExistingNameRejected) {
  ASSERT_TRUE(fs_->Create("/a").ok());
  ASSERT_TRUE(fs_->Create("/b").ok());
  EXPECT_EQ(fs_->Link("/a", "/b").code(), ErrorCode::kExists);
}

TEST_F(HardLinkTest, LinksSurviveRemount) {
  Result<uint32_t> ino = fs_->Create("/orig");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Link("/orig", "/alias").ok());
  ASSERT_TRUE(fs_->Checkpoint().ok());
  fs_.reset();
  LfsParams params;
  params.seg_size_blocks = 64;
  auto fs = Lfs::Mount(disk_.get(), &clock_, params);
  ASSERT_TRUE(fs.ok());
  Result<uint32_t> a = (*fs)->LookupPath("/orig");
  Result<uint32_t> b = (*fs)->LookupPath("/alias");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

// --- Rearrangement --------------------------------------------------------------

class RearrangementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HighLightConfig config;
    config.disks.push_back({Rz57Profile(), 8 * 1024});
    JukeboxProfile j = Hp6300MoProfile();
    j.num_slots = 4;
    j.volume_capacity_bytes = 24ull * 64 * kBlockSize;
    config.jukeboxes.push_back({j, false, 24});
    config.lfs.seg_size_blocks = 64;
    config.lfs.cache_max_segments = 6;
    auto hl = HighLightFs::Create(config, &clock_);
    ASSERT_TRUE(hl.ok());
    hl_ = std::move(*hl);
  }

  // Count how many distinct tertiary segments a file's blocks span.
  uint32_t SegmentSpan(uint32_t ino) {
    std::set<uint32_t> tsegs;
    Result<std::vector<BlockRef>> refs = hl_->fs().CollectFileBlocks(ino);
    EXPECT_TRUE(refs.ok());
    for (const BlockRef& r : *refs) {
      if (hl_->Internals().address_map.Classify(r.daddr) ==
          AddressMap::Zone::kTertiary) {
        tsegs.insert(hl_->Internals().address_map.TsegOf(r.daddr));
      }
    }
    return static_cast<uint32_t>(tsegs.size());
  }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
};

TEST_F(RearrangementTest, ClusteringReducesSegmentSpan) {
  // Interleave the migration of two files block-range-wise so each file's
  // blocks smear across many segments.
  Result<uint32_t> a = hl_->fs().Create("/a");
  Result<uint32_t> b = hl_->fs().Create("/b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto data_a = Pattern(512 * 1024, 1);
  auto data_b = Pattern(512 * 1024, 2);
  ASSERT_TRUE(hl_->fs().Write(*a, 0, data_a).ok());
  ASSERT_TRUE(hl_->fs().Write(*b, 0, data_b).ok());
  MigratorOptions opts;
  opts.migrate_inode = false;
  opts.migrate_metadata = false;
  // Alternate 16-block ranges of a and b: worst-case interleave.
  for (uint32_t base = 0; base < 128; base += 16) {
    std::vector<uint32_t> lbns;
    for (uint32_t l = base; l < base + 16; ++l) {
      lbns.push_back(l);
    }
    ASSERT_TRUE(hl_->Internals().migrator.MigrateBlocks({{*a, lbns}}, opts).ok());
    ASSERT_TRUE(hl_->Internals().migrator.MigrateBlocks({{*b, lbns}}, opts).ok());
  }
  uint32_t span_before = SegmentSpan(*a);
  ASSERT_GT(span_before, 2u) << "expected an interleaved layout";

  // Rearrangement: the observed pattern is "file a alone"; cluster it.
  Result<MigrationReport> r = hl_->Internals().migrator.ClusterFiles({*a}, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  uint32_t span_after = SegmentSpan(*a);
  EXPECT_LT(span_after, span_before);
  EXPECT_LE(span_after, 3u);

  // Contents intact through the move, cold.
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  std::vector<uint8_t> out(data_a.size());
  ASSERT_TRUE(hl_->fs().Read(*a, 0, out).ok());
  EXPECT_EQ(out, data_a);
  ASSERT_TRUE(hl_->fs().Read(*b, 0, out).ok());
  EXPECT_EQ(out, data_b);
}

TEST_F(RearrangementTest, ClusteringCutsDemandFaults) {
  // Same interleave; measure faults reading file a cold, before vs after.
  Result<uint32_t> a = hl_->fs().Create("/a");
  Result<uint32_t> b = hl_->fs().Create("/b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(hl_->fs().Write(*a, 0, Pattern(512 * 1024, 3)).ok());
  ASSERT_TRUE(hl_->fs().Write(*b, 0, Pattern(512 * 1024, 4)).ok());
  MigratorOptions opts;
  opts.migrate_inode = false;
  opts.migrate_metadata = false;
  for (uint32_t base = 0; base < 128; base += 8) {
    std::vector<uint32_t> lbns;
    for (uint32_t l = base; l < base + 8; ++l) {
      lbns.push_back(l);
    }
    ASSERT_TRUE(hl_->Internals().migrator.MigrateBlocks({{*a, lbns}}, opts).ok());
    ASSERT_TRUE(hl_->Internals().migrator.MigrateBlocks({{*b, lbns}}, opts).ok());
  }
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  uint64_t faults0 = hl_->Internals().block_map.stats().demand_faults;
  std::vector<uint8_t> out(512 * 1024);
  ASSERT_TRUE(hl_->fs().Read(*a, 0, out).ok());
  uint64_t faults_before = hl_->Internals().block_map.stats().demand_faults - faults0;

  ASSERT_TRUE(hl_->Internals().migrator.ClusterFiles({*a}, opts).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  faults0 = hl_->Internals().block_map.stats().demand_faults;
  ASSERT_TRUE(hl_->fs().Read(*a, 0, out).ok());
  uint64_t faults_after = hl_->Internals().block_map.stats().demand_faults - faults0;
  EXPECT_LT(faults_after, faults_before);

  // The dead pre-rearrangement copies remain reclaimable.
  EXPECT_GT(hl_->Internals().tseg_table.TotalLiveBytes(), 0u);
}

TEST_F(RearrangementTest, ClusterFilesOnDiskOnlyIsNoOp) {
  Result<uint32_t> a = hl_->fs().Create("/disk-only");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(hl_->fs().Write(*a, 0, Pattern(64 * 1024, 5)).ok());
  MigratorOptions opts;
  Result<MigrationReport> r = hl_->Internals().migrator.ClusterFiles({*a}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->blocks_migrated, 0u);
}

}  // namespace
}  // namespace hl

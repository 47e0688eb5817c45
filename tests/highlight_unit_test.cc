// Unit tests for HighLight's address map, tseg table, and segment cache.

#include <gtest/gtest.h>

#include "blockdev/sim_disk.h"
#include "highlight/address_map.h"
#include "highlight/segment_cache.h"
#include "highlight/tseg_table.h"
#include "lfs/lfs.h"

namespace hl {
namespace {

// 100 tertiary segments, 10 per volume, 256-block segments.
class AddressMapTest : public ::testing::Test {
 protected:
  AddressMap amap_{/*disk_blocks=*/100000, /*spb=*/256,
                   /*tertiary_nsegs=*/100, /*segs_per_volume=*/10};
};

TEST_F(AddressMapTest, ZoneClassification) {
  EXPECT_EQ(amap_.Classify(0), AddressMap::Zone::kDisk);
  EXPECT_EQ(amap_.Classify(99999), AddressMap::Zone::kDisk);
  EXPECT_EQ(amap_.Classify(100000), AddressMap::Zone::kDead);
  EXPECT_EQ(amap_.Classify(amap_.tertiary_base() - 1),
            AddressMap::Zone::kDead);
  EXPECT_EQ(amap_.Classify(amap_.tertiary_base()),
            AddressMap::Zone::kTertiary);
  EXPECT_EQ(amap_.Classify(kNoBlock - 1), AddressMap::Zone::kTertiary);
}

TEST_F(AddressMapTest, TertiaryRangeEndsAtSentinel) {
  // The last tertiary block is kNoBlock - 1: one address is sacrificed.
  EXPECT_EQ(amap_.tertiary_base() + 100u * 256u, kNoBlock);
}

TEST_F(AddressMapTest, TsegRoundTrip) {
  for (uint32_t tseg : {0u, 1u, 57u, 99u}) {
    uint32_t base = amap_.TsegBase(tseg);
    EXPECT_EQ(amap_.TsegOf(base), tseg);
    EXPECT_EQ(amap_.TsegOf(base + 255), tseg);
    EXPECT_EQ(amap_.OffsetInTseg(base + 100), 100u);
  }
}

TEST_F(AddressMapTest, VolumeZeroAtTopOfAddressSpace) {
  // Figure 4: volume 0's end is the largest block number; volume 1 sits
  // just below it.
  EXPECT_EQ(amap_.num_volumes(), 10u);
  EXPECT_EQ(amap_.VolumeOfTseg(99), 0u);
  EXPECT_EQ(amap_.VolumeOfTseg(90), 0u);
  EXPECT_EQ(amap_.VolumeOfTseg(89), 1u);
  EXPECT_EQ(amap_.VolumeOfTseg(0), 9u);
  EXPECT_EQ(amap_.FirstTsegOfVolume(0), 90u);
  EXPECT_EQ(amap_.FirstTsegOfVolume(9), 0u);
}

TEST_F(AddressMapTest, MediaAddressedWithIncreasingBlockNumbers) {
  // Within a volume, later slots sit at higher addresses and higher byte
  // offsets on the medium.
  uint32_t first = amap_.FirstTsegOfVolume(3);
  EXPECT_EQ(amap_.SlotInVolume(first), 0u);
  EXPECT_EQ(amap_.SlotInVolume(first + 9), 9u);
  EXPECT_EQ(amap_.ByteOffsetOnVolume(first), 0u);
  EXPECT_EQ(amap_.ByteOffsetOnVolume(first + 1), 256u * kBlockSize);
}

class CacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<SimDisk>("d0", 16 * 1024, Rz57Profile(),
                                      &clock_);
    LfsParams params;
    params.seg_size_blocks = 64;
    params.cache_max_segments = 4;
    params.tertiary_nsegs = 100;
    params.segs_per_volume = 10;
    params.num_volumes = 10;
    auto fs = Lfs::Mkfs(disk_.get(), &clock_, params);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(*fs);
  }

  SimClock clock_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<Lfs> fs_;
};

TEST_F(CacheFixture, AllocLookupEject) {
  SegmentCache cache(fs_.get(), CacheReplacement::kLru);
  ASSERT_TRUE(cache.Init().ok());
  EXPECT_EQ(cache.Capacity(), 4u);
  EXPECT_EQ(cache.Lookup(7), kNoSegment);

  Result<uint32_t> line = cache.AllocLine(7, /*staging=*/false);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(cache.Lookup(7), *line);
  // The ifile mirrors the tag.
  EXPECT_EQ(fs_->GetSegUsage(*line).cache_tseg, 7u);
  EXPECT_TRUE(fs_->GetSegUsage(*line).flags & kSegCached);

  ASSERT_TRUE(cache.Eject(7).ok());
  EXPECT_EQ(cache.Lookup(7), kNoSegment);
  EXPECT_EQ(fs_->GetSegUsage(*line).cache_tseg, kNoSegment);
}

TEST_F(CacheFixture, DuplicateAllocRejected) {
  SegmentCache cache(fs_.get(), CacheReplacement::kLru);
  ASSERT_TRUE(cache.Init().ok());
  ASSERT_TRUE(cache.AllocLine(7, false).ok());
  EXPECT_EQ(cache.AllocLine(7, false).status().code(), ErrorCode::kExists);
}

TEST_F(CacheFixture, LruEvictionPicksColdestLine) {
  SegmentCache cache(fs_.get(), CacheReplacement::kLru);
  ASSERT_TRUE(cache.Init().ok());
  for (uint32_t t = 0; t < 4; ++t) {
    clock_.Advance(1000);
    ASSERT_TRUE(cache.AllocLine(t, false).ok());
  }
  // Touch 0 so 1 becomes the LRU.
  clock_.Advance(1000);
  cache.Touch(0);
  clock_.Advance(1000);
  ASSERT_TRUE(cache.AllocLine(99, false).ok());
  EXPECT_EQ(cache.Lookup(1), kNoSegment) << "LRU line should be evicted";
  EXPECT_NE(cache.Lookup(0), kNoSegment);
  EXPECT_EQ(cache.Snapshot().evictions, 1u);
}

TEST_F(CacheFixture, StagingLinesArePinned) {
  SegmentCache cache(fs_.get(), CacheReplacement::kLru);
  ASSERT_TRUE(cache.Init().ok());
  for (uint32_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(cache.AllocLine(t, /*staging=*/true).ok());
  }
  // All four lines hold sole copies: nothing can be evicted or ejected.
  EXPECT_EQ(cache.AllocLine(99, false).status().code(), ErrorCode::kBusy);
  EXPECT_EQ(cache.Eject(0).code(), ErrorCode::kBusy);
  // Copy-out unpins.
  ASSERT_TRUE(cache.MarkCopiedOut(0).ok());
  EXPECT_TRUE(cache.Eject(0).ok());
}

TEST_F(CacheFixture, LeastWorthyPolicyEvictsUntouchedNewcomersFirst) {
  SegmentCache cache(fs_.get(), CacheReplacement::kLeastWorthyFirstTouch);
  ASSERT_TRUE(cache.Init().ok());
  for (uint32_t t = 0; t < 4; ++t) {
    clock_.Advance(1000);
    ASSERT_TRUE(cache.AllocLine(t, false).ok());
  }
  // Promote 0 and 1 by touching them twice; 2 and 3 stay "newcomers".
  for (int round = 0; round < 2; ++round) {
    clock_.Advance(1000);
    cache.Touch(0);
    cache.Touch(1);
  }
  clock_.Advance(1000);
  cache.Touch(2);  // Still only 1 touch beyond fetch... now 1 touch total.
  ASSERT_TRUE(cache.AllocLine(50, false).ok());
  // Victim must be 2 or 3 (newcomers), not the promoted 0/1.
  EXPECT_NE(cache.Lookup(0), kNoSegment);
  EXPECT_NE(cache.Lookup(1), kNoSegment);
}

TEST_F(CacheFixture, RetagMovesLineToNewTseg) {
  SegmentCache cache(fs_.get(), CacheReplacement::kLru);
  ASSERT_TRUE(cache.Init().ok());
  Result<uint32_t> line = cache.AllocLine(5, /*staging=*/true);
  ASSERT_TRUE(line.ok());
  ASSERT_TRUE(cache.Retag(5, 17).ok());
  EXPECT_EQ(cache.Lookup(5), kNoSegment);
  EXPECT_EQ(cache.Lookup(17), *line);
  EXPECT_EQ(fs_->GetSegUsage(*line).cache_tseg, 17u);
}

TEST_F(CacheFixture, DirectoryRebuiltFromIfileTags) {
  uint32_t clean_line = kNoSegment;
  {
    SegmentCache cache(fs_.get(), CacheReplacement::kLru);
    ASSERT_TRUE(cache.Init().ok());
    ASSERT_TRUE(cache.AllocLine(33, /*staging=*/true).ok());
    Result<uint32_t> clean = cache.AllocLine(34, /*staging=*/false);
    ASSERT_TRUE(clean.ok());
    clean_line = *clean;
  }
  // A fresh cache instance (as after remount) restores the staging line,
  // pinned, and frees the clean one: its tag may predate a later in-place
  // fetch into the line, and the tertiary copy is authoritative.
  SegmentCache cache2(fs_.get(), CacheReplacement::kLru);
  ASSERT_TRUE(cache2.Init().ok());
  EXPECT_NE(cache2.Lookup(33), kNoSegment);
  EXPECT_EQ(cache2.Lookup(34), kNoSegment);
  EXPECT_EQ(cache2.Used(), 1u);
  EXPECT_EQ(cache2.Eject(33).code(), ErrorCode::kBusy);
  const SegUsage& u = fs_->GetSegUsage(clean_line);
  EXPECT_FALSE(u.flags & kSegCached);
  EXPECT_EQ(u.cache_tseg, kNoSegment);
}

TEST_F(CacheFixture, TsegTableLoadsStoresAndAccounts) {
  AddressMap amap(fs_->superblock().disk_blocks, 64, 100, 10);
  TsegTable table(fs_.get(), &amap);
  ASSERT_TRUE(table.Load().ok());
  EXPECT_EQ(table.size(), 100u);
  EXPECT_TRUE(table.Get(0).flags & kSegClean);

  // Accounting via a tertiary address.
  uint32_t daddr = amap.TsegBase(42) + 3;
  table.OnAccounting(daddr, 8192);
  EXPECT_EQ(table.Get(42).live_bytes, 8192u);
  table.OnAccounting(daddr, -100000);  // Clamped at zero.
  EXPECT_EQ(table.Get(42).live_bytes, 0u);

  table.SetFlags(42, kSegDirty, kSegClean);
  ASSERT_TRUE(table.Store().ok());

  TsegTable reloaded(fs_.get(), &amap);
  ASSERT_TRUE(reloaded.Load().ok());
  EXPECT_TRUE(reloaded.Get(42).flags & kSegDirty);
  EXPECT_FALSE(reloaded.Get(42).flags & kSegClean);
}

TEST_F(CacheFixture, NextFreshTsegConsumesVolumeZeroFirst) {
  AddressMap amap(fs_->superblock().disk_blocks, 64, 100, 10);
  TsegTable table(fs_.get(), &amap);
  ASSERT_TRUE(table.Load().ok());
  // Volume 0 owns tsegs [90, 100); allocation starts there.
  EXPECT_EQ(table.NextFreshTseg({}), 90u);
  table.SetFlags(90, kSegDirty, kSegClean);
  EXPECT_EQ(table.NextFreshTseg({}), 91u);
  // Skipping volume 0 moves to volume 1's first segment.
  EXPECT_EQ(table.NextFreshTseg({0}), 80u);
}

}  // namespace
}  // namespace hl

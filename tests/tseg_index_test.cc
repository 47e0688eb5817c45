// Tests for the TsegTable's O(1) bookkeeping indices: coalesced Store()
// round-trips, accounting-anomaly counters, the replica index, and a
// randomized property test pinning every indexed query to its linear-scan
// reference implementation.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "blockdev/sim_disk.h"
#include "highlight/address_map.h"
#include "highlight/tseg_table.h"
#include "lfs/lfs.h"
#include "tseg_reference.h"
#include "util/rng.h"

namespace hl {
namespace {

// 100 tertiary segments, 10 per volume (volume 0 owns tsegs [90, 100)).
class TsegIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<SimDisk>("d0", 16 * 1024, Rz57Profile(),
                                      &clock_);
    LfsParams params;
    params.seg_size_blocks = 64;
    params.tertiary_nsegs = 100;
    params.segs_per_volume = 10;
    params.num_volumes = 10;
    auto fs = Lfs::Mkfs(disk_.get(), &clock_, params);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(*fs);
    amap_ = std::make_unique<AddressMap>(fs_->superblock().disk_blocks, 64,
                                         100, 10);
    table_ = std::make_unique<TsegTable>(fs_.get(), amap_.get());
    ASSERT_TRUE(table_->Load().ok());
  }

  static void ExpectEntriesEqual(const TsegTable& a, const TsegTable& b) {
    ASSERT_EQ(a.size(), b.size());
    for (uint32_t t = 0; t < a.size(); ++t) {
      const SegUsage& x = a.Get(t);
      const SegUsage& y = b.Get(t);
      EXPECT_EQ(x.live_bytes, y.live_bytes) << "tseg " << t;
      EXPECT_EQ(x.flags, y.flags) << "tseg " << t;
      EXPECT_EQ(x.avail_bytes, y.avail_bytes) << "tseg " << t;
      EXPECT_EQ(x.cache_tseg, y.cache_tseg) << "tseg " << t;
      EXPECT_EQ(x.write_time, y.write_time) << "tseg " << t;
    }
  }

  SimClock clock_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<Lfs> fs_;
  std::unique_ptr<AddressMap> amap_;
  std::unique_ptr<TsegTable> table_;
};

TEST_F(TsegIndexTest, StoreCoalescesAdjacentDirtyEntriesAndRoundTrips) {
  // One 50-entry contiguous run plus three scattered entries.
  for (uint32_t t = 10; t < 60; ++t) {
    table_->SetFlags(t, kSegDirty, kSegClean);
    table_->SetWriteTime(t, 1000 + t);
    table_->OnAccounting(amap_->TsegBase(t) + 1, 4096);
  }
  for (uint32_t t : {2u, 70u, 95u}) {
    table_->SetFlags(t, kSegDirty, kSegClean);
    table_->SetAvailBytes(t, 12345);
  }
  ASSERT_TRUE(table_->Store().ok());
  // 53 dirty entries in 4 adjacency runs -> 4 writes, not 53.
  EXPECT_EQ(table_->stats().store_writes.value(), 4u);
  EXPECT_EQ(table_->stats().store_entries.value(), 53u);

  TsegTable reloaded(fs_.get(), amap_.get());
  ASSERT_TRUE(reloaded.Load().ok());
  ExpectEntriesEqual(*table_, reloaded);
  // The reloaded table's rebuilt indices agree too.
  EXPECT_EQ(reloaded.TotalLiveBytes(), table_->TotalLiveBytes());
  EXPECT_EQ(reloaded.DirtyTsegCount(), table_->DirtyTsegCount());
  EXPECT_EQ(reloaded.NextFreshTseg({}), table_->NextFreshTseg({}));
}

TEST_F(TsegIndexTest, StoreSplitsRunsLongerThanABlock) {
  // kBlockSize / 24 = 170 entries per write: an 85-entry run fits in one
  // write; dirtying all 100 entries (one run) still takes a single write
  // here, but a table larger than a block's worth must split. Emulate by
  // dirtying all 100 (< 170): exactly 1 write.
  for (uint32_t t = 0; t < 100; ++t) {
    table_->SetAvailBytes(t, t);
  }
  ASSERT_TRUE(table_->Store().ok());
  EXPECT_EQ(table_->stats().store_writes.value(), 1u);
  EXPECT_EQ(table_->stats().store_entries.value(), 100u);

  TsegTable reloaded(fs_.get(), amap_.get());
  ASSERT_TRUE(reloaded.Load().ok());
  ExpectEntriesEqual(*table_, reloaded);
}

TEST_F(TsegIndexTest, AccountingAnomaliesAreCountedAndClamped) {
  // A disk-zone address wraps TsegOf far out of range: dropped + counted.
  table_->OnAccounting(/*daddr=*/0, 4096);
  EXPECT_EQ(table_->stats().accounting_dropped.value(), 1u);
  EXPECT_EQ(table_->TotalLiveBytes(), 0u);

  // Underflow clamps at zero.
  uint32_t daddr = amap_->TsegBase(42) + 3;
  table_->OnAccounting(daddr, 8192);
  table_->OnAccounting(daddr, -100000);
  EXPECT_EQ(table_->Get(42).live_bytes, 0u);
  EXPECT_EQ(table_->stats().underflow_clamped.value(), 1u);
  EXPECT_EQ(table_->TotalLiveBytes(), 0u);

  // Overflow clamps at UINT32_MAX instead of wrapping.
  table_->OnAccounting(daddr, static_cast<int64_t>(UINT32_MAX));
  EXPECT_EQ(table_->Get(42).live_bytes, UINT32_MAX);
  EXPECT_EQ(table_->stats().overflow_clamped.value(), 0u);
  table_->OnAccounting(daddr, 1000);
  EXPECT_EQ(table_->Get(42).live_bytes, UINT32_MAX);
  EXPECT_EQ(table_->stats().overflow_clamped.value(), 1u);
  EXPECT_EQ(table_->TotalLiveBytes(), static_cast<uint64_t>(UINT32_MAX));
  EXPECT_EQ(table_->TotalLiveBytes(), TotalLiveBytesLinear(*table_));
}

TEST_F(TsegIndexTest, ReplicaIndexFollowsFlagClearsAndRepointing) {
  table_->SetReplicaOf(5, 90);
  table_->SetReplicaOf(6, 90);
  table_->SetReplicaOf(17, 90);
  EXPECT_EQ(table_->ReplicasOf(90), (std::vector<uint32_t>{5, 6, 17}));
  EXPECT_EQ(table_->ReplicasOf(90), ReplicasOfLinear(*table_, 90));

  // Re-pointing a replica moves it between primaries.
  table_->SetReplicaOf(5, 91);
  EXPECT_EQ(table_->ReplicasOf(90), (std::vector<uint32_t>{6, 17}));
  EXPECT_EQ(table_->ReplicasOf(91), (std::vector<uint32_t>{5}));

  // Clearing the replica flag (tertiary-cleaner release) removes it.
  table_->SetFlags(6, kSegClean, kSegDirty | kSegReplica);
  EXPECT_EQ(table_->ReplicasOf(90), (std::vector<uint32_t>{17}));
  EXPECT_EQ(table_->ReplicasOf(90), ReplicasOfLinear(*table_, 90));
  EXPECT_EQ(table_->ReplicasOf(91), ReplicasOfLinear(*table_, 91));
}

TEST_F(TsegIndexTest, CleanCountTracksAllocationAndReclaim) {
  EXPECT_EQ(table_->CleanCount(0), 10u);
  uint32_t t = table_->NextFreshTseg({});
  ASSERT_EQ(t, 90u);
  table_->SetFlags(t, kSegDirty, kSegClean);
  EXPECT_EQ(table_->CleanCount(0), 9u);
  table_->SetFlags(t, kSegClean, kSegDirty);
  EXPECT_EQ(table_->CleanCount(0), 10u);
  // Cursor repaired: the reclaimed slot is allocatable again.
  EXPECT_EQ(table_->NextFreshTseg({}), 90u);
}

// Randomized allocate/clean/replica/quarantine/accounting soup: every
// indexed query must agree with its linear-scan reference at every step,
// and a Store + reload must rebuild identical indices.
TEST_F(TsegIndexTest, IndexedQueriesMatchLinearReferenceUnderRandomOps) {
  Rng rng(0x7E59u);
  auto random_excluded = [&]() {
    std::set<uint32_t> excl;
    uint64_t n = rng.Below(4);
    for (uint64_t i = 0; i < n; ++i) {
      excl.insert(static_cast<uint32_t>(rng.Below(10)));
    }
    return excl;
  };

  for (int op = 0; op < 3000; ++op) {
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2: {  // Allocate (the migration-pass pattern).
        std::set<uint32_t> excl = random_excluded();
        uint32_t t = table_->NextFreshTseg(excl);
        if (t != kNoSegment) {
          table_->SetFlags(t, kSegDirty, kSegClean);
          table_->SetWriteTime(t, static_cast<uint64_t>(op));
          table_->OnAccounting(amap_->TsegBase(t) + 1,
                               static_cast<int64_t>(rng.Below(64)) * 4096);
        }
        break;
      }
      case 3: {  // Reclaim (tertiary-cleaner pattern).
        uint32_t t = static_cast<uint32_t>(rng.Below(100));
        table_->SetFlags(t, kSegClean, kSegDirty | kSegReplica);
        break;
      }
      case 4: {  // Replica placement.
        uint32_t t = static_cast<uint32_t>(rng.Below(100));
        uint32_t primary = static_cast<uint32_t>(rng.Below(100));
        if (primary != t) {
          table_->SetReplicaOf(t, primary);
        }
        break;
      }
      case 5:
      case 6: {  // Accounting, including clamp-triggering deltas.
        uint32_t t = static_cast<uint32_t>(rng.Below(100));
        int64_t delta;
        switch (rng.Below(8)) {
          case 0:
            delta = -(1ll << 33);  // Underflow.
            break;
          case 1:
            delta = 1ll << 33;  // Overflow.
            break;
          default:
            delta = static_cast<int64_t>(rng.Below(256 * 1024)) - 64 * 1024;
        }
        table_->OnAccounting(amap_->TsegBase(t) + rng.Below(64), delta);
        break;
      }
      case 7: {  // Out-of-range accounting (must be dropped, not crash).
        table_->OnAccounting(static_cast<uint32_t>(rng.Below(1000)), 4096);
        break;
      }
      default: {  // Retire a volume's clean segments (EOM pattern).
        uint32_t volume = static_cast<uint32_t>(rng.Below(10));
        uint32_t first = amap_->FirstTsegOfVolume(volume);
        for (uint32_t s = 0; s < 10; ++s) {
          if (table_->Get(first + s).flags & kSegClean) {
            table_->SetFlags(first + s, kSegDirty, kSegClean);
          }
        }
        break;
      }
    }

    // Every indexed query agrees with its linear reference.
    std::set<uint32_t> excl = random_excluded();
    uint32_t preferred = rng.Below(2) == 0
                             ? static_cast<uint32_t>(rng.Below(10))
                             : kNoSegment;
    ASSERT_EQ(table_->NextFreshTseg(excl, preferred),
              NextFreshTsegLinear(*table_, *amap_, excl, preferred))
        << "op " << op;
    ASSERT_EQ(table_->TotalLiveBytes(), TotalLiveBytesLinear(*table_))
        << "op " << op;
    ASSERT_EQ(table_->DirtyTsegCount(), DirtyTsegCountLinear(*table_))
        << "op " << op;
    uint32_t primary = static_cast<uint32_t>(rng.Below(100));
    ASSERT_EQ(table_->ReplicasOf(primary), ReplicasOfLinear(*table_, primary))
        << "op " << op;
    uint32_t volume = static_cast<uint32_t>(rng.Below(10));
    uint32_t clean = 0;
    uint32_t first = amap_->FirstTsegOfVolume(volume);
    for (uint32_t s = 0; s < 10; ++s) {
      clean += (table_->Get(first + s).flags & kSegClean) ? 1 : 0;
    }
    ASSERT_EQ(table_->CleanCount(volume), clean) << "op " << op;

    if (op % 500 == 499) {  // Periodic persist + index rebuild.
      ASSERT_TRUE(table_->Store().ok());
      TsegTable reloaded(fs_.get(), amap_.get());
      ASSERT_TRUE(reloaded.Load().ok());
      ExpectEntriesEqual(*table_, reloaded);
      ASSERT_EQ(reloaded.TotalLiveBytes(), table_->TotalLiveBytes());
      ASSERT_EQ(reloaded.DirtyTsegCount(), table_->DirtyTsegCount());
      ASSERT_EQ(reloaded.NextFreshTseg(excl, preferred),
                table_->NextFreshTseg(excl, preferred));
    }
  }
}

}  // namespace
}  // namespace hl

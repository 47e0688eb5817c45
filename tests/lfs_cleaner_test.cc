// Cleaner tests: liveness, space reclamation, data integrity across cleaning,
// and operation under log pressure.

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "blockdev/sim_disk.h"
#include "highlight/highlight.h"
#include "lfs/cleaner.h"
#include "lfs/fsck.h"
#include "lfs/lfs.h"
#include "util/rng.h"

namespace hl {
namespace {

constexpr uint32_t kTestDiskBlocks = 8 * 1024;  // 32 MB.

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

class LfsCleanerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<SimDisk>("d0", kTestDiskBlocks, Rz57Profile(),
                                      &clock_);
    params_.seg_size_blocks = 64;  // 256 KB segments.
    auto fs = Lfs::Mkfs(disk_.get(), &clock_, params_);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(*fs);
  }

  SimClock clock_;
  LfsParams params_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<Lfs> fs_;
};

TEST_F(LfsCleanerTest, ReclaimsFullyDeadSegments) {
  // Fill a few segments, delete everything, clean.
  for (int i = 0; i < 4; ++i) {
    Result<uint32_t> ino = fs_->Create("/junk" + std::to_string(i));
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(256 * 1024, i)).ok());
  }
  ASSERT_TRUE(fs_->Checkpoint().ok());
  uint32_t clean_low = fs_->CleanSegmentCount();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fs_->Unlink("/junk" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(fs_->Checkpoint().ok());

  Cleaner cleaner(fs_.get());
  Result<uint32_t> cleaned = cleaner.Clean(16);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  EXPECT_GT(*cleaned, 0u);
  EXPECT_GT(fs_->CleanSegmentCount(), clean_low);
}

TEST_F(LfsCleanerTest, PreservesLiveDataWhenCleaningMixedSegments) {
  // Interleave two files so segments hold blocks of both, then delete one.
  Result<uint32_t> keep = fs_->Create("/keep");
  Result<uint32_t> kill = fs_->Create("/kill");
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(kill.ok());
  auto keep_data = Pattern(512 * 1024, 42);
  auto kill_data = Pattern(512 * 1024, 43);
  for (size_t off = 0; off < keep_data.size(); off += 64 * 1024) {
    ASSERT_TRUE(fs_->Write(*keep, off,
                           std::span<const uint8_t>(keep_data.data() + off,
                                                    64 * 1024))
                    .ok());
    ASSERT_TRUE(fs_->Write(*kill, off,
                           std::span<const uint8_t>(kill_data.data() + off,
                                                    64 * 1024))
                    .ok());
  }
  ASSERT_TRUE(fs_->Checkpoint().ok());
  ASSERT_TRUE(fs_->Unlink("/kill").ok());
  ASSERT_TRUE(fs_->Checkpoint().ok());

  Cleaner cleaner(fs_.get());
  ASSERT_TRUE(cleaner.Clean(32).ok());
  EXPECT_GT(cleaner.stats().blocks_live, 0u);

  fs_->FlushBufferCache();
  std::vector<uint8_t> out(keep_data.size());
  Result<size_t> n = fs_->Read(*keep, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, keep_data) << "cleaner corrupted live data";
}

TEST_F(LfsCleanerTest, CleanedDataSurvivesRemount) {
  Result<uint32_t> keep = fs_->Create("/keep");
  ASSERT_TRUE(keep.ok());
  auto data = Pattern(256 * 1024, 44);
  ASSERT_TRUE(fs_->Write(*keep, 0, data).ok());
  // Churn: overwrite repeatedly so old segments hold dead versions.
  for (int round = 0; round < 6; ++round) {
    data = Pattern(256 * 1024, 45 + round);
    ASSERT_TRUE(fs_->Write(*keep, 0, data).ok());
    ASSERT_TRUE(fs_->Sync().ok());
  }
  ASSERT_TRUE(fs_->Checkpoint().ok());
  Cleaner cleaner(fs_.get());
  ASSERT_TRUE(cleaner.Clean(32).ok());

  fs_.reset();
  auto fs = Lfs::Mount(disk_.get(), &clock_, params_);
  ASSERT_TRUE(fs.ok());
  fs_ = std::move(*fs);

  Result<uint32_t> found = fs_->LookupPath("/keep");
  ASSERT_TRUE(found.ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(fs_->Read(*found, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(LfsCleanerTest, LogSurvivesFillDeleteCycles) {
  // Work the log through several fill/delete/clean cycles to exercise wrap
  // around; between cycles the cleaner runs at a water mark, as HighLight
  // runs it.
  Cleaner cleaner(fs_.get(), CleanerPolicy::kGreedy);
  for (int cycle = 0; cycle < 6; ++cycle) {
    if (fs_->CleanSegmentCount() * 2 < fs_->NumSegments()) {
      Result<uint32_t> cleaned = cleaner.CleanUntil(fs_->NumSegments() / 2);
      ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
    }
    std::string path = "/cycle" + std::to_string(cycle);
    Result<uint32_t> ino = fs_->Create(path);
    ASSERT_TRUE(ino.ok()) << path << ": " << ino.status().ToString();
    // ~8 MB on a 32 MB disk each cycle.
    Status w = fs_->Write(*ino, 0, Pattern(8 << 20, 50 + cycle));
    ASSERT_TRUE(w.ok()) << "cycle " << cycle << ": " << w.ToString();
    ASSERT_TRUE(fs_->Checkpoint().ok());
    // Verify, then delete to create garbage.
    std::vector<uint8_t> out(8 << 20);
    ASSERT_TRUE(fs_->Read(*ino, 0, out).ok());
    EXPECT_EQ(out, Pattern(8 << 20, 50 + cycle));
    ASSERT_TRUE(fs_->Unlink(path).ok());
    ASSERT_TRUE(fs_->Checkpoint().ok());
  }
}

TEST_F(LfsCleanerTest, CostBenefitPrefersOldColdSegments) {
  // Build two dirty segments: one mostly dead, one mostly live; cost-benefit
  // must clean the mostly-dead one first.
  Result<uint32_t> a = fs_->Create("/a");
  Result<uint32_t> b = fs_->Create("/b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(fs_->Write(*a, 0, Pattern(256 * 1024, 1)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->Write(*b, 0, Pattern(256 * 1024, 2)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  // Kill most of /a: its segments become mostly dead.
  ASSERT_TRUE(fs_->Truncate(*a, 16 * 1024).ok());
  ASSERT_TRUE(fs_->Checkpoint().ok());

  Cleaner cleaner(fs_.get(), CleanerPolicy::kCostBenefit);
  ASSERT_TRUE(cleaner.Clean(1).ok());
  EXPECT_EQ(cleaner.stats().segments_cleaned, 1u);
  // The cleaned segment carried few live blocks relative to a full segment.
  EXPECT_LT(cleaner.stats().blocks_live, 32u);
}

TEST_F(LfsCleanerTest, InodesRelocatedWhenSegmentCleaned) {
  // Create files, checkpoint (inodes land in a segment), make the segment
  // mostly dead, clean it, and make sure files are still reachable.
  std::vector<uint32_t> inos;
  for (int i = 0; i < 20; ++i) {
    Result<uint32_t> ino = fs_->Create("/n" + std::to_string(i));
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(16 * 1024, 60 + i)).ok());
    inos.push_back(*ino);
  }
  ASSERT_TRUE(fs_->Checkpoint().ok());
  // Delete half the files; their segments hold a mix of dead data and the
  // still-live inodes of the others.
  for (int i = 0; i < 20; i += 2) {
    ASSERT_TRUE(fs_->Unlink("/n" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(fs_->Checkpoint().ok());
  Cleaner cleaner(fs_.get());
  ASSERT_TRUE(cleaner.Clean(32).ok());

  for (int i = 1; i < 20; i += 2) {
    Result<uint32_t> found = fs_->LookupPath("/n" + std::to_string(i));
    ASSERT_TRUE(found.ok());
    std::vector<uint8_t> out(16 * 1024);
    ASSERT_TRUE(fs_->Read(*found, 0, out).ok());
    EXPECT_EQ(out, Pattern(16 * 1024, 60 + i));
  }
}

TEST_F(LfsCleanerTest, InodeScanRelocatesOnlyMappedInodes) {
  // The checkpoint puts root, /a, /b and /big in one inode block. Later
  // partials carry new copies of /b and /big (and of root, via the create
  // of /c), so that block ends up with one live inode (/a), stale copies
  // and free slots.
  Result<uint32_t> a = fs_->Create("/a");
  Result<uint32_t> b = fs_->Create("/b");
  Result<uint32_t> big = fs_->Create("/big");
  ASSERT_TRUE(a.ok() && b.ok() && big.ok());
  ASSERT_TRUE(fs_->Checkpoint().ok());
  Result<uint32_t> block_daddr = fs_->InodeDaddr(*a);
  ASSERT_TRUE(block_daddr.ok());
  ASSERT_EQ(*fs_->InodeDaddr(*b), *block_daddr);
  uint32_t seg = fs_->superblock().BlockToSeg(*block_daddr);
  // Fill the rest of the segment so every later copy lands elsewhere.
  ASSERT_TRUE(fs_->Write(*big, 0, Pattern(80 * kBlockSize, 70)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_NE(fs_->cur_seg(), seg);
  ASSERT_TRUE(fs_->Create("/c").ok());
  ASSERT_TRUE(fs_->Write(*b, 0, Pattern(100, 71)).ok());
  ASSERT_TRUE(fs_->Checkpoint().ok());
  ASSERT_NE(*fs_->InodeDaddr(*b), *block_daddr);
  ASSERT_NE(*fs_->InodeDaddr(kRootInode), *block_daddr);
  ASSERT_NE(*fs_->InodeDaddr(kIfileInode), *block_daddr);

  // Every inode block in the segment: the only slot whose map entry still
  // points at its block is /a's.
  Result<std::vector<ParsedPartial>> partials = fs_->ParseSegment(seg);
  ASSERT_TRUE(partials.ok());
  uint32_t mapped = 0;
  uint32_t stale = 0;
  uint32_t free_slots = 0;
  std::vector<uint8_t> block(kBlockSize);
  for (const ParsedPartial& p : *partials) {
    for (uint32_t daddr : p.summary.inode_daddrs) {
      ASSERT_TRUE(disk_->ReadBlocks(daddr, 1, block).ok());
      for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
        Result<DInode> d = DInode::Deserialize(std::span<const uint8_t>(
            block.data() + slot * kInodeSize, kInodeSize));
        ASSERT_TRUE(d.ok());
        Result<uint32_t> at = fs_->InodeDaddr(d->ino);
        if (d->ino == kNoInode) {
          ++free_slots;
        } else if (at.ok() && *at == daddr) {
          ++mapped;
          EXPECT_EQ(d->ino, *a);
        } else {
          ++stale;
        }
      }
    }
  }
  EXPECT_EQ(mapped, 1u);
  EXPECT_GE(stale, 3u);  // /b, /big and root at least.
  EXPECT_GT(free_slots, 0u);

  Cleaner cleaner(fs_.get(), CleanerPolicy::kGreedy);
  MetricsRegistry registry;
  cleaner.AttachMetrics(&registry);
  // Greedy takes the emptiest candidate, which is this segment.
  ASSERT_EQ(fs_->GetSegUsage(seg).flags & kSegClean, 0);
  Result<uint32_t> cleaned = cleaner.Clean(1);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  ASSERT_TRUE(fs_->GetSegUsage(seg).flags & kSegClean);
  EXPECT_EQ(registry.counter("cleaner.inodes_relocated").value(), 1u);
  EXPECT_NE(*fs_->InodeDaddr(*a), *block_daddr);
  std::vector<uint8_t> out(100);
  ASSERT_TRUE(fs_->Read(*b, 0, out).ok());
  EXPECT_EQ(out, Pattern(100, 71));
}

bool OkOrNoSpace(const Status& s) {
  return s.ok() || s.code() == ErrorCode::kNoSpace;
}

// Fresh bytes for step `step` of a run seeded `seed`, 64-192 KB long.
std::vector<uint8_t> StepBytes(Rng& rng, uint64_t seed, uint32_t step) {
  std::vector<uint8_t> data((64 + rng.Below(129)) * 1024);
  Rng fill(seed * 1000003 + step);
  for (size_t i = 0; i < data.size(); i += 8) {
    uint64_t v = fill.Next();
    std::memcpy(data.data() + i, &v, 8);
  }
  return data;
}

// A disk small enough that the log runs out of clean segments between
// water-mark cleanings, with the cleaner's own relocation Sync among the
// writers that run out. The log writer does no cleaning of its own: every
// write and sync returns OK or kNoSpace, and every byte stays readable.
TEST(CleanerNoSpaceTest, NestedCleanNeverRunsAndDataSurvives) {
  SimClock clock;
  SimDisk disk("d0", 2048, Rz57Profile(), &clock);  // 31 segments.
  LfsParams params;
  params.seg_size_blocks = 64;
  Result<std::unique_ptr<Lfs>> fs_or = Lfs::Mkfs(&disk, &clock, params);
  ASSERT_TRUE(fs_or.ok());
  std::unique_ptr<Lfs> fs = std::move(fs_or).value();
  Cleaner cleaner(fs.get());

  constexpr uint32_t kFiles = 46;
  Rng rng(2);
  std::map<uint32_t, std::vector<uint8_t>> model;
  std::vector<uint32_t> inos;
  for (uint32_t step = 0; step < 300; ++step) {
    if (inos.size() < kFiles) {
      Result<uint32_t> ino = fs->Create("/f" + std::to_string(inos.size()));
      ASSERT_TRUE(ino.ok()) << ino.status().ToString();
      inos.push_back(*ino);
      model[*ino] = {};
    }
    // Rewrite a random file with 64-192 KB of fresh bytes. The bytes land
    // in the dirty map before any flush, so a kNoSpace from the write's
    // auto-flush leaves them readable.
    uint32_t ino = inos[rng.Below(inos.size())];
    std::vector<uint8_t> data = StepBytes(rng, 2, step);
    ASSERT_TRUE(fs->Truncate(ino, 0).ok());
    Status wrote = fs->Write(ino, 0, data);
    ASSERT_TRUE(OkOrNoSpace(wrote)) << wrote.ToString();
    model[ino] = std::move(data);
    if (step % 5 == 0) {
      Status synced = fs->Sync();
      ASSERT_TRUE(OkOrNoSpace(synced)) << synced.ToString();
    }
    // Clean from 30% up to 50% clean segments.
    if (fs->CleanSegmentCount() * 100 < 30 * fs->NumSegments()) {
      Result<uint32_t> cleaned =
          cleaner.CleanUntil(50 * fs->NumSegments() / 100);
      EXPECT_TRUE(OkOrNoSpace(cleaned.status()))
          << "step " << step << ": " << cleaned.status().ToString();
    }
  }
  for (const auto& [ino, want] : model) {
    std::vector<uint8_t> out(want.size());
    Result<size_t> n = fs->Read(ino, 0, out);
    EXPECT_TRUE(n.ok() && *n == want.size())
        << "ino " << ino << ": " << n.status().ToString();
    EXPECT_TRUE(!n.ok() || out == want)
        << "ino " << ino << " reads back wrong bytes with an OK status";
  }
  FsckReport report = CheckFs(*fs);
  EXPECT_TRUE(report.clean())
      << report.errors.size() << " errors, first: " << report.errors[0];
}

// The same pressure through HighLightFs, sized as the 55-file probe: a
// 31-segment log beside 4 cache lines, 55 files rewritten with 64-192 KB,
// a Sync every 5th step and CleanUntil from 30% to 50% clean. A log writer
// that cleaned inside its flush marked segments clean before the blocks it
// moved were durable, so the image held blocks claimed by two inodes and a
// remount lost files. Every call must return OK or kNoSpace, CheckFs must
// be clean before and after a remount, and every file not rewritten since
// the last Sync that returned OK must read back exact. 150 steps leave a
// good share of files in that state: once the log has no clean segment
// left, the cleaner's own relocation Sync gets kNoSpace too, so later syncs
// fail and every later rewrite drops a file from the check.
TEST(HighLightNoSpaceTest, FullLogReturnsNoSpaceAndSyncedFilesSurviveRemount) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimClock clock;
    Result<HighLightConfig> config = HighLightConfig::Builder()
                                         .AddDisk(Rz57Profile(), 2048 + 4 * 64)
                                         .AddJukebox(Hp6300MoProfile())
                                         .SegSizeBlocks(64)
                                         .CacheMaxSegments(4)
                                         .Build();
    ASSERT_TRUE(config.ok()) << config.status().ToString();
    Result<std::unique_ptr<HighLightFs>> made =
        HighLightFs::Create(*config, &clock);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    std::unique_ptr<HighLightFs> hl = std::move(made).value();
    Lfs& fs = hl->fs();

    constexpr uint32_t kFiles = 55;
    Rng rng(seed);
    std::map<uint32_t, std::vector<uint8_t>> model;
    std::map<uint32_t, std::vector<uint8_t>> synced;  // As of the last OK.
    std::vector<uint32_t> inos;
    auto sync = [&](Status s) {
      EXPECT_TRUE(OkOrNoSpace(s)) << s.ToString();
      if (s.ok()) {
        synced = model;
      }
    };
    for (uint32_t step = 0; step < 150; ++step) {
      if (inos.size() < kFiles) {
        Result<uint32_t> ino = fs.Create("/f" + std::to_string(inos.size()));
        ASSERT_TRUE(ino.ok()) << ino.status().ToString();
        inos.push_back(*ino);
        model[*ino] = {};
      }
      uint32_t ino = inos[rng.Below(inos.size())];
      std::vector<uint8_t> data = StepBytes(rng, seed, step);
      ASSERT_TRUE(fs.Truncate(ino, 0).ok());
      Status wrote = fs.Write(ino, 0, data);
      ASSERT_TRUE(OkOrNoSpace(wrote)) << "step " << step << ": "
                                      << wrote.ToString();
      model[ino] = std::move(data);
      if (step % 5 == 0) {
        sync(fs.Sync());
      }
      if (fs.CleanSegmentCount() * 100 < 30 * fs.NumSegments()) {
        Result<uint32_t> cleaned = hl->CleanUntil(50 * fs.NumSegments() / 100);
        ASSERT_TRUE(OkOrNoSpace(cleaned.status()))
            << "step " << step << ": " << cleaned.status().ToString();
      }
    }
    sync(fs.Sync());
    Status checkpointed = fs.Checkpoint();
    ASSERT_TRUE(OkOrNoSpace(checkpointed)) << checkpointed.ToString();
    for (const auto& [ino, want] : model) {
      std::vector<uint8_t> out(want.size());
      Result<size_t> n = fs.Read(ino, 0, out);
      ASSERT_TRUE(n.ok()) << "ino " << ino << ": " << n.status().ToString();
      EXPECT_TRUE(*n == want.size() && out == want) << "ino " << ino;
    }
    FsckReport before = CheckFs(fs);
    EXPECT_TRUE(before.clean()) << before.errors.size()
                                << " errors, first: " << before.errors[0];

    ASSERT_TRUE(hl->Remount().ok());
    FsckReport after = CheckFs(hl->fs());
    EXPECT_TRUE(after.clean()) << after.errors.size()
                               << " errors, first: " << after.errors[0];
    uint32_t checked = 0;
    for (const auto& [ino, want] : synced) {
      if (model.at(ino) != want) {
        continue;  // Rewritten after the last sync that returned OK.
      }
      std::vector<uint8_t> out(want.size());
      Result<size_t> n = hl->fs().Read(ino, 0, out);
      EXPECT_TRUE(n.ok()) << "ino " << ino << ": " << n.status().ToString();
      EXPECT_TRUE(!n.ok() || (*n == want.size() && out == want))
          << "ino " << ino << " reads back wrong after the remount";
      ++checked;
    }
    EXPECT_GE(checked, 10u);
  }
}

}  // namespace
}  // namespace hl

// End-to-end HighLight tests: migrate files to tertiary storage, demand-fetch
// them back through the cache, survive end-of-medium, partial-file
// migration, and remount with tertiary-resident files.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "highlight/highlight.h"
#include "lfs/fsck.h"
#include "tseg_reference.h"
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

JukeboxProfile SmallJukebox(int slots, uint64_t volume_bytes) {
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = slots;
  j.volume_capacity_bytes = volume_bytes;
  return j;
}

class HighLightTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(/*delayed=*/false); }

  void Build(bool delayed) {
    HighLightConfig config;
    config.disks.push_back({Rz57Profile(), 16 * 1024});  // 64 MB.
    // 4 volumes x 20 segments of 256 KB = 5 MB per volume.
    config.jukeboxes.push_back(
        {SmallJukebox(4, 20ull * 64 * kBlockSize), false, 20});
    config.lfs.seg_size_blocks = 64;
    config.lfs.cache_max_segments = 8;
    config.migrator.delayed_copyout = delayed;
    auto hl = HighLightFs::Create(config, &clock_);
    ASSERT_TRUE(hl.ok()) << hl.status().ToString();
    hl_ = std::move(*hl);
  }

  // Creates a file with deterministic contents.
  uint32_t MakeFile(const std::string& path, size_t bytes, uint64_t seed) {
    Result<uint32_t> ino = hl_->fs().Create(path);
    EXPECT_TRUE(ino.ok()) << ino.status().ToString();
    EXPECT_TRUE(hl_->fs().Write(*ino, 0, Pattern(bytes, seed)).ok());
    return *ino;
  }

  void ExpectFileContents(const std::string& path, size_t bytes,
                          uint64_t seed) {
    Result<uint32_t> ino = hl_->fs().LookupPath(path);
    ASSERT_TRUE(ino.ok()) << path;
    std::vector<uint8_t> out(bytes);
    Result<size_t> n = hl_->fs().Read(*ino, 0, out);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, bytes);
    EXPECT_EQ(out, Pattern(bytes, seed)) << path << " contents differ";
  }

  // True if every data block of the file has a tertiary address.
  bool FullyMigrated(uint32_t ino) {
    Result<std::vector<BlockRef>> refs = hl_->fs().CollectFileBlocks(ino);
    EXPECT_TRUE(refs.ok());
    for (const BlockRef& r : *refs) {
      if (hl_->Internals().address_map.Classify(r.daddr) !=
          AddressMap::Zone::kTertiary) {
        return false;
      }
    }
    return !refs->empty();
  }

  // Eight 4-block files under /cold, synced before the returned cutoff and
  // never read since: every block is cold.
  SimTime MakeColdFiles(std::vector<uint32_t>* inos) {
    EXPECT_TRUE(hl_->fs().Mkdir("/cold").ok());
    for (int i = 0; i < 8; ++i) {
      inos->push_back(
          MakeFile("/cold/f" + std::to_string(i), 4 * kBlockSize, 60 + i));
    }
    EXPECT_TRUE(hl_->fs().Sync().ok());
    clock_.Advance(10 * kUsPerSec);
    const SimTime cutoff = clock_.Now();
    clock_.Advance(kUsPerSec);
    return cutoff;
  }

  // The migrator.* lifetime gauges, read back as a report.
  MigrationReport LifetimeGauges() {
    MetricsSnapshot m = hl_->Metrics();
    MigrationReport r;
    r.files_migrated =
        static_cast<uint32_t>(m.Value("migrator.files_migrated"));
    r.blocks_migrated = m.Value("migrator.blocks_migrated");
    r.bytes_migrated = m.Value("migrator.bytes_migrated");
    r.segments_completed =
        static_cast<uint32_t>(m.Value("migrator.segments_completed"));
    r.eom_retargets = static_cast<uint32_t>(m.Value("migrator.eom_retargets"));
    r.blocks_skipped =
        static_cast<uint32_t>(m.Value("migrator.blocks_skipped"));
    return r;
  }

  // Every tseg's live bytes must equal a recount of the file system, and no
  // accounting anomaly may have been counted.
  void ExpectLiveBytesMatchRecount(const std::string& step) {
    Result<std::vector<uint64_t>> recount = RecountTertiaryLiveBytes(
        hl_->fs(), hl_->Internals().address_map);
    ASSERT_TRUE(recount.ok()) << step << ": " << recount.status().ToString();
    const TsegTable& table = hl_->Internals().tseg_table;
    ASSERT_EQ(recount->size(), table.size()) << step;
    uint32_t mismatched = 0;
    for (uint32_t t = 0; t < table.size(); ++t) {
      if (table.Get(t).live_bytes != (*recount)[t] && mismatched++ == 0) {
        ADD_FAILURE() << step << ": tseg " << t << " live_bytes "
                      << table.Get(t).live_bytes << ", recount "
                      << (*recount)[t];
      }
    }
    EXPECT_EQ(mismatched, 0u) << step << ": tsegs off their recount";
    MetricsSnapshot m = hl_->Metrics();
    for (const char* anomaly : {"tseg.accounting_dropped",
                                "tseg.underflow_clamped",
                                "tseg.overflow_clamped"}) {
      EXPECT_EQ(m.Value(anomaly), 0u) << step << ": " << anomaly;
    }
  }

  // One pass with `opts` over 24 files of 240 KB, a staging segment apiece:
  // more segments than the 8 cache lines plus the I/O server's 8-op window,
  // each pinning its line until its copy-out is issued. The pass must copy
  // out to free lines rather than stop with kBusy "all cache lines are
  // pinned" and leave its staged segments pinned, which wedged every later
  // write and sync that needed a line. Every staged segment reaches
  // tertiary, later writes, an overwrite of a migrated block and syncs
  // succeed, everything reads back, and CheckFs is clean.
  void ExpectPassLargerThanTheCacheCompletes(const MigratorOptions& opts) {
    constexpr int kFiles = 24;
    constexpr size_t kBytes = 240 * 1024;
    std::vector<uint32_t> inos;
    for (int i = 0; i < kFiles; ++i) {
      inos.push_back(MakeFile("/big" + std::to_string(i), kBytes, 80 + i));
    }
    Migrator& migrator = hl_->Internals().migrator;
    Result<MigrationReport> report = migrator.MigrateFiles(inos, opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->files_migrated, static_cast<uint32_t>(kFiles));
    EXPECT_GT(report->segments_completed, 16u);
    ASSERT_TRUE(migrator.FlushStaging().ok());
    EXPECT_EQ(migrator.PendingSegments(), 0u);
    EXPECT_EQ(hl_->Internals().io_server.stats().segments_copied_out,
              report->segments_completed);
    for (const SegmentCache::LineInfo& line : hl_->Internals().cache.Lines()) {
      EXPECT_FALSE(line.staging) << "tseg " << line.tseg << " still pinned";
    }
    for (uint32_t ino : inos) {
      EXPECT_TRUE(FullyMigrated(ino)) << "ino " << ino;
    }

    ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
    for (int i = 0; i < 4; ++i) {
      Result<uint32_t> ino = hl_->fs().Create("/after" + std::to_string(i));
      ASSERT_TRUE(ino.ok()) << ino.status().ToString();
      Status wrote = hl_->fs().Write(*ino, 0, Pattern(100 * 1024, 190 + i));
      ASSERT_TRUE(wrote.ok()) << wrote.ToString();
    }
    // Part of one block of a migrated file: the write reads the rest of the
    // block from tertiary, through a cache line.
    std::vector<uint8_t> first = Pattern(kBytes, 80);
    const std::vector<uint8_t> patch = Pattern(3000, 199);
    std::copy(patch.begin(), patch.end(), first.begin() + 5000);
    Status patched = hl_->fs().Write(inos[0], 5000, patch);
    ASSERT_TRUE(patched.ok()) << patched.ToString();
    Status synced = hl_->fs().Sync();
    ASSERT_TRUE(synced.ok()) << synced.ToString();

    ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
    hl_->fs().FlushBufferCache();
    std::vector<uint8_t> out(kBytes);
    ASSERT_TRUE(hl_->fs().Read(inos[0], 0, out).ok());
    EXPECT_TRUE(out == first);
    for (int i = 1; i < kFiles; ++i) {
      ExpectFileContents("/big" + std::to_string(i), kBytes, 80 + i);
    }
    for (int i = 0; i < 4; ++i) {
      ExpectFileContents("/after" + std::to_string(i), 100 * 1024, 190 + i);
    }
    FsckReport fsck = CheckFs(hl_->fs());
    EXPECT_TRUE(fsck.clean()) << fsck.errors.size()
                              << " errors, first: " << fsck.errors[0];
  }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
};

TEST_F(HighLightTest, WholeFileMigrationRoundTrip) {
  MakeFile("/cold", 1 << 20, 1);
  Result<uint32_t> ino = hl_->fs().LookupPath("/cold");
  ASSERT_TRUE(ino.ok());

  Result<MigrationReport> report = hl_->Migrate(MigrationRequest{.path = "/cold"});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_migrated, 1u);
  EXPECT_GE(report->blocks_migrated, 256u);  // 1 MB of 4 KB blocks.
  EXPECT_TRUE(FullyMigrated(*ino));
  // The inode itself migrated: its map address is tertiary.
  // (Read through the cache still works.)
  ExpectFileContents("/cold", 1 << 20, 1);
}

TEST_F(HighLightTest, DemandFetchAfterCacheDrop) {
  MakeFile("/cold", 1 << 20, 2);
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/cold"}).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  EXPECT_EQ(hl_->Internals().cache.Used(), 0u);

  uint64_t fetches_before = hl_->Internals().service.stats().demand_fetches;
  SimTime t0 = clock_.Now();
  ExpectFileContents("/cold", 1 << 20, 2);
  EXPECT_GT(hl_->Internals().service.stats().demand_fetches, fetches_before);
  // The first access paid tertiary latency (media swap and/or MO read).
  EXPECT_GT(clock_.Now() - t0, 1 * kUsPerSec);

  // Second read: served from the cache, quickly.
  t0 = clock_.Now();
  ExpectFileContents("/cold", 1 << 20, 2);
  EXPECT_LT(clock_.Now() - t0, 5 * kUsPerSec);
}

TEST_F(HighLightTest, ApplicationsNeedNoSpecialActions) {
  // The paper's core promise: same API before and after migration.
  uint32_t ino = MakeFile("/transparent", 300 * 1024, 3);
  ExpectFileContents("/transparent", 300 * 1024, 3);
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/transparent"}).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/transparent", 300 * 1024, 3);
  // Writes still work: they land on disk (new version supersedes tertiary).
  auto patch = Pattern(5000, 4);
  ASSERT_TRUE(hl_->fs().Write(ino, 100, patch).ok());
  std::vector<uint8_t> out(5000);
  ASSERT_TRUE(hl_->fs().Read(ino, 100, out).ok());
  EXPECT_EQ(out, patch);
}

TEST_F(HighLightTest, UpdatesToMigratedFilesAppendToDiskLog) {
  uint32_t ino = MakeFile("/updatable", 256 * 1024, 5);
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/updatable"}).ok());
  ASSERT_TRUE(FullyMigrated(ino));

  // Overwrite one block; it must come back disk-resident.
  ASSERT_TRUE(hl_->fs().Write(ino, 8192, Pattern(4096, 6)).ok());
  ASSERT_TRUE(hl_->fs().Sync().ok());
  Result<std::vector<BlockRef>> refs = hl_->fs().CollectFileBlocks(ino);
  ASSERT_TRUE(refs.ok());
  bool block2_on_disk = false;
  for (const BlockRef& r : *refs) {
    if (r.lbn == 2) {
      block2_on_disk = hl_->Internals().address_map.Classify(r.daddr) ==
                       AddressMap::Zone::kDisk;
    }
  }
  EXPECT_TRUE(block2_on_disk);
  // And the tseg table lost the superseded block's live bytes.
  EXPECT_LT(hl_->Internals().tseg_table.TotalLiveBytes(), (256u * 1024) + 8192);
}

TEST_F(HighLightTest, PartialFileBlockRangeMigration) {
  uint32_t ino = MakeFile("/dbfile", 512 * 1024, 7);
  // Migrate only the first 64 blocks (the "dormant tuples").
  std::vector<uint32_t> lbns;
  for (uint32_t l = 0; l < 64; ++l) {
    lbns.push_back(l);
  }
  MigratorOptions opts;
  Result<MigrationReport> report =
      hl_->Internals().migrator.MigrateBlocks({{ino, lbns}}, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->blocks_migrated, 64u);

  // The inode stays on disk; the file is split across levels.
  Result<std::vector<BlockRef>> refs = hl_->fs().CollectFileBlocks(ino);
  ASSERT_TRUE(refs.ok());
  int tertiary = 0, disk = 0;
  for (const BlockRef& r : *refs) {
    if (IsMetaLbn(r.lbn)) {
      continue;
    }
    if (hl_->Internals().address_map.Classify(r.daddr) == AddressMap::Zone::kTertiary) {
      ++tertiary;
    } else {
      ++disk;
    }
  }
  EXPECT_EQ(tertiary, 64);
  EXPECT_EQ(disk, 64);
  ExpectFileContents("/dbfile", 512 * 1024, 7);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/dbfile", 512 * 1024, 7);
}

TEST_F(HighLightTest, DirectoriesAndMetadataCanMigrate) {
  ASSERT_TRUE(hl_->fs().Mkdir("/archive").ok());
  MakeFile("/archive/a", 100 * 1024, 8);
  MakeFile("/archive/b", 100 * 1024, 9);
  // Migrate the directory file itself along with its children.
  Result<uint32_t> dir_ino = hl_->fs().LookupPath("/archive");
  ASSERT_TRUE(dir_ino.ok());
  Result<uint32_t> a_ino = hl_->fs().LookupPath("/archive/a");
  Result<uint32_t> b_ino = hl_->fs().LookupPath("/archive/b");
  ASSERT_TRUE(a_ino.ok());
  ASSERT_TRUE(b_ino.ok());
  MigratorOptions opts;
  Result<MigrationReport> report = hl_->Internals().migrator.MigrateFiles(
      {*a_ino, *b_ino, *dir_ino}, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  // Path lookup now demand-fetches the directory from tertiary storage.
  ExpectFileContents("/archive/a", 100 * 1024, 8);
  ExpectFileContents("/archive/b", 100 * 1024, 9);
}

TEST_F(HighLightTest, EndOfMediumRetargetsToNextVolume) {
  // Shrink volume 0's real capacity to force end-of-medium mid-stream.
  Result<Volume*> vol = hl_->Internals().footprint.GetVolume(0);
  ASSERT_TRUE(vol.ok());
  (*vol)->SetActualCapacity(3 * 64 * kBlockSize);  // Room for 3 segments.

  MakeFile("/big", 2 << 20, 10);  // 2 MB = 8 segments (+ metadata).
  Result<MigrationReport> report = hl_->Migrate(MigrationRequest{.path = "/big"});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(hl_->Internals().migrator.lifetime_report().eom_retargets, 0u);

  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/big", 2 << 20, 10);
}

TEST_F(HighLightTest, DelayedCopyOutBatchesTertiaryWrites) {
  Build(/*delayed=*/true);
  MakeFile("/cold1", 512 * 1024, 11);
  MakeFile("/cold2", 512 * 1024, 12);
  Result<uint32_t> i1 = hl_->fs().LookupPath("/cold1");
  Result<uint32_t> i2 = hl_->fs().LookupPath("/cold2");
  ASSERT_TRUE(i1.ok());
  ASSERT_TRUE(i2.ok());
  MigratorOptions opts;
  opts.delayed_copyout = true;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({*i1, *i2}, opts).ok());
  // Segments staged but not yet on media.
  EXPECT_GT(hl_->Internals().migrator.PendingSegments(), 0u);
  uint64_t copied_before = hl_->Internals().io_server.stats().segments_copied_out;
  EXPECT_EQ(copied_before, 0u);

  // Data remain readable from the staged (pinned) cache lines.
  ExpectFileContents("/cold1", 512 * 1024, 11);

  // The idle-time flush pushes everything to media.
  ASSERT_TRUE(hl_->Internals().migrator.FlushStaging().ok());
  EXPECT_EQ(hl_->Internals().migrator.PendingSegments(), 0u);
  EXPECT_GT(hl_->Internals().io_server.stats().segments_copied_out, 0u);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/cold1", 512 * 1024, 11);
  ExpectFileContents("/cold2", 512 * 1024, 12);
}

TEST_F(HighLightTest, WriteBehindPassLargerThanTheCacheCompletes) {
  MigratorOptions opts;
  opts.write_behind = true;
  ExpectPassLargerThanTheCacheCompletes(opts);
}

TEST_F(HighLightTest, DelayedCopyOutPassLargerThanTheCacheCompletes) {
  Build(/*delayed=*/true);
  MigratorOptions opts;
  opts.delayed_copyout = true;
  ExpectPassLargerThanTheCacheCompletes(opts);
}

// A pass that fails part-way still ends through EndPass. Disk reads fail
// now and then, so MigrateOneFile stops on an unreadable block after
// earlier blocks were flipped onto the staging segment being built. The
// pass returns the read error, and the blocks staged before it reach their
// line at once and tertiary after the flush: every file reads back once the
// disk heals, before and after the flush, and CheckFs is clean.
TEST_F(HighLightTest, FailedPassStillEndsThroughEndPass) {
  std::vector<uint32_t> inos;
  for (int i = 0; i < 4; ++i) {
    inos.push_back(MakeFile("/f" + std::to_string(i), 200 * 1024, 120 + i));
  }
  ASSERT_TRUE(hl_->fs().Sync().ok());
  hl_->fs().FlushBufferCache();
  FaultChannel* disk = hl_->Internals().faults.Channel("disk.disk0");
  FaultProfile flaky;
  flaky.read_transient_p = 0.02;
  disk->set_profile(flaky);
  Migrator& migrator = hl_->Internals().migrator;
  Result<MigrationReport> report = migrator.MigrateFiles(inos, {});
  disk->set_profile(FaultProfile{});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kIoError);
  EXPECT_GT(migrator.lifetime_report().blocks_migrated, 0u);
  hl_->fs().FlushBufferCache();
  for (int i = 0; i < 4; ++i) {
    ExpectFileContents("/f" + std::to_string(i), 200 * 1024, 120 + i);
  }
  ASSERT_TRUE(migrator.FlushStaging().ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  hl_->fs().FlushBufferCache();
  for (int i = 0; i < 4; ++i) {
    ExpectFileContents("/f" + std::to_string(i), 200 * 1024, 120 + i);
  }
  FsckReport fsck = CheckFs(hl_->fs());
  EXPECT_TRUE(fsck.clean()) << fsck.errors.size()
                            << " errors, first: " << fsck.errors[0];
}

TEST_F(HighLightTest, MigratedStateSurvivesRemount) {
  MakeFile("/durable", 1 << 20, 13);
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/durable"}).ok());
  ASSERT_TRUE(hl_->fs().Checkpoint().ok());

  ASSERT_TRUE(hl_->Remount().ok());
  ExpectFileContents("/durable", 1 << 20, 13);

  // Also after dropping the (rebuilt) cache: demand fetch from media.
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/durable", 1 << 20, 13);
}

TEST_F(HighLightTest, StpPolicyMigratesColdLargeFilesFirst) {
  MakeFile("/hot", 256 * 1024, 14);
  MakeFile("/cold-big", 512 * 1024, 15);
  MakeFile("/cold-small", 16 * 1024, 16);
  // Everything ages 100 s; then /hot is touched.
  clock_.Advance(100 * kUsPerSec);
  std::vector<uint8_t> buf(1024);
  Result<uint32_t> hot = hl_->fs().LookupPath("/hot");
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(hl_->fs().Read(*hot, 0, buf).ok());

  StpPolicy stp;
  Result<std::vector<FileCandidate>> ranked =
      stp.Rank(hl_->fs(), clock_.Now());
  ASSERT_TRUE(ranked.ok());
  ASSERT_GE(ranked->size(), 3u);
  EXPECT_EQ((*ranked)[0].path, "/cold-big");
  EXPECT_EQ((*ranked)[1].path, "/cold-small");
  EXPECT_EQ((*ranked)[2].path, "/hot");

  // Migrate ~the best candidate only.
  Result<MigrationReport> report = hl_->Migrate(MigrationRequest{.policy = &stp, .bytes_target = 1});
  ASSERT_TRUE(report.ok());
  Result<uint32_t> cold = hl_->fs().LookupPath("/cold-big");
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(FullyMigrated(*cold));
  EXPECT_FALSE(FullyMigrated(*hot));
}

TEST_F(HighLightTest, NamespacePolicyKeepsUnitsAdjacent) {
  ASSERT_TRUE(hl_->fs().Mkdir("/proj1").ok());
  ASSERT_TRUE(hl_->fs().Mkdir("/proj2").ok());
  MakeFile("/proj1/a", 64 * 1024, 17);
  MakeFile("/proj1/b", 64 * 1024, 18);
  MakeFile("/proj2/x", 64 * 1024, 19);
  MakeFile("/proj2/y", 64 * 1024, 20);
  clock_.Advance(50 * kUsPerSec);

  NamespacePolicy ns;
  Result<std::vector<FileCandidate>> ranked =
      ns.Rank(hl_->fs(), clock_.Now());
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 4u);
  // Unit members are adjacent in the ranking.
  EXPECT_EQ((*ranked)[0].unit, (*ranked)[1].unit);
  EXPECT_EQ((*ranked)[2].unit, (*ranked)[3].unit);
  EXPECT_NE((*ranked)[0].unit, (*ranked)[2].unit);
}

TEST_F(HighLightTest, PrefetchPullsFollowOnSegments) {
  // Sequential prefetch policy: on a miss of tseg t, also fetch t+1.
  hl_->Internals().service.SetPrefetchPolicy([this](uint32_t tseg) {
    std::vector<uint32_t> extra;
    if (hl_->Internals().tseg_table.size() > tseg + 1 &&
        !(hl_->Internals().tseg_table.Get(tseg + 1).flags & kSegClean)) {
      extra.push_back(tseg + 1);
    }
    return extra;
  });
  MakeFile("/seq", 1 << 20, 21);  // Spans ~4 tertiary segments.
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/seq"}).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  ExpectFileContents("/seq", 1 << 20, 21);
  EXPECT_GT(hl_->Internals().service.stats().prefetches, 0u);
  // Prefetching cut the number of demand faults below the segment count.
  EXPECT_LT(hl_->Internals().block_map.stats().demand_faults, 4u);
}

TEST_F(HighLightTest, MigrationStreamsTargetDifferentVolumes) {
  // Section 6.5: direct several migration streams at different media. Two
  // "streams" (calls with different preferred volumes) place their segments
  // on their own volumes.
  MakeFile("/stream-a", 512 * 1024, 31);
  MakeFile("/stream-b", 512 * 1024, 32);
  Result<uint32_t> a = hl_->fs().LookupPath("/stream-a");
  Result<uint32_t> b = hl_->fs().LookupPath("/stream-b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  MigratorOptions to_vol1;
  to_vol1.preferred_volume = 1;
  MigratorOptions to_vol2;
  to_vol2.preferred_volume = 2;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({*a}, to_vol1).ok());
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({*b}, to_vol2).ok());

  auto volumes_of = [&](uint32_t ino) {
    std::set<uint32_t> volumes;
    Result<std::vector<BlockRef>> refs = hl_->fs().CollectFileBlocks(ino);
    EXPECT_TRUE(refs.ok());
    for (const BlockRef& r : *refs) {
      if (hl_->Internals().address_map.Classify(r.daddr) ==
          AddressMap::Zone::kTertiary) {
        volumes.insert(hl_->Internals().address_map.VolumeOfTseg(
            hl_->Internals().address_map.TsegOf(r.daddr)));
      }
    }
    return volumes;
  };
  EXPECT_EQ(volumes_of(*a), std::set<uint32_t>{1});
  EXPECT_EQ(volumes_of(*b), std::set<uint32_t>{2});
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/stream-a", 512 * 1024, 31);
  ExpectFileContents("/stream-b", 512 * 1024, 32);
}

TEST_F(HighLightTest, DeadZoneAccessRejected) {
  std::vector<uint8_t> buf(kBlockSize);
  uint32_t dead = hl_->Internals().address_map.disk_blocks() + 100;
  EXPECT_EQ(hl_->Internals().block_map.ReadBlocks(dead, 1, buf).code(),
            ErrorCode::kDeadZone);
  EXPECT_EQ(hl_->Internals().block_map.WriteBlocks(dead, 1, buf).code(),
            ErrorCode::kDeadZone);
}

TEST_F(HighLightTest, TsegTableTracksLiveBytes) {
  MakeFile("/tracked", 512 * 1024, 22);
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/tracked"}).ok());
  uint64_t live = hl_->Internals().tseg_table.TotalLiveBytes();
  EXPECT_GE(live, 512u * 1024);        // Data blocks.
  EXPECT_LT(live, 700u * 1024);        // Plus bounded metadata.
  ASSERT_TRUE(hl_->fs().Unlink("/tracked").ok());
  EXPECT_LT(hl_->Internals().tseg_table.TotalLiveBytes(), 4096u);
}

// The unified request API: one Migrate() dispatching on the request's mode.
TEST_F(HighLightTest, MigrationRequestPolicyRestrictedToSubtree) {
  ASSERT_TRUE(hl_->fs().Mkdir("/proj").ok());
  MakeFile("/proj/inside", 256 * 1024, 30);
  MakeFile("/outside", 256 * 1024, 31);
  clock_.Advance(100 * kUsPerSec);

  StpPolicy stp;
  MigrationRequest request;
  request.path = "/proj";
  request.policy = &stp;
  Result<MigrationReport> report = hl_->Migrate(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_migrated, 1u);

  Result<uint32_t> inside = hl_->fs().LookupPath("/proj/inside");
  Result<uint32_t> outside = hl_->fs().LookupPath("/outside");
  ASSERT_TRUE(inside.ok());
  ASSERT_TRUE(outside.ok());
  EXPECT_TRUE(FullyMigrated(*inside));
  EXPECT_FALSE(FullyMigrated(*outside))
      << "policy migration must honor the request's path filter";
  ExpectFileContents("/proj/inside", 256 * 1024, 30);
}

TEST_F(HighLightTest, MigrationRequestRejectsPolicyPlusColdCutoff) {
  StpPolicy stp;
  MigrationRequest request;
  request.policy = &stp;
  request.cold_cutoff = clock_.Now();
  Result<MigrationReport> report = hl_->Migrate(request);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(HighLightTest, MigrationRequestWrappersAgree) {
  MakeFile("/w", 256 * 1024, 32);
  // The deprecated wrapper and the request form produce the same effect.
  MigrationRequest request;
  request.path = "/w";
  Result<MigrationReport> report = hl_->Migrate(request);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->files_migrated, 1u);
  Result<uint32_t> ino = hl_->fs().LookupPath("/w");
  ASSERT_TRUE(ino.ok());
  EXPECT_TRUE(FullyMigrated(*ino));
}

// Wholesale, cold-range and ClusterFiles passes all end through the one
// pass epilogue, so each folds exactly its own report into the lifetime
// totals, segments and retargets included.
TEST_F(HighLightTest, LifetimeTotalsGrowByEachPassReport) {
  uint32_t whole = MakeFile("/whole", 512 * 1024, 40);
  uint32_t ranged = MakeFile("/ranged", 512 * 1024, 41);
  auto expect_grew_by = [&](const MigrationReport& before,
                            const MigrationReport& pass,
                            const std::string& name) {
    const MigrationReport after = LifetimeGauges();
    EXPECT_EQ(after.files_migrated - before.files_migrated,
              pass.files_migrated)
        << name;
    EXPECT_EQ(after.blocks_migrated - before.blocks_migrated,
              pass.blocks_migrated)
        << name;
    EXPECT_EQ(after.bytes_migrated - before.bytes_migrated,
              pass.bytes_migrated)
        << name;
    EXPECT_EQ(after.segments_completed - before.segments_completed,
              pass.segments_completed)
        << name;
    EXPECT_EQ(after.eom_retargets - before.eom_retargets, pass.eom_retargets)
        << name;
    EXPECT_EQ(after.blocks_skipped - before.blocks_skipped,
              pass.blocks_skipped)
        << name;
  };

  MigrationReport before = LifetimeGauges();
  Result<MigrationReport> wholesale =
      hl_->Migrate(MigrationRequest{.path = "/whole"});
  ASSERT_TRUE(wholesale.ok()) << wholesale.status().ToString();
  EXPECT_EQ(wholesale->files_migrated, 1u);
  EXPECT_GT(wholesale->segments_completed, 0u);
  expect_grew_by(before, *wholesale, "wholesale");

  // The first half of /ranged is read after the cutoff and stays on disk.
  clock_.Advance(10 * kUsPerSec);
  const SimTime cutoff = clock_.Now();
  clock_.Advance(kUsPerSec);
  std::vector<uint8_t> hot(256 * 1024);
  ASSERT_TRUE(hl_->fs().Read(ranged, 0, hot).ok());
  before = LifetimeGauges();
  Result<MigrationReport> cold = hl_->Migrate(
      MigrationRequest{.path = "/ranged", .cold_cutoff = cutoff});
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->files_migrated, 1u);
  EXPECT_EQ(cold->blocks_migrated, 64u);
  EXPECT_GT(cold->segments_completed, 0u);
  expect_grew_by(before, *cold, "cold-range");

  before = LifetimeGauges();
  Result<MigrationReport> cluster =
      hl_->Internals().migrator.ClusterFiles({whole, ranged}, MigratorOptions{});
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  EXPECT_EQ(cluster->files_migrated, 2u);
  EXPECT_GT(cluster->segments_completed, 0u);
  expect_grew_by(before, *cluster, "ClusterFiles");

  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/whole", 512 * 1024, 40);
  ExpectFileContents("/ranged", 512 * 1024, 41);
}

// A cold-range request is one pass: its files share staging segments
// instead of each completing a segment of its own.
TEST_F(HighLightTest, ColdRangePassSharesStagingSegments) {
  std::vector<uint32_t> inos;
  const SimTime cutoff = MakeColdFiles(&inos);
  Result<MigrationReport> report =
      hl_->Migrate(MigrationRequest{.path = "/cold", .cold_cutoff = cutoff});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_migrated, 8u);
  EXPECT_EQ(report->blocks_migrated, 32u);
  EXPECT_EQ(report->segments_completed, 1u);

  const AddressMap& amap = hl_->Internals().address_map;
  std::set<uint32_t> tsegs;
  for (uint32_t ino : inos) {
    Result<std::vector<BlockRef>> refs = hl_->fs().CollectFileBlocks(ino);
    ASSERT_TRUE(refs.ok());
    for (const BlockRef& r : *refs) {
      ASSERT_EQ(amap.Classify(r.daddr), AddressMap::Zone::kTertiary);
      tsegs.insert(amap.TsegOf(r.daddr));
    }
  }
  EXPECT_EQ(tsegs.size(), 1u) << "each file got a tertiary segment of its own";

  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  for (int i = 0; i < 8; ++i) {
    ExpectFileContents("/cold/f" + std::to_string(i), 4 * kBlockSize, 60 + i);
  }
}

// Cold blocks are selected by address before any read, so a repeat pass
// skips the blocks already on tertiary without demand-fetching a segment.
TEST_F(HighLightTest, RepeatColdRangePassFetchesNothing) {
  std::vector<uint32_t> inos;
  const SimTime cutoff = MakeColdFiles(&inos);
  const MigrationRequest request{.path = "/cold", .cold_cutoff = cutoff};
  ASSERT_TRUE(hl_->Migrate(request).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  const uint64_t fetches = hl_->Internals().service.stats().demand_fetches;
  Result<MigrationReport> again = hl_->Migrate(request);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->files_migrated, 0u);
  EXPECT_EQ(again->blocks_migrated, 0u);
  EXPECT_EQ(again->blocks_skipped, 32u);
  EXPECT_EQ(hl_->Internals().service.stats().demand_fetches, fetches);
}

// Live bytes reach the tseg table one delta at a time; after every kind of
// migration and every way a migrated block dies, each entry must equal a
// recount of the file system.
TEST_F(HighLightTest, TertiaryLiveBytesMatchRecountAfterEveryMigration) {
  // A wholesale migrate whose fourth segment hits end-of-medium on volume 0
  // and is retargeted at volume 1.
  Result<Volume*> vol = hl_->Internals().footprint.GetVolume(0);
  ASSERT_TRUE(vol.ok());
  (*vol)->SetActualCapacity(3 * 64 * kBlockSize);
  ASSERT_TRUE(hl_->fs().Mkdir("/dir").ok());
  uint32_t a = MakeFile("/a", 1 << 20, 50);
  uint32_t b = MakeFile("/b", 600 * 1024, 51);
  MakeFile("/c", 300 * 1024, 52);
  MakeFile("/dir/d", 200 * 1024, 53);
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/"}).ok());
  ASSERT_GT(hl_->Internals().migrator.lifetime_report().eom_retargets, 0u);
  ExpectLiveBytesMatchRecount("wholesale migrate");

  // Migrated blocks die three ways: overwritten, truncated, unlinked.
  std::vector<uint8_t> a_bytes = Pattern(1 << 20, 50);
  std::vector<uint8_t> patch = Pattern(4096, 54);
  std::copy(patch.begin(), patch.end(), a_bytes.begin() + 8192);
  ASSERT_TRUE(hl_->fs().Write(a, 8192, patch).ok());
  ASSERT_TRUE(hl_->fs().Truncate(b, 100 * 1024).ok());
  ASSERT_TRUE(hl_->fs().Unlink("/c").ok());
  ASSERT_TRUE(hl_->fs().Sync().ok());
  ExpectLiveBytesMatchRecount("overwrite, truncate, unlink");

  clock_.Advance(100 * kUsPerSec);
  StpPolicy stp;
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.policy = &stp}).ok());
  ExpectLiveBytesMatchRecount("second migrate");

  // A cold-range pass: /dir/e's first 32 blocks are read after the cutoff.
  uint32_t e = MakeFile("/dir/e", 512 * 1024, 55);
  ASSERT_TRUE(hl_->fs().Sync().ok());
  clock_.Advance(10 * kUsPerSec);
  const SimTime cutoff = clock_.Now();
  clock_.Advance(kUsPerSec);
  std::vector<uint8_t> hot(128 * 1024);
  ASSERT_TRUE(hl_->fs().Read(e, 0, hot).ok());
  Result<MigrationReport> cold = hl_->Migrate(
      MigrationRequest{.path = "/dir", .cold_cutoff = cutoff});
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold->blocks_migrated, 0u);
  ExpectLiveBytesMatchRecount("cold-range pass");

  ASSERT_TRUE(
      hl_->Internals().migrator.ClusterFiles({a, e}, MigratorOptions{}).ok());
  ExpectLiveBytesMatchRecount("ClusterFiles");

  ASSERT_TRUE(hl_->fs().Checkpoint().ok());
  Result<uint64_t> moved = hl_->Internals().tertiary_cleaner.CleanVolume(0);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_GT(*moved, 0u);
  ExpectLiveBytesMatchRecount("CleanVolume");

  ASSERT_TRUE(hl_->fs().Checkpoint().ok());
  ASSERT_TRUE(hl_->Remount().ok());
  ExpectLiveBytesMatchRecount("Remount");

  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  Result<uint32_t> a_again = hl_->fs().LookupPath("/a");
  ASSERT_TRUE(a_again.ok());
  std::vector<uint8_t> out(a_bytes.size());
  ASSERT_TRUE(hl_->fs().Read(*a_again, 0, out).ok());
  EXPECT_EQ(out, a_bytes);
  ExpectFileContents("/b", 100 * 1024, 51);
  ExpectFileContents("/dir/d", 200 * 1024, 53);
  ExpectFileContents("/dir/e", 512 * 1024, 55);
  EXPECT_FALSE(hl_->fs().LookupPath("/c").ok());
}

}  // namespace
}  // namespace hl

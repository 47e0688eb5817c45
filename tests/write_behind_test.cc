// Write-behind I/O server pipeline and staging-durability tests: queue
// backpressure, Drain() volume batching, the issue order of queued writes in
// both read pipelines, synchronous copy-outs through the queue, end-of-medium
// surfacing at completion time, replica failover, and a remount
// mid-delayed-copyout (the staging line is the only copy of its data and
// must survive).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "highlight/highlight.h"
#include "lfs/fsck.h"
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

class WriteBehindTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(MigratorOptions{}); }

  void Build(const MigratorOptions& opts, bool readahead = false,
             bool async_reads = false) {
    hl_.reset();
    clock_ = SimClock();
    HighLightConfig config;
    config.disks.push_back({Rz57Profile(), 16 * 1024});  // 64 MB.
    // 4 volumes x 20 segments of 256 KB = 5 MB per volume.
    config.jukeboxes.push_back(
        {SmallJukebox(4, 20ull * 64 * kBlockSize), false, 20});
    config.lfs.seg_size_blocks = 64;
    config.lfs.cache_max_segments = 8;
    config.migrator = opts;
    config.sequential_readahead = readahead;
    config.async_read_pipeline = async_reads;
    auto hl = HighLightFs::Create(config, &clock_);
    ASSERT_TRUE(hl.ok()) << hl.status().ToString();
    hl_ = std::move(*hl);
  }

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

  void ExpectFsckClean() {
    FsckReport report = CheckFs(hl_->fs());
    EXPECT_TRUE(report.clean())
        << (report.errors.empty() ? "" : report.errors[0]);
  }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
};

TEST_F(WriteBehindTest, StagingLineSurvivesRemountMidDelayedCopyout) {
  uint32_t ino = MakeFile("/interrupted", 200 * 1024, 7);
  MigratorOptions delayed;
  delayed.delayed_copyout = true;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({ino}, delayed).ok());
  ASSERT_GT(hl_->Internals().migrator.PendingSegments(), 0u);
  ASSERT_TRUE(hl_->fs().Checkpoint().ok());

  // Crash + remount before the copy-out: the staging line holds the ONLY
  // copy of the migrated blocks.
  ASSERT_TRUE(hl_->Remount().ok());

  bool found_staging = false;
  for (const SegmentCache::LineInfo& line : hl_->Internals().cache.Lines()) {
    if (line.staging) {
      found_staging = true;
      EXPECT_EQ(hl_->Internals().cache.Eject(line.tseg).code(),
                ErrorCode::kBusy)
          << "staging line came back unpinned";
    }
  }
  EXPECT_TRUE(found_staging)
      << "SegmentCache::Init dropped the kSegStaging flag";
  // The migrator recovered the interrupted staging ledger...
  EXPECT_GT(hl_->Internals().migrator.PendingSegments(), 0u);
  // ...the data are still readable (served from the staging line)...
  ExpectFileContents("/interrupted", 200 * 1024, 7);
  // ...and the flush completes the migration cleanly.
  ASSERT_TRUE(hl_->Internals().migrator.FlushStaging().ok());
  EXPECT_EQ(hl_->Internals().migrator.PendingSegments(), 0u);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/interrupted", 200 * 1024, 7);
  ExpectFsckClean();
}

TEST_F(WriteBehindTest, ReplicaFailoverStillPlacesRequestedCount) {
  uint32_t ino = MakeFile("/replicated", 200 * 1024, 8);
  // Volume 1 (the natural first replica target) cannot take a single byte.
  Result<Volume*> bad = hl_->Internals().footprint.GetVolume(1);
  ASSERT_TRUE(bad.ok());
  (*bad)->SetActualCapacity(0);

  MigratorOptions opts;
  opts.replicas = 2;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({ino}, opts).ok());

  uint32_t primary = hl_->Internals().address_map.FirstTsegOfVolume(0);
  std::vector<uint32_t> replicas = hl_->Internals().tseg_table.ReplicasOf(primary);
  ASSERT_EQ(replicas.size(), 2u)
      << "failed volume must not cost the remaining replica copies";
  for (uint32_t r : replicas) {
    EXPECT_NE(hl_->Internals().address_map.VolumeOfTseg(r), 1u)
        << "replica landed on the full volume";
  }
  // End-of-medium on the replica path retired the bad volume like the
  // primary path would have.
  uint32_t v1_first = hl_->Internals().address_map.FirstTsegOfVolume(1);
  EXPECT_EQ(hl_->Internals().tseg_table.Get(v1_first).avail_bytes, 0u);
  ExpectFileContents("/replicated", 200 * 1024, 8);
  ExpectFsckClean();
}

TEST_F(WriteBehindTest, BackpressureBoundsTheQueue) {
  MigratorOptions wb;
  wb.write_behind = true;
  Build(wb);
  hl_->Internals().io_server.set_max_queue_depth(2);
  MakeFile("/big", 1536 * 1024, 9);
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/big"}).ok());

  const IoServer::Stats& s = hl_->Internals().io_server.stats();
  EXPECT_GT(s.ops_enqueued, 0u);
  EXPECT_GT(s.backpressure_stalls, 0u)
      << "a deep migration must hit the queue bound";
  // Enqueue admits one op past the bound before stalling the caller.
  EXPECT_LE(s.queue_depth.max(), 3);
  EXPECT_LE(hl_->Internals().io_server.QueueDepth(), 2u);
  // The registry sees the same pipeline activity: a stalled enqueue accrues
  // wait time, and completed copy-outs count against the io.* slots.
  MetricsSnapshot snap = hl_->Metrics();
  EXPECT_GT(snap.Value("io.queue_stall_us"), 0u)
      << "backpressure stalls must accrue queue-stall time";
  EXPECT_GT(snap.Value("io.ops_enqueued"), 0u);
  EXPECT_GT(snap.Value("io.backpressure_stalls"), 0u);

  // The barrier empties the pipeline and unpins every staged line.
  ASSERT_TRUE(hl_->Internals().migrator.FlushStaging().ok());
  EXPECT_GT(hl_->Metrics().Value("io.segments_copied_out"), 0u)
      << "drained copy-outs must move the registry counter";
  EXPECT_EQ(hl_->Internals().io_server.QueueDepth(), 0u);
  EXPECT_EQ(hl_->Internals().io_server.Outstanding(), 0u);
  EXPECT_EQ(hl_->Internals().migrator.PendingSegments(), 0u);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/big", 1536 * 1024, 9);
  ExpectFsckClean();
}

TEST_F(WriteBehindTest, SynchronousCopyOutDrainsThroughTheQueue) {
  // Without write-behind every copy-out still rides the I/O server's queue:
  // the migrator enqueues each completed segment and waits on Drain(), so
  // the queue's latency histogram, drain count and replica chain see every
  // segment, and nothing is left queued, outstanding or staged.
  MigratorOptions sync;
  sync.replicas = 1;
  Build(sync);
  uint32_t ino = MakeFile("/sync", 600 * 1024, 41);
  Result<MigrationReport> report =
      hl_->Migrate(MigrationRequest{.path = "/sync"});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GE(report->segments_completed, 2u);

  const IoServer& io = hl_->Internals().io_server;
  EXPECT_EQ(hl_->metrics().histogram("io.copyout_latency_us").count(),
            io.stats().segments_copied_out)
      << "every synchronous copy-out is timed by the queue";
  EXPECT_EQ(io.stats().segments_copied_out,
            2u * report->segments_completed)
      << "one primary and one replica write per segment";
  EXPECT_GE(io.stats().drains, report->segments_completed);
  EXPECT_EQ(io.QueueDepth(), 0u);
  EXPECT_EQ(io.Outstanding(), 0u);
  EXPECT_EQ(hl_->Internals().migrator.PendingSegments(), 0u);

  Result<std::vector<BlockRef>> refs = hl_->fs().CollectFileBlocks(ino);
  ASSERT_TRUE(refs.ok());
  std::set<uint32_t> primaries;
  for (const BlockRef& r : *refs) {
    if (r.daddr != kNoBlock) {
      primaries.insert(hl_->Internals().address_map.TsegOf(r.daddr));
    }
  }
  ASSERT_GE(primaries.size(), 2u);
  for (uint32_t primary : primaries) {
    std::vector<uint32_t> replicas =
        hl_->Internals().tseg_table.ReplicasOf(primary);
    ASSERT_EQ(replicas.size(), 1u) << "tseg " << primary;
    EXPECT_NE(hl_->Internals().address_map.VolumeOfTseg(replicas[0]),
              hl_->Internals().address_map.VolumeOfTseg(primary));
  }
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/sync", 600 * 1024, 41);
  ExpectFsckClean();
}

// The same queue serves the serial and the async read pipelines; the
// parameter is HighLightConfig::async_read_pipeline.
class WriteBehindModeTest : public WriteBehindTest,
                            public ::testing::WithParamInterface<bool> {};

TEST_P(WriteBehindModeTest, DrainBatchesQueuedOpsByMountedVolume) {
  // Stage four segments, two per volume, enqueued in alternating volume
  // order. With batching, the pipeline still needs only one media swap per
  // volume; strict FIFO would pay four.
  MigratorOptions delayed;
  delayed.delayed_copyout = true;
  Build(delayed, /*readahead=*/false, /*async_reads=*/GetParam());
  uint32_t a1 = MakeFile("/a1", 200 * 1024, 11);
  uint32_t a2 = MakeFile("/a2", 200 * 1024, 12);
  uint32_t b1 = MakeFile("/b1", 200 * 1024, 13);
  uint32_t b2 = MakeFile("/b2", 200 * 1024, 14);

  MigratorOptions v0 = delayed;
  v0.preferred_volume = 0;
  MigratorOptions v1 = delayed;
  v1.preferred_volume = 1;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({a1}, v0).ok());
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({b1}, v1).ok());
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({a2}, v0).ok());
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({b2}, v1).ok());
  ASSERT_EQ(hl_->Internals().migrator.PendingSegments(), 4u);

  uint32_t vol0_first = hl_->Internals().address_map.FirstTsegOfVolume(0);
  uint32_t vol1_first = hl_->Internals().address_map.FirstTsegOfVolume(1);
  uint64_t swaps_before = hl_->Internals().footprint.TotalMediaSwaps();

  // Tight window so ops actually accumulate in the pending queue.
  hl_->Internals().io_server.set_max_queue_depth(1);
  ASSERT_TRUE(hl_->Internals().migrator.EnqueueCopyOut(vol0_first).ok());
  ASSERT_TRUE(hl_->Internals().migrator.EnqueueCopyOut(vol1_first).ok());
  ASSERT_TRUE(hl_->Internals().migrator.EnqueueCopyOut(vol0_first + 1).ok());
  ASSERT_TRUE(hl_->Internals().migrator.EnqueueCopyOut(vol1_first + 1).ok());
  ASSERT_TRUE(hl_->Internals().migrator.FlushStaging().ok());

  EXPECT_EQ(hl_->Internals().footprint.TotalMediaSwaps() - swaps_before, 2u)
      << "volume batching should load each volume exactly once";
  EXPECT_GE(hl_->Internals().io_server.stats().volume_batch_picks, 1u);
  EXPECT_EQ(hl_->Internals().migrator.PendingSegments(), 0u);

  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/a1", 200 * 1024, 11);
  ExpectFileContents("/a2", 200 * 1024, 12);
  ExpectFileContents("/b1", 200 * 1024, 13);
  ExpectFileContents("/b2", 200 * 1024, 14);
  ExpectFsckClean();
}

TEST_P(WriteBehindModeTest, CopyOutsToUnmountedVolumesIssueOldestFirst) {
  // The elevator sweep orders reads only. A read from volume 3 leaves the
  // sweep past volumes 1 and 2; copy-outs to those two unmounted volumes,
  // queued behind a busy window, must still issue oldest first.
  MigratorOptions delayed;
  delayed.delayed_copyout = true;
  Build(delayed, /*readahead=*/false, /*async_reads=*/GetParam());
  Migrator& migrator = hl_->Internals().migrator;
  const AddressMap& amap = hl_->Internals().address_map;
  auto migrate_to = [&](const std::string& path, uint64_t seed,
                        uint32_t volume) {
    MigratorOptions opts = delayed;
    opts.preferred_volume = volume;
    ASSERT_TRUE(
        migrator.MigrateFiles({MakeFile(path, 200 * 1024, seed)}, opts).ok());
  };
  migrate_to("/r", 31, 3);
  ASSERT_TRUE(migrator.FlushStaging().ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/r", 200 * 1024, 31);  // The read on volume 3.

  migrate_to("/w0", 32, 0);
  migrate_to("/w2", 33, 2);
  migrate_to("/w1", 34, 1);
  ASSERT_EQ(migrator.PendingSegments(), 3u);
  const uint32_t t0 = amap.FirstTsegOfVolume(0);
  const uint32_t t2 = amap.FirstTsegOfVolume(2);
  const uint32_t t1 = amap.FirstTsegOfVolume(1);

  // A window of one: the copy-out to volume 0 holds the device (and the
  // write drive) while the other two wait, both needing a media swap.
  hl_->Internals().io_server.set_max_queue_depth(1);
  hl_->spans().Clear();
  ASSERT_TRUE(migrator.EnqueueCopyOut(t0).ok());
  ASSERT_TRUE(migrator.EnqueueCopyOut(t2).ok());
  ASSERT_TRUE(migrator.EnqueueCopyOut(t1).ok());
  ASSERT_TRUE(migrator.FlushStaging().ok());

  std::vector<std::string> issued;
  for (const SpanRecord& s : hl_->spans().Completed()) {
    if (s.name != "issue_copyout") {
      continue;
    }
    for (const SpanArg& arg : s.args) {
      if (arg.first == "tseg") {
        issued.push_back(arg.second);
      }
    }
  }
  EXPECT_EQ(issued, (std::vector<std::string>{std::to_string(t0),
                                              std::to_string(t2),
                                              std::to_string(t1)}));
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/w0", 200 * 1024, 32);
  ExpectFileContents("/w2", 200 * 1024, 33);
  ExpectFileContents("/w1", 200 * 1024, 34);
  ExpectFsckClean();
}

INSTANTIATE_TEST_SUITE_P(SyncAndAsync, WriteBehindModeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "AsyncPipeline" : "SyncFetch";
                         });

TEST_F(WriteBehindTest, EndOfMediumSurfacesAtCompletionAndRetargets) {
  MigratorOptions wb;
  wb.write_behind = true;
  Build(wb);
  // Volume 0 claims 20 segments but actually fits 2: the third copy-out
  // fails at completion-callback time and must re-target onto volume 1.
  Result<Volume*> v0 = hl_->Internals().footprint.GetVolume(0);
  ASSERT_TRUE(v0.ok());
  (*v0)->SetActualCapacity(2ull * 64 * kBlockSize);

  MakeFile("/overflow", 1 << 20, 15);
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/overflow"}).ok());
  ASSERT_TRUE(hl_->Internals().migrator.FlushStaging().ok());

  EXPECT_GT(hl_->Internals().migrator.lifetime_report().eom_retargets, 0u);
  EXPECT_GT(hl_->Internals().io_server.stats().end_of_medium_events, 0u);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/overflow", 1 << 20, 15);
  ExpectFsckClean();
}

TEST_F(WriteBehindTest, WriteBehindBeatsSynchronousCopyOut) {
  // Same workload, same hardware: queued copy-outs overlap tertiary writes
  // with migrator staging and must finish in less simulated time.
  auto run = [this](bool write_behind) {
    MigratorOptions opts;
    opts.write_behind = write_behind;
    Build(opts);
    MakeFile("/workload", 2 << 20, 16);
    SimTime t0 = clock_.Now();
    EXPECT_TRUE(hl_->Migrate(MigrationRequest{.path = "/workload"}).ok());
    EXPECT_TRUE(hl_->Internals().migrator.FlushStaging().ok());
    ExpectFsckClean();
    return clock_.Now() - t0;
  };
  SimTime sync_elapsed = run(false);
  SimTime wb_elapsed = run(true);
  EXPECT_LT(wb_elapsed, sync_elapsed);
}

TEST_F(WriteBehindTest, SequentialReadaheadOverlapsTertiaryReads) {
  // A sequential scan of a tertiary-resident multi-segment file: each demand
  // fetch of tseg N schedules an asynchronous read of N+1, so the next miss
  // waits only for the in-flight remainder.
  auto scan = [this](bool readahead) {
    Build(MigratorOptions{}, readahead);
    MakeFile("/scan", 1 << 20, 21);
    EXPECT_TRUE(hl_->Migrate(MigrationRequest{.path = "/scan"}).ok());
    EXPECT_TRUE(hl_->DropCleanCacheLines().ok());
    SimTime t0 = clock_.Now();
    ExpectFileContents("/scan", 1 << 20, 21);
    return clock_.Now() - t0;
  };
  SimTime cold = scan(false);
  EXPECT_EQ(hl_->Internals().service.stats().readaheads_issued, 0u);
  SimTime overlapped = scan(true);
  EXPECT_GT(hl_->Internals().service.stats().readaheads_issued, 0u);
  EXPECT_GT(hl_->Internals().service.stats().readaheads_consumed, 0u);
  EXPECT_LT(overlapped, cold);
  ExpectFsckClean();
}

}  // namespace
}  // namespace hl

// Failure-injection tests: device errors surface as clean Status failures,
// the system stays consistent, and retries succeed once the fault clears.

#include <gtest/gtest.h>

#include "blockdev/sim_disk.h"
#include "highlight/highlight.h"
#include "lfs/fsck.h"
#include "util/crc32.h"
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

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HighLightConfig config;
    config.disks.push_back({Rz57Profile(), 8 * 1024});
    JukeboxProfile j = Hp6300MoProfile();
    j.num_slots = 4;
    j.volume_capacity_bytes = 16ull * 64 * kBlockSize;
    config.jukeboxes.push_back({j, false, 16});
    config.lfs.seg_size_blocks = 64;
    config.lfs.cache_max_segments = 8;
    auto hl = HighLightFs::Create(config, &clock_);
    ASSERT_TRUE(hl.ok());
    hl_ = std::move(*hl);
  }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
};

TEST_F(FailureInjectionTest, JukeboxFailureDuringDemandFetchSurfaces) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  auto data = Pattern(256 * 1024, 1);
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, data).ok());
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/f"}).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  // The drive keeps failing past the retry budget (3 attempts): the read
  // fails cleanly...
  hl_->Internals().jukebox(0).FailNextOps(3);
  std::vector<uint8_t> out(data.size());
  Result<size_t> n = hl_->fs().Read(*ino, 0, out);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), ErrorCode::kIoError);
  // ... after charging backed-off retries ...
  EXPECT_GE(hl_->Internals().io_server.stats().retries, 2u);
  // ... without registering a bogus cache line ...
  EXPECT_EQ(hl_->Internals().cache.Used(), 0u);
  // ... and the retry succeeds.
  Result<size_t> again = hl_->fs().Read(*ino, 0, out);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(out, data);
}

TEST_F(FailureInjectionTest, TransientJukeboxFaultIsRetriedThrough) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  auto data = Pattern(256 * 1024, 11);
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, data).ok());
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/f"}).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  // Two transient faults stay inside the 3-attempt budget: the application
  // never sees them, but the backoff costs simulated time.
  hl_->Internals().jukebox(0).FailNextOps(2);
  const SimTime before = clock_.Now();
  const uint64_t retries_before = hl_->Internals().io_server.stats().retries;
  std::vector<uint8_t> out(data.size());
  Result<size_t> n = hl_->fs().Read(*ino, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(hl_->Internals().io_server.stats().retries, retries_before + 2);
  const RetryPolicy policy;  // Defaults match the config's defaults.
  EXPECT_GE(clock_.Now() - before, policy.BackoffFor(1) + policy.BackoffFor(2));
}

TEST_F(FailureInjectionTest, JukeboxFailureDuringCopyOutSurfaces) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(128 * 1024, 2)).ok());
  // Outlast the retry budget so the failure surfaces to the caller.
  hl_->Internals().jukebox(0).FailNextOps(3);
  Result<MigrationReport> r = hl_->Migrate(MigrationRequest{.path = "/f"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kIoError);
  // The staged segment stays on the pending ledger until copy-out lands.
  EXPECT_GT(hl_->Internals().migrator.PendingSegments(), 0u);

  // The staged segment still holds the only... no: pointers were flipped at
  // staging time and the cache line is pinned dirty, so data remain
  // readable from the staging line.
  std::vector<uint8_t> out(128 * 1024);
  Result<size_t> n = hl_->fs().Read(*ino, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, Pattern(128 * 1024, 2));

  // Draining later (fault cleared) completes the migration and releases
  // the staging pin.
  ASSERT_TRUE(hl_->Internals().migrator.FlushStaging().ok());
  EXPECT_EQ(hl_->Internals().migrator.PendingSegments(), 0u);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ASSERT_TRUE(hl_->fs().Read(*ino, 0, out).ok());
  EXPECT_EQ(out, Pattern(128 * 1024, 2));
}

TEST_F(FailureInjectionTest, DiskFailureDuringSyncSurfaces) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  // Small enough (100 KB < one 256 KB segment) that nothing auto-flushes
  // before the injected fault.
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(100 * 1024, 3)).ok());
  hl_->Internals().disk(0).FailNextOps(1);
  Status s = hl_->fs().Sync();
  EXPECT_EQ(s.code(), ErrorCode::kIoError);
  // Dirty data survived the failed flush; a later sync lands them.
  ASSERT_TRUE(hl_->fs().Sync().ok());
  std::vector<uint8_t> out(100 * 1024);
  hl_->fs().FlushBufferCache();
  ASSERT_TRUE(hl_->fs().Read(*ino, 0, out).ok());
  EXPECT_EQ(out, Pattern(100 * 1024, 3));
}

TEST_F(FailureInjectionTest, MediaCorruptionDetectedByChecksum) {
  // Scribble over a migrated segment ON THE MEDIUM; the whole-segment CRC
  // stamped at copy-out refuses to install the corrupted image.
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(256 * 1024, 4)).ok());
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/f"}).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  Result<Volume*> vol = hl_->Internals().footprint.GetVolume(0);
  ASSERT_TRUE(vol.ok());
  // Corrupt the first segment's summary block on the medium.
  std::vector<uint8_t> junk(kBlockSize, 0x5C);
  ASSERT_TRUE((*vol)->Write(0, junk).ok());

  // The demand fetch detects the corruption instead of serving bad bytes
  // (there is no replica to fail over to here, so the error surfaces).
  std::vector<uint8_t> out(256 * 1024);
  Result<size_t> n = hl_->fs().Read(*ino, 0, out);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), ErrorCode::kCorruption);
  EXPECT_GT(hl_->Internals().io_server.stats().crc_mismatches, 0u);
  EXPECT_EQ(hl_->Internals().cache.Used(), 0u);

  // The media-side summary checksums agree: a raw segment-level parse of
  // the on-medium image reports no valid partial segments (the cleaner
  // would treat it as empty, not as data).
  uint32_t first_tseg = hl_->Internals().address_map.FirstTsegOfVolume(0);
  uint32_t spb = hl_->fs().superblock().seg_size_blocks;
  std::vector<uint8_t> image(static_cast<size_t>(spb) * kBlockSize);
  ASSERT_TRUE((*vol)->Read(0, image).ok());
  EXPECT_TRUE(ParsePartialsFromImage(
                  image, hl_->Internals().address_map.TsegBase(first_tseg), spb)
                  .empty());
}

TEST_F(FailureInjectionTest, FailedDemandFetchLeavesNoReadaheadResidue) {
  // Rebuild with sequential read-ahead on: a failed demand fetch must not
  // leave pending read-aheads or stale cache lines behind (and a dropped
  // read-ahead image must be counted as wasted).
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 8 * 1024});
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = 4;
  j.volume_capacity_bytes = 16ull * 64 * kBlockSize;
  config.jukeboxes.push_back({j, false, 16});
  config.lfs.seg_size_blocks = 64;
  config.lfs.cache_max_segments = 8;
  config.sequential_readahead = true;
  SimClock clock;
  auto made = HighLightFs::Create(config, &clock);
  ASSERT_TRUE(made.ok());
  std::unique_ptr<HighLightFs> hl = std::move(*made);

  Result<uint32_t> ino = hl->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  auto data = Pattern(512 * 1024, 6);  // Two 256 KB segments.
  ASSERT_TRUE(hl->fs().Write(*ino, 0, data).ok());
  ASSERT_TRUE(hl->Migrate(MigrationRequest{.path = "/f"}).ok());
  ASSERT_TRUE(hl->DropCleanCacheLines().ok());

  // Exhaust the retry budget: the demand fetch of the first segment fails
  // before any read-ahead is ever issued. (128 KB stays inside one
  // segment's data blocks.)
  hl->Internals().jukebox(0).FailNextOps(3);
  std::vector<uint8_t> out(128 * 1024);
  Result<size_t> n = hl->fs().Read(*ino, 0, out);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(hl->Internals().service.PendingPrefetches(), 0u);
  EXPECT_EQ(hl->Internals().service.stats().readaheads_issued, 0u);
  EXPECT_EQ(hl->Internals().cache.Used(), 0u);

  // Fault cleared: the fetch succeeds and chases the next segment ahead.
  ASSERT_TRUE(hl->fs().Read(*ino, 0, out).ok());
  EXPECT_EQ(std::vector<uint8_t>(data.begin(), data.begin() + out.size()),
            out);
  EXPECT_EQ(hl->Internals().service.stats().readaheads_issued, 1u);
  EXPECT_EQ(hl->Internals().service.PendingPrefetches(), 1u);

  // A sequential miss into the second segment consumes the buffered image
  // (and chases the third segment in turn).
  ASSERT_TRUE(hl->fs().Read(*ino, 300 * 1024, out).ok());
  EXPECT_EQ(std::vector<uint8_t>(data.begin() + 300 * 1024,
                                 data.begin() + 300 * 1024 + out.size()),
            out);
  EXPECT_EQ(hl->Internals().service.stats().readaheads_consumed, 1u);
  EXPECT_EQ(hl->Internals().service.stats().readaheads_wasted, 0u);

  // Dropping the cache discards the chased image and counts it as wasted —
  // no pending entry survives to alias a future fetch.
  const uint64_t pending = hl->Internals().service.PendingPrefetches();
  ASSERT_TRUE(hl->DropCleanCacheLines().ok());
  EXPECT_EQ(hl->Internals().service.PendingPrefetches(), 0u);
  EXPECT_EQ(hl->Internals().service.stats().readaheads_wasted, pending);
}

TEST(FusedReadCrcTest, ReportedCrcDescribesDeliveredBytes) {
  // The tertiary read checksums the image while it copies it, and every
  // verifier compares that value instead of reading the image again. The
  // contract: the CRC a read reports describes the bytes it delivered,
  // injected corruption included.
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 8 * 1024});
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = 4;
  j.volume_capacity_bytes = 16ull * 64 * kBlockSize;
  config.jukeboxes.push_back({j, false, 16});
  config.lfs.seg_size_blocks = 64;
  config.lfs.cache_max_segments = 8;
  config.async_read_pipeline = true;
  SimClock clock;
  auto made = HighLightFs::Create(config, &clock);
  ASSERT_TRUE(made.ok());
  std::unique_ptr<HighLightFs> hl = std::move(*made);
  auto internals = hl->Internals();

  Result<uint32_t> ino = hl->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  const auto data = Pattern(200 * 1024, 7);  // One segment.
  ASSERT_TRUE(hl->fs().Write(*ino, 0, data).ok());
  MigratorOptions opts;
  opts.replicas = 1;
  ASSERT_TRUE(internals.migrator.MigrateFiles({*ino}, opts).ok());
  ASSERT_TRUE(hl->DropCleanCacheLines().ok());

  uint32_t primary = kNoSegment;
  for (uint32_t t = 0; t < internals.tseg_table.size(); ++t) {
    if (internals.tseg_table.Get(t).flags & kSegReplica) {
      primary = internals.tseg_table.Get(t).cache_tseg;
      break;
    }
  }
  ASSERT_NE(primary, kNoSegment);
  uint32_t stamped = 0;
  ASSERT_TRUE(internals.tseg_table.CrcOf(primary, &stamped));
  const uint32_t volume = internals.address_map.VolumeOfTseg(primary);
  const uint64_t offset = internals.address_map.ByteOffsetOnVolume(primary);
  Result<Volume*> medium =
      internals.footprint.GetVolume(static_cast<int>(volume));
  ASSERT_TRUE(medium.ok());
  std::vector<uint8_t> image(internals.address_map.SegBytes());

  // No faults: the reported CRC is the image's, and the copy-out stamp.
  uint32_t crc = 0;
  ASSERT_TRUE((*medium)->Read(offset, image, &crc).ok());
  EXPECT_EQ(crc, Crc32(image));
  EXPECT_EQ(crc, stamped);

  // Seat the primary's volume in a drive, so the fetch below tries the
  // primary before its replica.
  std::vector<uint8_t> sector(kBlockSize);
  ASSERT_TRUE(
      internals.footprint.Read(static_cast<int>(volume), 0, sector).ok());

  // Every read of the medium now flips bits: the reported CRC follows the
  // corrupted bytes, so it no longer matches the stamp.
  FaultProfile corrupt;
  corrupt.read_corrupt_p = 1.0;
  (*medium)->fault_channel()->set_profile(corrupt);
  ASSERT_TRUE((*medium)->Read(offset, image, &crc).ok());
  EXPECT_EQ(crc, Crc32(image));
  EXPECT_NE(crc, stamped);

  // An async demand fetch rejects each corrupted attempt on the primary,
  // then fails over to the replica, which installs the intact image.
  const IoServer::Stats& io = internals.io_server.stats();
  const uint64_t mismatches = io.crc_mismatches;
  const uint64_t replica_reads = io.replica_reads;
  const uint64_t failovers = io.failovers;
  Result<FetchOutcome> fetched = hl->FetchSegment(primary);
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(fetched->status.ok()) << fetched->status.ToString();
  EXPECT_EQ(io.crc_mismatches - mismatches,
            static_cast<uint64_t>(RetryPolicy().max_attempts));
  EXPECT_EQ(io.failovers - failovers, 1u);
  EXPECT_EQ(io.replica_reads - replica_reads, 1u);
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(hl->fs().Read(*ino, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FailureInjectionTest, RepeatedFaultsDoNotWedgeTheSystem) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  auto data = Pattern(512 * 1024, 5);
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, data).ok());
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/f"}).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  std::vector<uint8_t> out(data.size());
  for (int round = 0; round < 5; ++round) {
    hl_->Internals().jukebox(0).FailNextOps(1);
    (void)hl_->fs().Read(*ino, 0, out);  // May fail; must not wedge.
    Result<size_t> n = hl_->fs().Read(*ino, 0, out);
    ASSERT_TRUE(n.ok()) << "round " << round;
    ASSERT_EQ(out, data);
    ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  }
  // The image is still structurally sound.
  ASSERT_TRUE(hl_->fs().Checkpoint().ok());
  FsckReport report = CheckFs(hl_->fs());
  EXPECT_TRUE(report.clean()) << (report.errors.empty() ? ""
                                                        : report.errors[0]);
}

}  // namespace
}  // namespace hl

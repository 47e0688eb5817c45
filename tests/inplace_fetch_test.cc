// The in-place fetch contract: BlockDevice::InPlaceBytes lends a device's
// own bytes, a tertiary fetch lands straight in its cache line, and the
// install WriteBlocks of that span is an ordinary write in every respect but
// the copy. A failed fetch or install maps nothing, and a line the raw disk
// cannot lend (one straddling two components) falls back to the transfer
// image.

#include <gtest/gtest.h>

#include <algorithm>

#include "blockdev/concat_driver.h"
#include "blockdev/sim_disk.h"
#include "highlight/highlight.h"
#include "util/fault_injector.h"
#include "util/metrics.h"
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

// --- SimDisk / ConcatDriver seam ---------------------------------------------

TEST(InPlaceBytesTest, SimDiskLendsItsImageForValidRanges) {
  SimClock clock;
  SimDisk disk("d", 64, Rz57Profile(), &clock);
  std::span<uint8_t> view = disk.InPlaceBytes(10, 2);
  ASSERT_EQ(view.size(), 2u * kBlockSize);
  const auto data = Pattern(2 * kBlockSize, 1);
  std::copy(data.begin(), data.end(), view.begin());
  std::vector<uint8_t> out(2 * kBlockSize);
  ASSERT_TRUE(disk.ReadBlocks(10, 2, out).ok());
  EXPECT_TRUE(out == data);

  EXPECT_TRUE(disk.InPlaceBytes(63, 2).empty());  // Past the end.
  EXPECT_TRUE(disk.InPlaceBytes(64, 1).empty());
  EXPECT_TRUE(disk.InPlaceBytes(0, 0).empty());
}

TEST(InPlaceBytesTest, ConcatForwardsWithinOneComponentOnly) {
  SimClock clock;
  SimDisk a("a", 100, Rz57Profile(), &clock);
  SimDisk b("b", 200, Rz58Profile(), &clock);
  ConcatDriver cat("cat", {&a, &b});
  EXPECT_EQ(cat.InPlaceBytes(90, 10).data(), a.InPlaceBytes(90, 10).data());
  EXPECT_EQ(cat.InPlaceBytes(100, 4).data(), b.InPlaceBytes(0, 4).data());
  EXPECT_EQ(cat.InPlaceBytes(250, 50).data(), b.InPlaceBytes(150, 50).data());
  EXPECT_TRUE(cat.InPlaceBytes(98, 4).empty());  // Straddles a and b.
  EXPECT_TRUE(cat.InPlaceBytes(299, 2).empty());
  EXPECT_TRUE(cat.InPlaceBytes(300, 1).empty());

  // A write of a lent span lands where the span points: in one component.
  const auto data = Pattern(4 * kBlockSize, 2);
  std::span<uint8_t> view = cat.InPlaceBytes(120, 4);
  std::copy(data.begin(), data.end(), view.begin());
  ASSERT_TRUE(cat.WriteBlocks(120, 4, view).ok());
  std::vector<uint8_t> out(4 * kBlockSize);
  ASSERT_TRUE(b.ReadBlocks(20, 4, out).ok());
  EXPECT_TRUE(out == data);
  EXPECT_EQ(b.writes(), 1u);
  EXPECT_EQ(a.writes(), 0u);
}

// Two identical disks, each behind its own fault injector with the same
// seed and some write failures: one takes copying writes, the other
// in-place writes of the same bytes. Completion times, seeks, fault draws
// and disk.* counters agree op for op.
TEST(InPlaceBytesTest, InPlaceWriteChargesLikeACopyingWrite) {
  SimClock clock;
  FaultInjector copying_faults(&clock, 42);
  FaultInjector in_place_faults(&clock, 42);
  MetricsRegistry copying_metrics;
  MetricsRegistry in_place_metrics;
  SimDisk copying("d", 512, Rz57Profile(), &clock);
  SimDisk in_place("d", 512, Rz57Profile(), &clock);
  copying.AttachFaults(&copying_faults);
  in_place.AttachFaults(&in_place_faults);
  copying.AttachMetrics(&copying_metrics);
  in_place.AttachMetrics(&in_place_metrics);
  FaultProfile flaky;
  flaky.write_transient_p = 0.3;
  copying.fault_channel()->set_profile(flaky);
  in_place.fault_channel()->set_profile(flaky);

  Rng rng(7);
  SimTime at = 0;
  int failures = 0;
  for (int op = 0; op < 40; ++op) {
    const uint32_t count = 1 + static_cast<uint32_t>(rng.Below(16));
    const uint32_t block = static_cast<uint32_t>(rng.Below(512 - count));
    const auto data = Pattern(count * kBlockSize, op);
    Result<SimTime> a = copying.ScheduleWriteAt(at, block, count, data);
    std::span<uint8_t> view = in_place.InPlaceBytes(block, count);
    ASSERT_EQ(view.size(), data.size());
    std::copy(data.begin(), data.end(), view.begin());
    Result<SimTime> b = in_place.ScheduleWriteAt(at, block, count, view);
    ASSERT_EQ(a.ok(), b.ok()) << "op " << op;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << "op " << op;
      std::span<uint8_t> landed = copying.InPlaceBytes(block, count);
      EXPECT_TRUE(std::equal(landed.begin(), landed.end(), data.begin()));
    } else {
      ++failures;
    }
    at += 5'000;
  }
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 40);
  EXPECT_EQ(copying.seeks(), in_place.seeks());
  EXPECT_EQ(copying.busy_time(), in_place.busy_time());
  const MetricsSnapshot a = copying_metrics.Snapshot();
  const MetricsSnapshot b = in_place_metrics.Snapshot();
  for (const char* counter :
       {"disk.d.writes", "disk.d.bytes_written", "disk.d.seeks"}) {
    EXPECT_EQ(a.Value(counter), b.Value(counter)) << counter;
  }
  EXPECT_GT(b.Value("disk.d.writes"), 0u);
}

TEST(InPlaceBytesTest, PartiallyOverlappingSourceIsRejected) {
  SimClock clock;
  SimDisk disk("d", 64, Rz57Profile(), &clock);
  const auto data = Pattern(2 * kBlockSize, 3);
  std::span<uint8_t> view = disk.InPlaceBytes(10, 2);
  std::copy(data.begin(), data.end(), view.begin());

  // One block off in either direction: the source overlaps the destination
  // without being it, so the write is refused before it costs anything.
  EXPECT_EQ(disk.WriteBlocks(11, 2, view).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(disk.WriteBlocks(9, 2, view).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(disk.writes(), 0u);
  EXPECT_EQ(clock.Now(), 0u);

  // A disjoint range of the same image is an ordinary copy.
  ASSERT_TRUE(disk.WriteBlocks(20, 2, view).ok());
  std::vector<uint8_t> out(2 * kBlockSize);
  ASSERT_TRUE(disk.ReadBlocks(20, 2, out).ok());
  EXPECT_TRUE(out == data);
}

// --- Fetches that land in the cache line --------------------------------------

// One deployment per pipeline (sync FetchSegment / async IssueRead), with
// tertiary segments of 64 blocks and a small cache.
class InPlaceFetchTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    HighLightConfig config;
    config.disks.push_back({Rz57Profile(), 8 * 1024});
    JukeboxProfile j = Hp6300MoProfile();
    j.num_slots = 4;
    j.volume_capacity_bytes = 16ull * 64 * kBlockSize;
    config.jukeboxes.push_back({j, false, 16});
    config.lfs.seg_size_blocks = 64;
    config.lfs.cache_max_segments = 4;
    config.async_read_pipeline = GetParam();
    auto made = HighLightFs::Create(config, &clock_);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    hl_ = std::move(*made);
  }

  // Writes and migrates `path`, then drops the cache; returns its tsegs.
  std::vector<uint32_t> MigrateCold(const std::string& path,
                                    const std::vector<uint8_t>& data) {
    const std::vector<uint32_t> before = hl_->FetchableSegments();
    Result<uint32_t> ino = hl_->fs().Create(path);
    EXPECT_TRUE(ino.ok());
    EXPECT_TRUE(hl_->fs().Write(*ino, 0, data).ok());
    EXPECT_TRUE(hl_->Migrate(MigrationRequest{.path = path}).ok());
    EXPECT_TRUE(hl_->DropCleanCacheLines().ok());
    std::vector<uint32_t> added;
    for (uint32_t tseg : hl_->FetchableSegments()) {
      if (std::find(before.begin(), before.end(), tseg) == before.end()) {
        added.push_back(tseg);
      }
    }
    return added;
  }

  bool ReadsBack(const std::string& path, const std::vector<uint8_t>& data) {
    hl_->fs().FlushBufferCache();
    Result<uint32_t> ino = hl_->fs().LookupPath(path);
    std::vector<uint8_t> out(data.size());
    return ino.ok() && hl_->fs().Read(*ino, 0, out).ok() && out == data;
  }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
};

TEST_P(InPlaceFetchTest, FailedInstallWriteMapsNothingAndRefetchIsExact) {
  const auto data = Pattern(200 * 1024, 11);  // One segment.
  const std::vector<uint32_t> tsegs = MigrateCold("/f", data);
  ASSERT_EQ(tsegs.size(), 1u);
  auto internals = hl_->Internals();

  // Learn which line a fetch of the segment takes, free it and blank it:
  // the free list is LIFO, so the failing fetch below reuses it.
  ASSERT_TRUE(hl_->FetchSegment(tsegs[0])->status.ok());
  const uint32_t line = internals.cache.Lookup(tsegs[0]);
  ASSERT_NE(line, kNoSegment);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  std::span<uint8_t> line_bytes = internals.disk(0).InPlaceBytes(
      kDefaultReservedBlocks + line * 64, 64);
  ASSERT_FALSE(line_bytes.empty());
  std::fill(line_bytes.begin(), line_bytes.end(), 0);
  const uint64_t fetched = internals.io_server.stats().segments_fetched;

  // The tertiary read succeeds (and lands in the line); the raw-disk write
  // that installs it fails on every try.
  FaultChannel* disk = internals.disk(0).fault_channel();
  FaultProfile failing;
  failing.write_transient_p = 1.0;
  disk->set_profile(failing);
  Result<FetchOutcome> failed = hl_->FetchSegment(tsegs[0]);
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->status.code(), ErrorCode::kIoError);
  EXPECT_FALSE(hl_->SegmentCached(tsegs[0]));
  EXPECT_EQ(internals.cache.Lookup(tsegs[0]), kNoSegment);
  EXPECT_EQ(internals.io_server.stats().segments_fetched, fetched);
  // The one visible consequence of landing in place: the aborted line holds
  // the fetched image instead of its previous bytes (it is unmapped, so
  // nothing reads them).
  Result<std::vector<uint8_t>> image = hl_->ReadSegmentImage(tsegs[0]);
  ASSERT_TRUE(image.ok());
  EXPECT_TRUE(std::equal(line_bytes.begin(), line_bytes.end(),
                         image->begin()));

  disk->set_profile(FaultProfile{});
  Result<FetchOutcome> again = hl_->FetchSegment(tsegs[0]);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again->status.ok()) << again->status.ToString();
  EXPECT_EQ(internals.cache.Lookup(tsegs[0]), line);
  EXPECT_EQ(internals.io_server.stats().segments_fetched, fetched + 1);
  EXPECT_TRUE(ReadsBack("/f", data));
}

TEST_P(InPlaceFetchTest, CorruptReadWithoutReplicaInstallsNothing) {
  const auto data = Pattern(200 * 1024, 12);
  const std::vector<uint32_t> tsegs = MigrateCold("/f", data);
  ASSERT_EQ(tsegs.size(), 1u);
  auto internals = hl_->Internals();
  const IoServer::Stats& io = internals.io_server.stats();
  const uint64_t fetched = io.segments_fetched;
  const uint64_t mismatches = io.crc_mismatches;
  const uint64_t disk_writes = internals.disk(0).writes();

  const uint32_t volume = internals.address_map.VolumeOfTseg(tsegs[0]);
  Result<Volume*> medium =
      internals.footprint.GetVolume(static_cast<int>(volume));
  ASSERT_TRUE(medium.ok());
  FaultProfile corrupt;
  corrupt.read_corrupt_p = 1.0;
  (*medium)->fault_channel()->set_profile(corrupt);
  Result<FetchOutcome> failed = hl_->FetchSegment(tsegs[0]);
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->status.code(), ErrorCode::kCorruption);
  EXPECT_EQ(io.crc_mismatches - mismatches,
            static_cast<uint64_t>(RetryPolicy().max_attempts));
  EXPECT_EQ(internals.cache.Lookup(tsegs[0]), kNoSegment);
  EXPECT_EQ(io.segments_fetched, fetched);
  EXPECT_EQ(internals.disk(0).writes(), disk_writes);  // No install write.

  (*medium)->fault_channel()->set_profile(FaultProfile{});
  EXPECT_TRUE(ReadsBack("/f", data));
  EXPECT_EQ(io.segments_fetched, fetched + 1);
}

INSTANTIATE_TEST_SUITE_P(SyncAndAsync, InPlaceFetchTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "AsyncPipeline" : "SyncFetch";
                         });

// A queued sequential read-ahead that a demand fault promotes lands in the
// demand's cache line: its own buffer stays unfilled, and nothing buffers it.
TEST(InPlaceReadaheadTest, PromotedReadaheadNeverBuffersUnfilledImage) {
  SimClock clock;
  Result<HighLightConfig> config =
      HighLightConfig::Builder()
          .AddDisk(Rz57Profile(), 8 * 1024)
          .AddJukebox(Hp6300MoProfile(), false, 16)
          .SegSizeBlocks(64)
          .CacheMaxSegments(6)
          .SequentialReadahead()
          .AsyncReadPipeline()
          .Build();
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  auto made = HighLightFs::Create(*config, &clock);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  std::unique_ptr<HighLightFs> hl = std::move(*made);
  auto internals = hl->Internals();

  Result<uint32_t> ino = hl->fs().Create("/seq");
  ASSERT_TRUE(ino.ok());
  const auto data = Pattern(3 * 200 * 1024, 13);
  ASSERT_TRUE(hl->fs().Write(*ino, 0, data).ok());
  ASSERT_TRUE(hl->Migrate(MigrationRequest{.path = "/seq"}).ok());
  ASSERT_TRUE(hl->DropCleanCacheLines().ok());
  std::vector<uint32_t> tsegs = hl->FetchableSegments();
  ASSERT_GE(tsegs.size(), 2u);

  // The demand fetch of the first segment queues a lazy read-ahead of the
  // next one; the fault on the next one promotes it before it issues.
  ASSERT_TRUE(hl->FetchSegment(tsegs[0])->status.ok());
  ASSERT_TRUE(internals.io_server.ReadQueued(tsegs[0] + 1));
  const uint64_t coalesced = internals.io_server.stats().reads_coalesced;
  const uint64_t consumed = internals.service.stats().readaheads_consumed;
  ASSERT_TRUE(hl->FetchSegment(tsegs[0] + 1)->status.ok());
  EXPECT_EQ(internals.io_server.stats().reads_coalesced, coalesced + 1);
  EXPECT_EQ(internals.service.stats().readaheads_consumed, consumed + 1);
  EXPECT_EQ(internals.service.PendingPrefetches(), 0u);
  EXPECT_TRUE(hl->SegmentCached(tsegs[0] + 1));

  // Everything reads back from the lines alone.
  hl->fs().FlushBufferCache();
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(hl->fs().Read(*ino, 0, out).ok());
  EXPECT_TRUE(out == data);
  EXPECT_EQ(internals.service.PendingPrefetches(), 0u);
}

// Reserved 16 blocks + 64-block segments over an 8192-block first disk: disk
// segment 127 spans blocks [8144, 8208), across the boundary into the second
// disk. With a two-line cache it is the second-to-last segment, so it is a
// cache line; the raw disk cannot lend it, so fetches into it go through the
// transfer image.
TEST(InPlaceStraddleTest, LineAcrossTwoDisksFallsBackAndFetchesExact) {
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    SimClock clock;
    Result<HighLightConfig> config =
        HighLightConfig::Builder()
            .AddDisk(Rz57Profile(), 8 * 1024)
            .AddDisk(Rz57Profile(), 96)
            .AddJukebox(Hp6300MoProfile(), false, 16)
            .SegSizeBlocks(64)
            .CacheMaxSegments(2)
            .AsyncReadPipeline(async)
            .Build();
    ASSERT_TRUE(config.ok()) << config.status().ToString();
    auto made = HighLightFs::Create(*config, &clock);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    std::unique_ptr<HighLightFs> hl = std::move(*made);
    auto internals = hl->Internals();
    ASSERT_EQ(hl->fs().NumSegments(), 129u);
    constexpr uint32_t kStraddler = 127;
    const uint32_t first = kDefaultReservedBlocks + kStraddler * 64;
    ASSERT_LT(first, 8u * 1024);
    ASSERT_GT(first + 64, 8u * 1024);

    Result<uint32_t> ino = hl->fs().Create("/f");
    ASSERT_TRUE(ino.ok());
    const auto data = Pattern(5 * 200 * 1024, 14);
    ASSERT_TRUE(hl->fs().Write(*ino, 0, data).ok());
    ASSERT_TRUE(hl->Migrate(MigrationRequest{.path = "/f"}).ok());
    ASSERT_TRUE(hl->DropCleanCacheLines().ok());

    // Five segments through two lines: every line serves a fetch.
    const uint64_t fetched = internals.io_server.stats().segments_fetched;
    std::vector<uint8_t> out(data.size());
    ASSERT_TRUE(hl->fs().Read(*ino, 0, out).ok());
    EXPECT_TRUE(out == data);
    EXPECT_GE(internals.io_server.stats().segments_fetched, fetched + 5);
    bool straddler_used = false;
    for (const SegmentCache::LineInfo& line : internals.cache.Lines()) {
      straddler_used |= line.disk_seg == kStraddler;
    }
    EXPECT_TRUE(straddler_used);
  }
}

}  // namespace
}  // namespace hl

// Fetches into cache lines under faults and odd geometry: a failed fetch or
// install maps nothing and leaves the line as it was, a corrupt read with no
// replica installs nothing, a promoted read-ahead never buffers its unfilled
// image, and a line straddling two disks (which no one disk can hold by
// reference) is copied in and fetches exact. tests/shared_fetch_test.cc pins
// the install-by-reference contract itself.

#include <gtest/gtest.h>

#include <algorithm>

#include "blockdev/sim_disk.h"
#include "highlight/highlight.h"
#include "util/fault_injector.h"
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

// --- Fetches into the cache line ---------------------------------------------

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
  const uint32_t line_first = kDefaultReservedBlocks + line * 64;
  const std::vector<uint8_t> blank(64 * kBlockSize, 0);
  ASSERT_TRUE(internals.disk(0).WriteBlocks(line_first, 64, blank).ok());
  const uint64_t fetched = internals.io_server.stats().segments_fetched;

  // The tertiary read succeeds; the raw-disk write that installs it fails
  // on every try.
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
  // A failed install writes nothing: the aborted line keeps its previous
  // bytes, not the fetched image.
  std::vector<uint8_t> line_bytes(64 * kBlockSize);
  ASSERT_TRUE(internals.disk(0).ReadBlocks(line_first, 64, line_bytes).ok());
  EXPECT_TRUE(line_bytes == blank);
  Result<std::vector<uint8_t>> image = hl_->ReadSegmentImage(tsegs[0]);
  ASSERT_TRUE(image.ok());
  EXPECT_FALSE(line_bytes == *image);

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
// cache line; no one disk can hold it by reference, so installs into it are
// copied through WriteBlocks.
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

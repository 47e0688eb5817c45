// Swap-aware asynchronous read pipeline tests: demand-before-prefetch issue
// priority, mounted-volume batching, elevator amortization of media swaps
// with critical-segment-first resume, concurrent-fault coalescing onto one
// in-flight fetch, duplicate read-ahead suppression, quarantined-volume
// source exclusion, and the shrink-while-pending queue-depth regression.
// Then the one demand-fault path: a single recall's delay ends when its
// segment is usable, a request riding an in-flight fetch is an instant,
// and every served request adds its delay to the latency histogram once.

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "highlight/highlight.h"
#include "lfs/fsck.h"
#include "util/health.h"
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

// A read completion nobody waits on.
void IgnoreRead(const Status&, SimTime, std::span<const ChunkRef>) {}

JukeboxProfile SmallJukebox(int slots, uint64_t volume_bytes) {
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = slots;
  j.volume_capacity_bytes = volume_bytes;
  return j;
}

class ReadPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(/*async=*/true); }

  void Build(bool async, bool readahead = false,
             const MigratorOptions& opts = MigratorOptions{},
             const HealthPolicy& health = HealthPolicy{}) {
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
    config.async_read_pipeline = async;
    config.health = health;
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

  // Creates a one-segment file migrated to `volume`; returns its tseg.
  uint32_t MigratedTseg(const std::string& path, uint32_t volume,
                        uint64_t seed) {
    uint32_t ino = MakeFile(path, 200 * 1024, seed);
    MigratorOptions opts;
    opts.preferred_volume = volume;
    EXPECT_TRUE(hl_->Internals().migrator.MigrateFiles({ino}, opts).ok());
    return last_migrated_[volume]++;
  }

  // Tracks the next tseg each volume's migrations land on.
  void InitTsegCursors() {
    for (uint32_t v = 0; v < 4; ++v) {
      last_migrated_[v] = hl_->Internals().address_map.FirstTsegOfVolume(v);
    }
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

  // The registry's service.demand_latency_us histogram.
  Histogram::Data DemandLatency() {
    for (const auto& [name, data] : hl_->Metrics().histograms) {
      if (name == "service.demand_latency_us") {
        return data;
      }
    }
    ADD_FAILURE() << "no service.demand_latency_us histogram";
    return {};
  }

  void ExpectFsckClean() {
    FsckReport report = CheckFs(hl_->fs());
    EXPECT_TRUE(report.clean())
        << (report.errors.empty() ? "" : report.errors[0]);
  }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
  uint32_t last_migrated_[4] = {0, 0, 0, 0};
};

TEST_F(ReadPipelineTest, DemandReadsIssueBeforeQueuedPrefetches) {
  InitTsegCursors();
  uint32_t pre_tseg = MigratedTseg("/prefetched", 1, 31);
  uint32_t dem_tseg = MigratedTseg("/demanded", 2, 32);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  IoServer& io = hl_->Internals().io_server;
  io.set_max_queue_depth(1);  // One issue, then the window is full.
  io.HoldReads();
  ASSERT_TRUE(io.EnqueuePrefetchRead(pre_tseg, kNoSegment, IgnoreRead).ok());
  ASSERT_TRUE(io.EnqueueDemandRead(dem_tseg, kNoSegment, IgnoreRead).ok());
  ASSERT_TRUE(io.ReleaseReads().ok());

  // The younger demand read won the only window slot.
  EXPECT_FALSE(io.ReadQueued(dem_tseg));
  EXPECT_TRUE(io.ReadQueued(pre_tseg));
  ASSERT_TRUE(io.Drain().ok());
  EXPECT_FALSE(io.ReadQueued(pre_tseg));
  EXPECT_EQ(io.stats().demand_reads_enqueued, 1u);
  EXPECT_EQ(io.stats().prefetch_reads_enqueued, 1u);
}

TEST_F(ReadPipelineTest, MountedVolumeReadBeatsOlderSwapRead) {
  InitTsegCursors();
  uint32_t unmounted_tseg = MigratedTseg("/needs-swap", 1, 33);
  uint32_t mounted_tseg = MigratedTseg("/mounted", 0, 34);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  // Seat volume 0 in the read drive.
  std::vector<uint8_t> sector(4096);
  ASSERT_TRUE(hl_->Internals().footprint.Read(0, 0, sector).ok());

  IoServer& io = hl_->Internals().io_server;
  io.set_max_queue_depth(1);
  io.HoldReads();
  ASSERT_TRUE(io.EnqueueDemandRead(unmounted_tseg, kNoSegment, IgnoreRead)
                  .ok());
  ASSERT_TRUE(
      io.EnqueueDemandRead(mounted_tseg, kNoSegment, IgnoreRead).ok());
  ASSERT_TRUE(io.ReleaseReads().ok());

  // Same class, but the mounted volume's read jumped the older one.
  EXPECT_FALSE(io.ReadQueued(mounted_tseg));
  EXPECT_TRUE(io.ReadQueued(unmounted_tseg));
  EXPECT_GE(io.stats().read_mounted_picks, 1u);
  ASSERT_TRUE(io.Drain().ok());
}

TEST_F(ReadPipelineTest, BatchedFaultsAmortizeSwapsAndResumeCriticalFirst) {
  // Four faults alternating across two unmounted volumes. Synchronous
  // service swaps the single read drive on every fetch (4 swaps); the
  // async elevator serves each volume's pair together (2 swaps).
  struct RunResult {
    uint64_t swaps = 0;
    SimTime mean_delay = 0;
    std::vector<FetchOutcome> results;
  };
  auto run = [this](bool async) {
    Build(async);
    InitTsegCursors();
    uint32_t v1a = MigratedTseg("/v1a", 1, 41);
    uint32_t v2a = MigratedTseg("/v2a", 2, 42);
    uint32_t v1b = MigratedTseg("/v1b", 1, 43);
    uint32_t v2b = MigratedTseg("/v2b", 2, 44);
    // Park the write drive on volume 3 so neither fetch volume is seated.
    MigratedTseg("/park", 3, 45);
    EXPECT_TRUE(hl_->DropCleanCacheLines().ok());
    uint64_t swaps0 = hl_->Internals().footprint.TotalMediaSwaps();
    auto res = hl_->Internals().service.DemandFetchBatch({v1a, v2a, v1b, v2b});
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    RunResult out;
    out.swaps = hl_->Internals().footprint.TotalMediaSwaps() - swaps0;
    for (const auto& r : *res) {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      out.mean_delay += r.delay_us;
    }
    out.mean_delay /= res->size();
    out.results = std::move(*res);
    return out;
  };

  RunResult sync = run(/*async=*/false);
  EXPECT_EQ(sync.swaps, 4u);

  RunResult async = run(/*async=*/true);
  EXPECT_EQ(async.swaps, 2u) << "elevator should load each volume once";
  EXPECT_LT(async.mean_delay, sync.mean_delay);
  // Critical-segment-first: /v1b (queued third) resumes before /v2a
  // (queued second) because its volume's transfer lands first.
  EXPECT_LT(async.results[2].delay_us, async.results[1].delay_us);
  // The second read on each mounted volume rode the seated medium.
  EXPECT_GE(hl_->Internals().io_server.stats().read_mounted_picks, 2u);
  MetricsSnapshot snap = hl_->Metrics();
  EXPECT_GE(snap.Value("jukebox.HP6300-MO.mounted_transfers"), 2u);
  EXPECT_EQ(snap.Value("io.read_queue.demand_enqueued"), 4u);
  bool batched = false;
  for (const SpanRecord& s : hl_->spans().Completed()) {
    batched |= s.name == "fetch_batch";
  }
  EXPECT_TRUE(batched) << "the batch is served under one fetch_batch span";
  ExpectFileContents("/v1a", 200 * 1024, 41);
  ExpectFileContents("/v2a", 200 * 1024, 42);
  ExpectFileContents("/v1b", 200 * 1024, 43);
  ExpectFileContents("/v2b", 200 * 1024, 44);
  ExpectFsckClean();
}

TEST_F(ReadPipelineTest, ConcurrentFaultsOnOneTsegShareOneTransfer) {
  InitTsegCursors();
  uint32_t tseg = MigratedTseg("/hot", 0, 51);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  uint64_t fetched0 = hl_->Internals().io_server.stats().segments_fetched;
  auto res = hl_->Internals().service.DemandFetchBatch({tseg, tseg, tseg});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  for (const auto& r : *res) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
  EXPECT_EQ(hl_->Internals().io_server.stats().segments_fetched - fetched0, 1u)
      << "duplicate faults must coalesce onto one tertiary transfer";
  SegmentCache::Stats cs = hl_->Internals().cache.Snapshot();
  EXPECT_EQ(cs.inflight_waits, 2u);
  EXPECT_GE(cs.inflight_begun, 1u);
  EXPECT_GE(cs.inflight_completed, 1u);
  // Waiters become usable the instant the shared transfer lands.
  EXPECT_EQ((*res)[1].delay_us, (*res)[0].delay_us);
  EXPECT_EQ((*res)[2].delay_us, (*res)[0].delay_us);
  MetricsSnapshot snap = hl_->Metrics();
  EXPECT_EQ(snap.Value("io.read_queue.demand_enqueued"), 1u);
  EXPECT_EQ(snap.Value("cache.inflight.waits"), 2u);
  ExpectFileContents("/hot", 200 * 1024, 51);
}

TEST_F(ReadPipelineTest, DuplicateReadaheadSuppressedWhileReadQueued) {
  Build(/*async=*/true, /*readahead=*/true);
  uint32_t ino = MakeFile("/seq", 600 * 1024, 61);
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({ino}, MigratorOptions{}).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  uint32_t first = hl_->Internals().address_map.FirstTsegOfVolume(0);

  ASSERT_TRUE(hl_->Internals().service.DemandFetch(first).ok());
  EXPECT_EQ(hl_->Internals().service.stats().readaheads_issued, 1u);
  EXPECT_TRUE(hl_->Internals().io_server.ReadQueued(first + 1))
      << "read-ahead should sit lazily in the queue";

  // Re-running the demand path re-triggers the read-ahead policy; the
  // still-queued read for first+1 must not be fetched twice.
  ASSERT_TRUE(hl_->Internals().service.DemandFetch(first).ok());
  EXPECT_EQ(hl_->Internals().service.stats().readaheads_issued, 1u);
  EXPECT_EQ(hl_->Internals().service.stats().readaheads_wasted, 1u);

  // The predicted miss promotes the queued prefetch instead of refetching.
  ASSERT_TRUE(hl_->Internals().service.DemandFetch(first + 1).ok());
  EXPECT_EQ(hl_->Internals().io_server.stats().reads_coalesced, 1u);
  EXPECT_EQ(hl_->Internals().service.stats().readaheads_consumed, 1u);
  EXPECT_EQ(hl_->Metrics().Value("io.read_queue.coalesced"), 1u);
  ExpectFileContents("/seq", 600 * 1024, 61);
  ExpectFsckClean();
}

TEST_F(ReadPipelineTest, QuarantinedVolumeOrderedLastAmongFetchSources) {
  HealthPolicy strict;
  strict.suspect_after = 1;
  strict.quarantine_after = 1;
  Build(/*async=*/true, /*readahead=*/false, MigratorOptions{}, strict);
  InitTsegCursors();
  uint32_t ino = MakeFile("/replicated", 200 * 1024, 71);
  MigratorOptions opts;
  opts.replicas = 1;
  opts.preferred_volume = 0;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({ino}, opts).ok());
  uint32_t primary = hl_->Internals().address_map.FirstTsegOfVolume(0);
  ASSERT_EQ(hl_->Internals().tseg_table.ReplicasOf(primary).size(), 1u);
  // Park the write drive on volume 3 so neither copy's volume is seated
  // and the healthy primary is tried first (stable source order).
  MigratedTseg("/park", 3, 72);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  // Every read of volume 0 fails: the first fetch burns its retry budget
  // on the primary, fails over to the replica, and quarantines volume 0.
  FaultProfile broken;
  broken.read_transient_p = 1.0;
  ASSERT_GT(hl_->Internals().faults.SetProfile("volume.HP6300-MO.vol0", broken), 0);

  ASSERT_TRUE(hl_->Internals().service.DemandFetch(primary).ok());
  EXPECT_GE(hl_->Internals().io_server.stats().failovers, 1u);
  EXPECT_GE(hl_->Internals().io_server.stats().replica_reads, 1u);
  EXPECT_EQ(hl_->Internals().health.VolumeState(0), HealthState::kQuarantined);

  // With volume 0 quarantined it drops to the back of the candidate list:
  // the next fetch goes straight to the replica, no failover needed.
  uint64_t failovers = hl_->Internals().io_server.stats().failovers;
  ASSERT_TRUE(hl_->Internals().cache.Eject(primary).ok());
  ASSERT_TRUE(hl_->Internals().service.DemandFetch(primary).ok());
  EXPECT_EQ(hl_->Internals().io_server.stats().failovers, failovers)
      << "a quarantined primary must not be tried before a healthy replica";
  EXPECT_GE(hl_->Internals().io_server.stats().replica_reads, 2u);
  ExpectFileContents("/replicated", 200 * 1024, 71);
}

TEST_F(ReadPipelineTest, ShrinkingQueueDepthBelowOccupancyStillDrains) {
  MigratorOptions delayed;
  delayed.delayed_copyout = true;
  Build(/*async=*/true, /*readahead=*/false, delayed);
  InitTsegCursors();
  uint32_t a = MakeFile("/qa", 200 * 1024, 81);
  uint32_t b = MakeFile("/qb", 200 * 1024, 82);
  uint32_t c = MakeFile("/qc", 200 * 1024, 83);
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({a}, delayed).ok());
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({b}, delayed).ok());
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({c}, delayed).ok());
  ASSERT_EQ(hl_->Internals().migrator.PendingSegments(), 3u);

  IoServer& io = hl_->Internals().io_server;
  io.set_max_queue_depth(2);
  uint32_t first = hl_->Internals().address_map.FirstTsegOfVolume(0);
  ASSERT_TRUE(hl_->Internals().migrator.EnqueueCopyOut(first).ok());
  ASSERT_TRUE(hl_->Internals().migrator.EnqueueCopyOut(first + 1).ok());
  ASSERT_TRUE(hl_->Internals().migrator.EnqueueCopyOut(first + 2).ok());
  ASSERT_GT(io.QueueDepth() + io.Outstanding(), 0u);

  // Shrink below current occupancy, then all the way to zero: the depth
  // clamps to one so the window can still retire work, and Drain() must
  // complete instead of wedging.
  io.set_max_queue_depth(1);
  io.set_max_queue_depth(0);
  EXPECT_EQ(io.max_queue_depth(), 1u);
  ASSERT_TRUE(hl_->Internals().migrator.FlushStaging().ok());
  EXPECT_EQ(io.QueueDepth(), 0u);
  EXPECT_EQ(io.Outstanding(), 0u);
  EXPECT_EQ(hl_->Internals().migrator.PendingSegments(), 0u);

  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ExpectFileContents("/qa", 200 * 1024, 81);
  ExpectFileContents("/qb", 200 * 1024, 82);
  ExpectFileContents("/qc", 200 * 1024, 83);
  ExpectFsckClean();
}

TEST_F(ReadPipelineTest, SingleRecallDelayExcludesTheWorkItTriggers) {
  Build(/*async=*/false);
  InitTsegCursors();
  const uint32_t a = MigratedTseg("/a", 1, 91);
  const uint32_t b = MigratedTseg("/b", 2, 92);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  hl_->Internals().service.SetPrefetchPolicy(
      [b](uint32_t) { return std::vector<uint32_t>{b}; });

  const SimTime t0 = clock_.Now();
  Result<FetchOutcome> recall = hl_->FetchSegment(a);
  const SimTime elapsed = clock_.Now() - t0;
  ASSERT_TRUE(recall.ok()) << recall.status().ToString();
  ASSERT_TRUE(recall->status.ok()) << recall->status.ToString();
  EXPECT_EQ(hl_->Internals().service.stats().prefetches, 1u);
  // The fault's segment was usable before the prefetch of b it triggered
  // ran; that prefetch is not part of the recall's stall.
  EXPECT_LT(recall->delay_us, elapsed);
  const Histogram::Data latency = DemandLatency();
  EXPECT_EQ(latency.count, 1u);
  EXPECT_EQ(latency.sum, recall->delay_us);
}

TEST_F(ReadPipelineTest, RequestsRidingAnInflightFetchAreInstants) {
  InitTsegCursors();
  const uint32_t a = MigratedTseg("/a", 1, 93);
  const uint32_t b = MigratedTseg("/b", 2, 94);
  const uint32_t c = MigratedTseg("/c", 2, 95);
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ServiceProcess& service = hl_->Internals().service;

  // A batch's duplicate rides the read its first request queued.
  auto batch = service.DemandFetchBatch({a, a});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const auto& o : *batch) {
    EXPECT_TRUE(o.status.ok()) << o.status.ToString();
  }
  // The fault on b prefetches c, whose read waits lazily in the queue with
  // its line installing when the fault on c arrives and rides it.
  service.SetPrefetchPolicy([b, c](uint32_t tseg) {
    return tseg == b ? std::vector<uint32_t>{c} : std::vector<uint32_t>{};
  });
  ASSERT_TRUE(service.DemandFetch(b).ok());
  ASSERT_TRUE(hl_->Internals().cache.Installing(c));
  ASSERT_TRUE(service.DemandFetch(c).ok());
  EXPECT_EQ(hl_->Metrics().Value("cache.inflight.waits"), 2u);

  std::map<SpanId, std::string_view> span_names;
  for (const SpanRecord& s : hl_->spans().Completed()) {
    span_names[s.id] = s.name;
  }
  std::vector<std::string_view> roots;
  std::vector<std::string> tsegs;
  for (const SpanRecord& s : hl_->spans().Completed()) {
    if (s.name != "inflight_wait") {
      continue;
    }
    EXPECT_TRUE(s.instant()) << "a ride on another fetch is a moment";
    roots.push_back(span_names[s.parent]);
    ASSERT_EQ(s.args.size(), 1u);
    EXPECT_EQ(hl_->spans().ArgKey(s.args[0]), "tseg");
    tsegs.push_back(hl_->spans().ArgValue(s.args[0]));
  }
  EXPECT_EQ(roots,
            (std::vector<std::string_view>{"fetch_batch", "demand_fetch"}));
  EXPECT_EQ(tsegs, (std::vector<std::string>{std::to_string(a),
                                             std::to_string(c)}));
}

TEST_F(ReadPipelineTest, DemandLatencyRecordsEachServedRequestsDelay) {
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async read pipeline" : "serial");
    Build(async);
    InitTsegCursors();
    const uint32_t a = MigratedTseg("/a", 1, 96);
    const uint32_t b = MigratedTseg("/b", 2, 97);
    ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

    // A miss on a; then a batch with a miss on b, a hit on a, and a second
    // b that rides the first (pipelined) or hits (serial).
    Result<FetchOutcome> single = hl_->FetchSegment(a);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ASSERT_TRUE(single->status.ok()) << single->status.ToString();
    Result<std::vector<FetchOutcome>> batch = hl_->FetchBatch({b, a, b});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    uint64_t delays = single->delay_us;
    for (const FetchOutcome& o : *batch) {
      ASSERT_TRUE(o.status.ok()) << o.status.ToString();
      delays += o.delay_us;
    }
    const Histogram::Data latency = DemandLatency();
    EXPECT_EQ(hl_->Metrics().Value("service.demand_fetches"), 4u);
    EXPECT_EQ(latency.count, 4u);
    EXPECT_EQ(latency.sum, delays);
  }
}

}  // namespace
}  // namespace hl

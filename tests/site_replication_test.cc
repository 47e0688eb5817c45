// Cross-site replication tests: async segment shipping over a faulty WAN,
// a remote-repair fetch that never hands back corrupted bytes,
// anti-entropy rounds that resume across partitions without re-shipping
// synced segments, the durable replication ledger surviving crash+remount,
// site failover fanning a coalesced in-flight recall out to every waiter,
// and the scrubber's cross-site last-resort repair path.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "federation/site_replicator.h"
#include "federation/stager.h"
#include "highlight/highlight.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/wan_link.h"

namespace hl {
namespace {

// An in-memory SiteStore: segment images, CRC catalog, and named blobs.
class FakeSiteStore : public SiteStore {
 public:
  explicit FakeSiteStore(uint64_t seg_bytes) : seg_bytes_(seg_bytes) {}

  void AddSegment(uint32_t tseg, uint64_t seed) {
    Rng rng(seed);
    std::vector<uint8_t> image(seg_bytes_);
    for (auto& b : image) {
      b = static_cast<uint8_t>(rng.Next());
    }
    crcs_[tseg] = Crc32(image);
    images_[tseg] = std::move(image);
  }
  void DropCrc(uint32_t tseg) { crcs_.erase(tseg); }

  uint64_t SegmentImageBytes() const override { return seg_bytes_; }
  std::vector<uint32_t> ReplicableSegments() const override {
    std::vector<uint32_t> out;
    for (const auto& [tseg, image] : images_) {
      out.push_back(tseg);
    }
    return out;
  }
  Result<std::vector<uint8_t>> ReadSegmentImage(uint32_t tseg) override {
    auto it = images_.find(tseg);
    if (it == images_.end()) {
      return NotFound("fake site: no segment");
    }
    return it->second;
  }
  Status InstallSegmentImage(uint32_t tseg,
                             std::span<const uint8_t> image) override {
    images_[tseg].assign(image.begin(), image.end());
    crcs_[tseg] = Crc32(image);
    installs++;
    return OkStatus();
  }
  bool SegmentCrc(uint32_t tseg, uint32_t* crc) const override {
    auto it = crcs_.find(tseg);
    if (it == crcs_.end()) {
      return false;
    }
    *crc = it->second;
    return true;
  }
  void StampSegmentCrc(uint32_t tseg, uint32_t crc) override {
    crcs_[tseg] = crc;
  }
  Status PersistBlob(const std::string& name,
                     std::span<const uint8_t> data) override {
    blobs_[name].assign(data.begin(), data.end());
    return OkStatus();
  }
  Result<std::vector<uint8_t>> LoadBlob(const std::string& name) override {
    auto it = blobs_.find(name);
    if (it == blobs_.end()) {
      return NotFound("fake site: no blob");
    }
    return it->second;
  }

  int installs = 0;

 private:
  uint64_t seg_bytes_;
  std::map<uint32_t, std::vector<uint8_t>> images_;
  std::map<uint32_t, uint32_t> crcs_;
  std::map<std::string, std::vector<uint8_t>> blobs_;
};

constexpr uint64_t kSegBytes = 4096;

TEST(SiteReplicatorTest, ShipsEnqueuedSegmentsToEveryPeer) {
  SimClock clock;
  FaultInjector faults(&clock);
  FakeSiteStore a(kSegBytes);
  FakeSiteStore b(kSegBytes);
  FakeSiteStore c(kSegBytes);
  a.AddSegment(0, 1);
  a.AddSegment(1, 2);

  SiteReplicator repl(&clock);
  int sa = repl.AddSite("a", &a);
  int sb = repl.AddSite("b", &b);
  int sc = repl.AddSite("c", &c);
  WanLink ab("a-b", &clock);
  WanLink ac("a-c", &clock);
  WanLink bc("b-c", &clock);
  ab.AttachFaults(faults.Channel("wan.a-b"));
  ac.AttachFaults(faults.Channel("wan.a-c"));
  bc.AttachFaults(faults.Channel("wan.b-c"));
  repl.SetLink(sa, sb, &ab);
  repl.SetLink(sa, sc, &ac);
  repl.SetLink(sb, sc, &bc);

  ASSERT_EQ(*repl.EnqueueNewSegments(sa), 2u);
  EXPECT_EQ(repl.QueueDepth(sa), 2u);
  clock.Advance(1000);
  EXPECT_EQ(repl.ReplicationLag(sa), 1000u);

  ASSERT_TRUE(repl.RunUntilIdle().ok());
  EXPECT_EQ(repl.QueueDepth(sa), 0u);
  EXPECT_EQ(repl.ReplicationLag(sa), 0u);
  EXPECT_EQ(b.installs, 2);
  EXPECT_EQ(c.installs, 2);
  // Delivered bytes: 2 segments x 2 peers.
  EXPECT_EQ(repl.stats().bytes_shipped, 4 * kSegBytes);
  EXPECT_EQ(repl.DivergentCountVs(sa, sb), 0u);
  EXPECT_EQ(repl.DivergentCountVs(sa, sc), 0u);
  // The ledger went durable along the way.
  EXPECT_GE(repl.Metrics().Value("site.ledger_persists"), 1u);

  // Re-running the post-migration hook re-ships nothing.
  ASSERT_EQ(*repl.EnqueueNewSegments(sa), 0u);
  ASSERT_TRUE(repl.RunUntilIdle().ok());
  EXPECT_EQ(b.installs, 2);
}

TEST(SiteReplicatorTest, BoundedQueueRejectsWithBusy) {
  SimClock clock;
  FakeSiteStore a(kSegBytes);
  FakeSiteStore b(kSegBytes);
  for (uint32_t t = 0; t < 4; ++t) {
    a.AddSegment(t, t + 1);
  }
  SiteReplicatorConfig config;
  config.max_queue = 2;
  SiteReplicator repl(&clock, config);
  int sa = repl.AddSite("a", &a);
  int sb = repl.AddSite("b", &b);
  WanLink link("a-b", &clock);
  repl.SetLink(sa, sb, &link);

  ASSERT_TRUE(repl.EnqueueSegment(sa, 0).ok());
  ASSERT_TRUE(repl.EnqueueSegment(sa, 1).ok());
  Status overflow = repl.EnqueueSegment(sa, 2);
  EXPECT_EQ(overflow.code(), ErrorCode::kBusy);
  EXPECT_EQ(repl.Metrics().Value("site.queue_overflow"), 1u);

  // Draining reopens admission.
  ASSERT_TRUE(repl.RunUntilIdle().ok());
  EXPECT_TRUE(repl.EnqueueSegment(sa, 2).ok());
}

TEST(SiteReplicatorTest, InFlightCorruptionIsCaughtAndResent) {
  SimClock clock;
  FaultInjector faults(&clock);
  FakeSiteStore a(kSegBytes);
  FakeSiteStore b(kSegBytes);
  a.AddSegment(7, 42);

  SiteReplicator repl(&clock);
  int sa = repl.AddSite("a", &a);
  int sb = repl.AddSite("b", &b);
  WanLink link("a-b", &clock);
  FaultChannel* channel = faults.Channel("wan.a-b");
  link.AttachFaults(channel);
  repl.SetLink(sa, sb, &link);

  // Every delivery corrupts: all retries burn, the segment stays queued,
  // and the destination never installs a bad image.
  FaultProfile lossy;
  lossy.read_corrupt_p = 1.0;
  channel->set_profile(lossy);
  ASSERT_TRUE(repl.EnqueueSegment(sa, 7).ok());
  ASSERT_TRUE(repl.RunUntilIdle().ok());
  EXPECT_EQ(b.installs, 0);
  EXPECT_EQ(repl.QueueDepth(sa), 1u);
  EXPECT_GE(repl.Metrics().Value("site.corrupt_transfers"), 3u);
  EXPECT_GE(repl.Metrics().Value("site.ship_deferred"), 1u);

  // Link heals: the queued segment goes through and verifies.
  channel->set_profile(FaultProfile{});
  ASSERT_TRUE(repl.RunUntilIdle().ok());
  EXPECT_EQ(b.installs, 1);
  uint32_t crc_a = 0;
  uint32_t crc_b = 0;
  ASSERT_TRUE(a.SegmentCrc(7, &crc_a));
  ASSERT_TRUE(b.SegmentCrc(7, &crc_b));
  EXPECT_EQ(crc_a, crc_b);
}

TEST(SiteReplicatorTest, FetchVerifiedImageRejectsCorruptDeliveries) {
  SimClock clock;
  FaultInjector faults(&clock);
  FakeSiteStore a(kSegBytes);
  FakeSiteStore b(kSegBytes);
  b.AddSegment(7, 42);

  SiteReplicator repl(&clock);
  int sa = repl.AddSite("a", &a);
  int sb = repl.AddSite("b", &b);
  WanLink link("a-b", &clock);
  FaultChannel* channel = faults.Channel("wan.a-b");
  link.AttachFaults(channel);
  repl.SetLink(sa, sb, &link);

  // Every delivery corrupts: the retry budget burns on the one peer and
  // the fetch returns an error, never the corrupted bytes.
  FaultProfile lossy;
  lossy.read_corrupt_p = 1.0;
  channel->set_profile(lossy);
  Result<std::vector<uint8_t>> corrupt = repl.FetchVerifiedImage(sa, 7);
  EXPECT_EQ(corrupt.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(repl.Metrics().Value("site.corrupt_transfers"), 3u);
  EXPECT_EQ(repl.Metrics().Value("site.bytes_shipped"), 0u);

  // Link heals: the fetch returns the peer's verified image.
  channel->set_profile(FaultProfile{});
  Result<std::vector<uint8_t>> healed = repl.FetchVerifiedImage(sa, 7);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  Result<std::vector<uint8_t>> peer_image = b.ReadSegmentImage(7);
  ASSERT_TRUE(peer_image.ok());
  EXPECT_EQ(*healed, *peer_image);
  EXPECT_EQ(repl.Metrics().Value("site.corrupt_transfers"), 3u);
  EXPECT_EQ(repl.Metrics().Value("site.bytes_shipped"), kSegBytes);
  // A fetch hands the image to its caller; nothing is installed.
  EXPECT_EQ(a.installs, 0);
}

TEST(SiteReplicatorTest, PartitionMidAntiEntropyResumesWithoutReshipping) {
  SimClock clock;
  FaultInjector faults(&clock);
  FakeSiteStore a(kSegBytes);
  FakeSiteStore b(kSegBytes);
  for (uint32_t t = 0; t < 8; ++t) {
    a.AddSegment(t, 100 + t);
  }

  SiteReplicator repl(&clock);
  int sa = repl.AddSite("a", &a);
  int sb = repl.AddSite("b", &b);
  WanLink link("a-b", &clock);
  FaultChannel* channel = faults.Channel("wan.a-b");
  link.AttachFaults(channel);
  repl.SetLink(sa, sb, &link);

  // First increment ships half the catalog.
  Result<SiteReplicator::AntiEntropyStats> first =
      repl.AntiEntropyRound(sa, sb, /*max_segments=*/4);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->compared, 4u);
  EXPECT_EQ(first->divergent, 4u);
  EXPECT_EQ(first->shipped, 4u);
  EXPECT_EQ(b.installs, 4);

  // The WAN partitions mid-round: the next round fails its first ship and
  // parks the cursor right there.
  const SimTime heal_at = clock.Now() + 3600ull * kUsPerSec;
  channel->FailBetween(clock.Now(), heal_at);
  Result<SiteReplicator::AntiEntropyStats> cut = repl.AntiEntropyRound(sa, sb);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->shipped, 0u);
  EXPECT_EQ(cut->failed, 1u);
  EXPECT_EQ(b.installs, 4);

  // Healed: the resumed round compares ONLY the un-synced tail — the four
  // segments shipped before the partition are neither re-compared nor
  // re-shipped.
  if (clock.Now() < heal_at) {
    clock.Advance(heal_at - clock.Now());
  }
  Result<SiteReplicator::AntiEntropyStats> resumed =
      repl.AntiEntropyRound(sa, sb);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->compared, 4u);
  EXPECT_EQ(resumed->shipped, 4u);
  EXPECT_EQ(resumed->skipped_synced, 0u);
  EXPECT_EQ(b.installs, 8);
  // Exactly one copy of each segment ever crossed the wire.
  EXPECT_EQ(repl.stats().bytes_shipped, 8 * kSegBytes);

  // Converged: a full pass verifies everything and ships nothing.
  Result<SiteReplicator::AntiEntropyStats> final_round =
      repl.AntiEntropyRound(sa, sb);
  ASSERT_TRUE(final_round.ok());
  EXPECT_EQ(final_round->compared, 8u);
  EXPECT_EQ(final_round->skipped_synced, 8u);
  EXPECT_EQ(final_round->shipped, 0u);
  EXPECT_EQ(repl.DivergentCountVs(sa, sb), 0u);
}

// --- Against real HighLight deployments -----------------------------------

// A complete HighLight deployment with `nfiles` one-segment files migrated
// to tertiary. Identical inputs build identical tertiary layouts — the same
// deterministic-construction contract the replica tests rely on — so two
// such deployments model a primary site and its fully replicated peer.
std::unique_ptr<HighLightFs> BuildSite(SimClock* clock, uint32_t nfiles) {
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = 4;
  j.volume_capacity_bytes = 20ull * 64 * kBlockSize;
  Result<HighLightConfig> config = HighLightConfig::Builder()
                                       .AddDisk(Rz57Profile(), 16 * 1024)
                                       .AddJukebox(j, false, 20)
                                       .SegSizeBlocks(64)
                                       .CacheMaxSegments(8)
                                       .AsyncReadPipeline(true)
                                       .TimeseriesCadence(0)
                                       .Build();
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  auto hl = HighLightFs::Create(*config, clock);
  EXPECT_TRUE(hl.ok()) << hl.status().ToString();

  Rng rng(0x517E);
  MigratorOptions data_only;
  data_only.migrate_inode = false;
  data_only.migrate_metadata = false;
  std::vector<uint32_t> inos;
  for (uint32_t i = 0; i < nfiles; ++i) {
    Result<uint32_t> ino = (*hl)->fs().Create("/f" + std::to_string(i));
    EXPECT_TRUE(ino.ok());
    std::vector<uint8_t> payload(200 * 1024);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.Next());
    }
    EXPECT_TRUE((*hl)->fs().Write(*ino, 0, payload).ok());
    inos.push_back(*ino);
  }
  EXPECT_TRUE((*hl)->fs().Sync().ok());
  EXPECT_TRUE((*hl)->Internals().migrator.MigrateFiles(inos, data_only).ok());
  EXPECT_TRUE((*hl)->DropCleanCacheLines().ok());
  return std::move(*hl);
}

TEST(SiteReplicationTest, ReplicationLedgerSurvivesRemount) {
  SimClock clock;
  FaultInjector faults(&clock);
  auto site_a = BuildSite(&clock, 6);
  auto site_b = BuildSite(&clock, 6);
  ASSERT_NE(site_a, nullptr);
  ASSERT_NE(site_b, nullptr);

  WanLink link("a-b", &clock);
  link.AttachFaults(faults.Channel("wan.a-b"));
  uint32_t enqueued = 0;
  size_t entries = 0;
  {
    SiteReplicator repl(&clock);
    int sa = repl.AddSite("a", site_a.get());
    int sb = repl.AddSite("b", site_b.get());
    repl.SetLink(sa, sb, &link);

    Result<uint32_t> n = repl.EnqueueNewSegments(sa);
    ASSERT_TRUE(n.ok());
    enqueued = *n;
    ASSERT_GT(enqueued, 0u);
    ASSERT_TRUE(repl.RunUntilIdle().ok());
    EXPECT_EQ(repl.QueueDepth(sa), 0u);
    entries = repl.LedgerEntries(sa);
    EXPECT_EQ(entries, enqueued);
  }

  // Crash + remount of the source site: in-core state (including the CRC
  // catalog) is gone; the ledger blob comes back from the site's own LFS.
  ASSERT_TRUE(site_a->Remount().ok());

  SiteReplicator fresh(&clock);
  int sa = fresh.AddSite("a", site_a.get());
  int sb = fresh.AddSite("b", site_b.get());
  fresh.SetLink(sa, sb, &link);
  EXPECT_EQ(fresh.LedgerEntries(sa), 0u);
  ASSERT_TRUE(fresh.LoadLedger(sa).ok());
  EXPECT_EQ(fresh.LedgerEntries(sa), entries);
  // Everything had shipped before the crash, so nothing re-queues...
  EXPECT_EQ(fresh.QueueDepth(sa), 0u);
  // ...and the post-migration sweep re-ships nothing either.
  Result<uint32_t> again = fresh.EnqueueNewSegments(sa);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
  EXPECT_EQ(fresh.Metrics().Value("site.ledger_loads"), 1u);
}

TEST(SiteReplicationTest, FailoverFansOutCoalescedRecallToAllWaiters) {
  SimClock clock;
  FaultInjector faults(&clock);
  auto site_a = BuildSite(&clock, 6);
  auto site_b = BuildSite(&clock, 6);
  ASSERT_NE(site_a, nullptr);
  ASSERT_NE(site_b, nullptr);
  ASSERT_EQ(site_a->FetchableSegments(), site_b->FetchableSegments());

  WanLink link("a-b", &clock);
  link.AttachFaults(faults.Channel("wan.a-b"));
  SiteReplicator repl(&clock);
  int ra = repl.AddSite("a", site_a.get());
  int rb = repl.AddSite("b", site_b.get());
  repl.SetLink(ra, rb, &link);

  StagerScheduler stager(&clock);
  int p = stager.AddShard(site_a.get());
  int q = stager.AddShard(site_b.get());
  stager.SetShardSite(p, ra);
  stager.SetShardSite(q, rb);
  stager.SetFailoverPeer(p, q);
  stager.SetFailoverPeer(q, p);
  stager.SetSiteHealthProvider(&repl);

  std::vector<uint32_t> pool = site_a->FetchableSegments();
  ASSERT_FALSE(pool.empty());

  // Two tenants fault the same segment — one coalesced in-flight recall —
  // and the home site dies before the batch dispatches.
  ASSERT_TRUE(stager.SubmitFetch("alice", p, pool[0]).ok());
  ASSERT_TRUE(stager.SubmitFetch("bob", p, pool[0]).ok());
  repl.SetSiteQuarantined(ra, true);
  ASSERT_TRUE(stager.RunUntilIdle().ok());

  // The peer site served one coalesced fetch; BOTH waiters completed.
  EXPECT_EQ(site_a->Metrics().Value("service.demand_fetches"), 0u);
  EXPECT_EQ(site_b->Metrics().Value("service.demand_fetches"), 1u);
  EXPECT_EQ(stager.ServedFor("alice"), 1u);
  EXPECT_EQ(stager.ServedFor("bob"), 1u);
  EXPECT_EQ(stager.Metrics().Value("stager.coalesced"), 1u);
  EXPECT_GE(stager.Metrics().Value("stager.failover_fetches"), 1u);

  // Site back up: recalls return home.
  repl.SetSiteQuarantined(ra, false);
  ASSERT_TRUE(stager.SubmitFetch("alice", p, pool[1]).ok());
  ASSERT_TRUE(stager.RunUntilIdle().ok());
  EXPECT_EQ(site_a->Metrics().Value("service.demand_fetches"), 1u);
}

TEST(SiteReplicationTest, ScrubberRepairsFromPeerSiteAsLastResort) {
  SimClock clock;
  FaultInjector faults(&clock);
  auto site_a = BuildSite(&clock, 4);
  auto site_b = BuildSite(&clock, 4);
  ASSERT_NE(site_a, nullptr);
  ASSERT_NE(site_b, nullptr);

  WanLink link("a-b", &clock);
  link.AttachFaults(faults.Channel("wan.a-b"));
  SiteReplicator repl(&clock);
  int ra = repl.AddSite("a", site_a.get());
  int rb = repl.AddSite("b", site_b.get());
  repl.SetLink(ra, rb, &link);

  // Identical construction gives an identical *layout*, but segment images
  // embed write-time metadata, so peer bytes only match after replication
  // has actually shipped them. Converge B to A's content first.
  Result<uint32_t> synced = repl.EnqueueNewSegments(ra);
  ASSERT_TRUE(synced.ok());
  ASSERT_GT(*synced, 0u);
  ASSERT_TRUE(repl.RunUntilIdle().ok());
  ASSERT_EQ(repl.DivergentCountVs(ra, rb), 0u);

  // Corrupt one primary on site A's media. There are no local replicas, so
  // without the peer this would be an unrecoverable loss.
  std::vector<uint32_t> pool = site_a->FetchableSegments();
  ASSERT_FALSE(pool.empty());
  const uint32_t victim = pool[0];
  auto internals = site_a->Internals();
  const uint32_t volume = internals.address_map.VolumeOfTseg(victim);
  Result<Volume*> vol = internals.footprint.GetVolume(static_cast<int>(volume));
  ASSERT_TRUE(vol.ok());
  std::vector<uint8_t> junk(kBlockSize, 0xA5);
  ASSERT_TRUE(
      (*vol)
          ->Write(internals.address_map.ByteOffsetOnVolume(victim), junk)
          .ok());

  internals.scrubber.SetRemoteRepairSource(
      [&](uint32_t tseg) { return repl.FetchVerifiedImage(ra, tseg); });
  Result<Scrubber::Report> report = internals.scrubber.ScrubAll();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->repaired, 1u);
  EXPECT_EQ(report->unrecoverable, 0u);
  EXPECT_TRUE(internals.scrubber.LostSegments().empty());
  EXPECT_EQ(internals.scrubber.stats().remote_repairs, 1u);
  EXPECT_GT(link.bytes_shipped(), 0u);
}

}  // namespace
}  // namespace hl

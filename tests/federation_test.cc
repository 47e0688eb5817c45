// Federation stager tests: class priority (demand > migration > scrub),
// per-tenant fair share under a hot tenant, drive-token contention across
// the shared farm, duplicate-recall coalescing, admission-bound rejection,
// unknown-shard admission, a failed shard batch inside a demand round,
// site failover onto a peer shard (against real HighLight shards) and its
// counting, and population-generator determinism.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "federation/stager.h"
#include "highlight/highlight.h"
#include "util/rng.h"
#include "util/span.h"
#include "workload/population.h"

namespace hl {
namespace {

// A deterministic scripted shard: every fetch costs a fixed slice of sim
// time; batches, migrations, and scrub steps are recorded for inspection.
// A non-OK `batch_error` makes FetchBatch fail whole (after recording it).
class FakeShard : public FetchBackend {
 public:
  FakeShard(SimClock* clock, uint32_t nsegs, SimTime fetch_cost_us)
      : clock_(clock), nsegs_(nsegs), fetch_cost_us_(fetch_cost_us) {}

  bool SegmentCached(uint32_t tseg) const override {
    return cached_.count(tseg) != 0;
  }
  uint32_t TertiarySegments() const override { return nsegs_; }
  std::vector<uint32_t> FetchableSegments() const override {
    std::vector<uint32_t> segs;
    for (uint32_t t = 0; t < nsegs_; ++t) {
      segs.push_back(t);
    }
    return segs;
  }
  Result<FetchOutcome> FetchSegment(uint32_t tseg) override {
    clock_->Advance(fetch_cost_us_);
    fetched.push_back(tseg);
    return FetchOutcome{tseg, OkStatus(), fetch_cost_us_};
  }
  Result<std::vector<FetchOutcome>> FetchBatch(
      const std::vector<uint32_t>& tsegs) override {
    batches.push_back(tsegs);
    if (!batch_error.ok()) {
      return batch_error;
    }
    std::vector<FetchOutcome> outcomes;
    for (uint32_t tseg : tsegs) {
      clock_->Advance(fetch_cost_us_);
      fetched.push_back(tseg);
      outcomes.push_back(FetchOutcome{tseg, OkStatus(), fetch_cost_us_});
    }
    return outcomes;
  }
  Result<MigrationReport> Migrate(const MigrationRequest&) override {
    migrations++;
    return MigrationReport{};
  }
  Result<uint32_t> ScrubStep(uint32_t max_segments) override {
    scrubs++;
    return max_segments;
  }
  uint64_t MediaSwaps() const override { return 0; }

  void MarkCached(uint32_t tseg) { cached_.insert(tseg); }

  std::vector<std::vector<uint32_t>> batches;
  std::vector<uint32_t> fetched;
  Status batch_error = OkStatus();
  int migrations = 0;
  int scrubs = 0;

 private:
  SimClock* clock_;
  uint32_t nsegs_;
  SimTime fetch_cost_us_;
  std::set<uint32_t> cached_;
};

// A scripted SiteHealthProvider: every site is available until marked down.
class ScriptedSiteHealth : public StagerScheduler::SiteHealthProvider {
 public:
  bool SiteAvailable(int site) const override {
    return down_.count(site) == 0;
  }
  void SetDown(int site, bool down) {
    if (down) {
      down_.insert(site);
    } else {
      down_.erase(site);
    }
  }

 private:
  std::set<int> down_;
};

TEST(StagerSchedulerTest, ClassPriorityDemandBeatsMigrationBeatsScrub) {
  SimClock clock;
  FakeShard shard(&clock, 8, 1000);
  StagerScheduler stager(&clock);
  stager.AddShard(&shard);

  ASSERT_TRUE(stager.SubmitScrub(0, 4).ok());
  ASSERT_TRUE(stager
                  .SubmitMigration("ops", 0, MigrationRequest{.path = "/"})
                  .ok());
  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 3).ok());

  // Round 1: the demand recall goes out alone; maintenance waits.
  ASSERT_TRUE(stager.Pump().ok());
  EXPECT_EQ(shard.fetched, std::vector<uint32_t>{3});
  EXPECT_EQ(shard.migrations, 0);
  EXPECT_EQ(shard.scrubs, 0);

  // Round 2: no demand left, the migration pass runs. Round 3: scrub.
  ASSERT_TRUE(stager.Pump().ok());
  EXPECT_EQ(shard.migrations, 1);
  EXPECT_EQ(shard.scrubs, 0);
  ASSERT_TRUE(stager.Pump().ok());
  EXPECT_EQ(shard.scrubs, 1);
  EXPECT_EQ(stager.PendingRequests(), 0u);

  MetricsSnapshot snap = stager.Metrics();
  EXPECT_EQ(snap.Value("stager.demand_served"), 1u);
  EXPECT_EQ(snap.Value("stager.migration_runs"), 1u);
  EXPECT_EQ(snap.Value("stager.scrub_steps"), 1u);
}

TEST(StagerSchedulerTest, FairShareCapsHotTenantPerRound) {
  SimClock clock;
  FakeShard shard(&clock, 64, 1000);
  StagerConfig config;
  config.fair_share_quantum = 8;
  config.max_batch = 64;  // Fairness, not batch size, is under test.
  StagerScheduler stager(&clock, config);
  stager.AddShard(&shard);

  // One hot tenant floods 40 recalls; three cold tenants want 4 each.
  for (uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(stager.SubmitFetch("hot", 0, i).ok());
  }
  for (int t = 0; t < 3; ++t) {
    for (uint32_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(stager
                      .SubmitFetch("cold" + std::to_string(t), 0,
                                   40 + t * 4 + i)
                      .ok());
    }
  }

  // One round: the hot tenant is capped at its quantum while every cold
  // tenant's full demand fits within its own share.
  ASSERT_TRUE(stager.Pump().ok());
  EXPECT_EQ(stager.ServedFor("hot"), 8u);
  EXPECT_EQ(stager.ServedFor("cold0"), 4u);
  EXPECT_EQ(stager.ServedFor("cold1"), 4u);
  EXPECT_EQ(stager.ServedFor("cold2"), 4u);
  EXPECT_EQ(stager.PendingRequests(), 32u);

  // Drained, everyone is whole.
  ASSERT_TRUE(stager.RunUntilIdle().ok());
  EXPECT_EQ(stager.ServedFor("hot"), 40u);
  EXPECT_EQ(stager.ServedFor("cold2"), 4u);
}

TEST(StagerSchedulerTest, DriveTokensSerializeShardsAcrossRounds) {
  SimClock clock;
  FakeShard shard0(&clock, 8, 1000);
  FakeShard shard1(&clock, 8, 1000);
  StagerConfig config;
  config.drive_tokens = 1;  // One drive for the whole farm.
  StagerScheduler stager(&clock, config);
  stager.AddShard(&shard0);
  stager.AddShard(&shard1);

  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 1).ok());
  ASSERT_TRUE(stager.SubmitFetch("bob", 1, 2).ok());

  // Round 1: only the first tenant's shard holds the drive.
  ASSERT_TRUE(stager.Pump().ok());
  EXPECT_EQ(shard0.fetched.size(), 1u);
  EXPECT_EQ(shard1.fetched.size(), 0u);
  EXPECT_GE(stager.Metrics().Value("stager.drive_waits"), 1u);

  // Round 2: the rotation hands the drive to the deferred shard.
  ASSERT_TRUE(stager.Pump().ok());
  EXPECT_EQ(shard1.fetched.size(), 1u);
  EXPECT_EQ(stager.PendingRequests(), 0u);
}

TEST(StagerSchedulerTest, CoalescesDuplicateRecallsWithinBatch) {
  SimClock clock;
  FakeShard shard(&clock, 8, 1000);
  StagerScheduler stager(&clock);
  stager.AddShard(&shard);

  // Two tenants fault the same segment in the same round.
  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 5).ok());
  ASSERT_TRUE(stager.SubmitFetch("bob", 0, 5).ok());
  ASSERT_TRUE(stager.Pump().ok());

  // The shard saw one fetch; both tenants were served.
  ASSERT_EQ(shard.batches.size(), 1u);
  EXPECT_EQ(shard.batches[0], std::vector<uint32_t>{5});
  EXPECT_EQ(stager.ServedFor("alice"), 1u);
  EXPECT_EQ(stager.ServedFor("bob"), 1u);
  EXPECT_EQ(stager.Metrics().Value("stager.coalesced"), 1u);
}

TEST(StagerSchedulerTest, AdmissionBoundRejectsWithBusy) {
  SimClock clock;
  FakeShard shard(&clock, 8, 1000);
  StagerConfig config;
  config.max_queue = 3;
  StagerScheduler stager(&clock, config);
  stager.AddShard(&shard);

  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 0).ok());
  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 1).ok());
  ASSERT_TRUE(stager.SubmitScrub(0, 2).ok());
  Status overflow = stager.SubmitFetch("alice", 0, 2);
  EXPECT_EQ(overflow.code(), ErrorCode::kBusy);
  EXPECT_EQ(stager.Metrics().Value("stager.rejected"), 1u);

  // Service drains the queue and admission reopens.
  ASSERT_TRUE(stager.RunUntilIdle().ok());
  EXPECT_TRUE(stager.SubmitFetch("alice", 0, 2).ok());
}

TEST(StagerSchedulerTest, UnknownShardIsRejectedByEveryClass) {
  SimClock clock;
  FakeShard shard(&clock, 8, 1000);
  StagerScheduler stager(&clock);
  stager.AddShard(&shard);

  const int past_end = static_cast<int>(stager.NumShards());
  for (int bad : {-1, past_end}) {
    EXPECT_EQ(stager.SubmitFetch("alice", bad, 0).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(stager.SubmitMigration("ops", bad, MigrationRequest{}).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(stager.SubmitScrub(bad, 4).code(),
              ErrorCode::kInvalidArgument);
  }
  // Nothing was queued, and a bad shard is not an admission-bound refusal.
  EXPECT_EQ(stager.PendingRequests(), 0u);
  EXPECT_TRUE(stager.Tenants().empty());
  MetricsSnapshot snap = stager.Metrics();
  EXPECT_EQ(snap.Value("stager.rejected"), 0u);
  EXPECT_EQ(snap.Value("stager.demand_admitted"), 0u);
  EXPECT_EQ(snap.Value("stager.migration_admitted"), 0u);
  EXPECT_EQ(snap.Value("stager.scrub_admitted"), 0u);
}

// Every admitted recall is served, failed, or still queued. Only valid
// while no maintenance is queued (PendingRequests counts it too).
void ExpectDemandConserved(StagerScheduler& stager) {
  MetricsSnapshot snap = stager.Metrics();
  EXPECT_EQ(snap.Value("stager.demand_admitted"),
            snap.Value("stager.demand_served") +
                snap.Value("stager.fetch_errors") + stager.PendingRequests());
}

TEST(StagerSchedulerTest, FailedBatchFinishesTheDemandRound) {
  SimClock clock;
  FakeShard shard0(&clock, 8, 1000);
  FakeShard shard1(&clock, 8, 1000);
  shard0.batch_error = Status(ErrorCode::kIoError, "drive jammed");
  SpanTracer spans(&clock, 256);
  StagerScheduler stager(&clock);
  stager.AddShard(&shard0);
  stager.AddShard(&shard1);
  stager.SetSpans(&spans);

  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 1).ok());
  ASSERT_TRUE(stager.SubmitFetch("bob", 1, 2).ok());
  EXPECT_EQ(stager.Pump().code(), ErrorCode::kIoError);
  ExpectDemandConserved(stager);

  // Shard 0's failure did not cost shard 1 its dispatch, and the failed
  // request is accounted for rather than dropped.
  EXPECT_EQ(shard0.batches.size(), 1u);
  EXPECT_EQ(shard1.fetched, std::vector<uint32_t>{2});
  EXPECT_EQ(stager.PendingRequests(), 0u);
  MetricsSnapshot snap = stager.Metrics();
  EXPECT_EQ(snap.Value("stager.demand_served"), 1u);
  EXPECT_EQ(snap.Value("stager.fetch_errors"), 1u);
  EXPECT_EQ(snap.Value("stager.queue_depth"), 0u);
  EXPECT_EQ(stager.ServedFor("alice"), 0u);
  EXPECT_EQ(stager.ServedFor("bob"), 1u);

  // The failed request's fan-out leaf carries the batch error.
  int errored_fanouts = 0;
  for (const SpanRecord& span : spans.Completed()) {
    if (span.name != "stager_fanout") {
      continue;
    }
    for (const SpanArg& arg : span.args) {
      if (spans.ArgKey(arg) == "error") {
        errored_fanouts++;
        EXPECT_NE(spans.ArgValue(arg).find("drive jammed"),
                  std::string::npos);
      }
    }
  }
  EXPECT_EQ(errored_fanouts, 1);

  // The round finished, so the tenant rotation moved on: bob now leads.
  shard0.batch_error = OkStatus();
  ASSERT_TRUE(stager.SubmitFetch("alice", 1, 3).ok());
  ASSERT_TRUE(stager.SubmitFetch("bob", 1, 4).ok());
  ASSERT_TRUE(stager.Pump().ok());
  ExpectDemandConserved(stager);
  ASSERT_EQ(shard1.batches.size(), 2u);
  EXPECT_EQ(shard1.batches[1], (std::vector<uint32_t>{4, 3}));
  EXPECT_EQ(stager.PendingRequests(), 0u);
}

TEST(StagerSchedulerTest, AgingPromotesStarvedMaintenanceUnderDemandFlood) {
  SimClock clock;
  FakeShard shard(&clock, 64, 1000);
  StagerConfig config;
  config.aging_rounds = 2;  // Promote after two straight demand rounds.
  StagerScheduler stager(&clock, config);
  stager.AddShard(&shard);

  ASSERT_TRUE(stager
                  .SubmitMigration("ops", 0, MigrationRequest{.path = "/"})
                  .ok());
  ASSERT_TRUE(stager.SubmitScrub(0, 4).ok());

  // A demand flood: every round has fresh recalls, so strict priority
  // would starve maintenance forever.
  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 0).ok());
  ASSERT_TRUE(stager.Pump().ok());  // Round 1: starvation builds.
  EXPECT_EQ(shard.migrations, 0);

  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 1).ok());
  ASSERT_TRUE(stager.Pump().ok());  // Round 2: the migration ages in.
  EXPECT_EQ(shard.migrations, 1);
  EXPECT_EQ(shard.scrubs, 0);

  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 2).ok());
  ASSERT_TRUE(stager.Pump().ok());  // Round 3: counter restarted.
  EXPECT_EQ(shard.scrubs, 0);
  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 3).ok());
  ASSERT_TRUE(stager.Pump().ok());  // Round 4: now the scrub ages in.
  EXPECT_EQ(shard.scrubs, 1);

  EXPECT_EQ(stager.ServedFor("alice"), 4u);  // Demand never waited.
  EXPECT_EQ(stager.Metrics().Value("stager.aging_promotions"), 2u);
}

TEST(StagerSchedulerTest, StrictPriorityByDefaultNeverPromotes) {
  SimClock clock;
  FakeShard shard(&clock, 64, 1000);
  StagerScheduler stager(&clock);  // aging_rounds = 0.
  stager.AddShard(&shard);

  ASSERT_TRUE(stager
                  .SubmitMigration("ops", 0, MigrationRequest{.path = "/"})
                  .ok());
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(stager.SubmitFetch("alice", 0, i).ok());
    ASSERT_TRUE(stager.Pump().ok());
    EXPECT_EQ(shard.migrations, 0);
  }
  EXPECT_EQ(stager.Metrics().Value("stager.aging_promotions"), 0u);
}

TEST(StagerSchedulerTest, CacheHitsCountedFromShardCacheState) {
  SimClock clock;
  FakeShard shard(&clock, 8, 1000);
  shard.MarkCached(2);
  StagerScheduler stager(&clock);
  stager.AddShard(&shard);

  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 2).ok());
  ASSERT_TRUE(stager.SubmitFetch("alice", 0, 3).ok());
  ASSERT_TRUE(stager.Pump().ok());
  EXPECT_EQ(stager.Metrics().Value("stager.cache_hits"), 1u);
}

// The stager keeps its demand backlog as a running count. Over a seeded
// mix of submits (admitted and refused) and rounds that take part of the
// queue under fair share and drive tokens, some of them failing whole, the
// count must equal the sum of the tenants' queues after every step, and so
// must the stager.queue_depth gauge.
TEST(StagerSchedulerTest, DemandBacklogCountMatchesTheTenantQueues) {
  SimClock clock;
  FakeShard shard0(&clock, 64, 100);
  FakeShard shard1(&clock, 64, 100);
  StagerScheduler stager(&clock, StagerConfig{.max_queue = 40,
                                              .max_batch = 3,
                                              .fair_share_quantum = 2,
                                              .drive_tokens = 1});
  stager.AddShard(&shard0);
  stager.AddShard(&shard1);
  const std::vector<std::string> tenants = {"alice", "bob", "carol"};
  Rng rng(7);
  uint64_t refused = 0;
  for (int step = 0; step < 2000; ++step) {
    shard1.batch_error =
        rng.Below(4) == 0 ? IoError("drive jammed") : OkStatus();
    // A flood that reaches the admission bound, then a drain.
    const bool submit = step < 1000 ? rng.Below(5) != 0 : rng.Below(3) == 0;
    if (submit) {
      const Status s = stager.SubmitFetch(
          tenants[rng.Below(tenants.size())],
          static_cast<int>(rng.Below(2)),
          static_cast<uint32_t>(rng.Below(64)));
      refused += s.code() == ErrorCode::kBusy ? 1 : 0;
    } else {
      (void)stager.Pump();  // A jammed batch still finishes the round.
    }
    size_t queued = 0;
    for (const std::string& t : stager.Tenants()) {
      queued += stager.QueuedFor(t);
    }
    ASSERT_EQ(stager.PendingRequests(), queued) << "step " << step;
    ASSERT_EQ(stager.Metrics().Value("stager.queue_depth"), queued);
  }
  EXPECT_GT(refused, 0u);  // The admission bound was reached.
  shard1.batch_error = OkStatus();
  ASSERT_TRUE(stager.RunUntilIdle().ok());
  EXPECT_EQ(stager.PendingRequests(), 0u);
}

TEST(FederationTest, FailoverCountsEachRecallOnce) {
  SimClock clock;
  FakeShard home(&clock, 8, 1000);
  FakeShard peer(&clock, 8, 1000);
  SpanTracer spans(&clock, 256);
  StagerConfig config;
  config.max_batch = 1;  // Two of the three recalls wait a round or two.
  StagerScheduler stager(&clock, config);
  stager.AddShard(&home);
  stager.AddShard(&peer);
  stager.SetShardSite(0, 0);
  stager.SetShardSite(1, 1);
  stager.SetFailoverPeer(0, 1);
  ScriptedSiteHealth health;
  health.SetDown(0, true);
  stager.SetSiteHealthProvider(&health);
  stager.SetSpans(&spans);

  for (uint32_t tseg = 0; tseg < 3; ++tseg) {
    ASSERT_TRUE(stager.SubmitFetch("alice", 0, tseg).ok());
  }
  ASSERT_TRUE(stager.RunUntilIdle().ok());

  // Three rounds, one recall each, all on the peer: each recall counts and
  // traces one failover, however many rounds it waited for a batch slot.
  EXPECT_EQ(peer.fetched, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_TRUE(home.fetched.empty());
  MetricsSnapshot snap = stager.Metrics();
  EXPECT_EQ(snap.Value("stager.demand_served"), 3u);
  EXPECT_EQ(snap.Value("stager.failover_fetches"), 3u);
  int failover_instants = 0;
  for (const SpanRecord& span : spans.Completed()) {
    if (span.name == "site_failover") {
      failover_instants++;
    }
  }
  EXPECT_EQ(failover_instants, 3);
}

TEST(FederationTest, DownShardWithoutAHealthyPeerStillServes) {
  SimClock clock;
  FakeShard lone(&clock, 8, 1000);  // Site 0, no failover peer.
  FakeShard home(&clock, 8, 1000);  // Site 1, peer on site 2.
  FakeShard peer(&clock, 8, 1000);
  StagerScheduler stager(&clock);
  const int l = stager.AddShard(&lone);
  const int h = stager.AddShard(&home);
  const int q = stager.AddShard(&peer);
  stager.SetShardSite(l, 0);
  stager.SetShardSite(h, 1);
  stager.SetShardSite(q, 2);
  stager.SetFailoverPeer(h, q);
  ScriptedSiteHealth health;
  stager.SetSiteHealthProvider(&health);
  for (int site : {0, 1, 2}) {
    health.SetDown(site, true);
  }

  // Refusing the only copy would strand the data, so both stay home.
  ASSERT_TRUE(stager.SubmitFetch("alice", l, 4).ok());
  ASSERT_TRUE(stager.SubmitFetch("alice", h, 5).ok());
  ASSERT_TRUE(stager.RunUntilIdle().ok());
  EXPECT_EQ(lone.fetched, std::vector<uint32_t>{4});
  EXPECT_EQ(home.fetched, std::vector<uint32_t>{5});
  EXPECT_TRUE(peer.fetched.empty());
  EXPECT_EQ(stager.ServedFor("alice"), 2u);
  EXPECT_EQ(stager.Metrics().Value("stager.failover_fetches"), 0u);
}

// --- Site failover against real HighLight shards ---------------------------

JukeboxProfile TinyJukebox() {
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = 4;
  j.volume_capacity_bytes = 20ull * 64 * kBlockSize;
  return j;
}

// A small shard with `nfiles` one-segment files migrated to tertiary.
// Identical inputs produce an identical tertiary layout, which is the
// failover-peer contract.
std::unique_ptr<HighLightFs> BuildRealShard(SimClock* clock,
                                            uint32_t nfiles) {
  Result<HighLightConfig> config = HighLightConfig::Builder()
                                       .AddDisk(Rz57Profile(), 16 * 1024)
                                       .AddJukebox(TinyJukebox(), false, 20)
                                       .SegSizeBlocks(64)
                                       .CacheMaxSegments(8)
                                       .AsyncReadPipeline(true)
                                       .TimeseriesCadence(0)
                                       .Build();
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  auto hl = HighLightFs::Create(*config, clock);
  EXPECT_TRUE(hl.ok()) << hl.status().ToString();

  Rng rng(0xFED);
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

TEST(FederationTest, DownShardFailsOverToItsPeer) {
  SimClock clock;
  auto primary = BuildRealShard(&clock, 6);
  auto peer = BuildRealShard(&clock, 6);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(peer, nullptr);
  // Peer contract: same construction, same tertiary layout.
  ASSERT_EQ(primary->FetchableSegments(), peer->FetchableSegments());

  StagerScheduler stager(&clock);
  int p = stager.AddShard(primary.get());
  int q = stager.AddShard(peer.get());
  stager.SetShardSite(p, 0);
  stager.SetShardSite(q, 1);
  stager.SetFailoverPeer(p, q);
  ScriptedSiteHealth health;
  stager.SetSiteHealthProvider(&health);

  std::vector<uint32_t> pool = primary->FetchableSegments();
  ASSERT_GE(pool.size(), 3u);

  // Primary's site up: the primary serves its own recalls.
  ASSERT_TRUE(stager.SubmitFetch("alice", p, pool[0]).ok());
  ASSERT_TRUE(stager.RunUntilIdle().ok());
  EXPECT_EQ(primary->Metrics().Value("service.demand_fetches"), 1u);
  EXPECT_EQ(peer->Metrics().Value("service.demand_fetches"), 0u);
  EXPECT_EQ(stager.Metrics().Value("stager.failover_fetches"), 0u);

  // Primary's site down: the recall fails over to the peer.
  health.SetDown(0, true);
  ASSERT_TRUE(stager.SubmitFetch("alice", p, pool[1]).ok());
  ASSERT_TRUE(stager.RunUntilIdle().ok());
  EXPECT_EQ(primary->Metrics().Value("service.demand_fetches"), 1u);
  EXPECT_EQ(peer->Metrics().Value("service.demand_fetches"), 1u);
  EXPECT_EQ(stager.Metrics().Value("stager.failover_fetches"), 1u);

  // Site back: recalls return to the primary.
  health.SetDown(0, false);
  ASSERT_TRUE(stager.SubmitFetch("alice", p, pool[2]).ok());
  ASSERT_TRUE(stager.RunUntilIdle().ok());
  EXPECT_EQ(primary->Metrics().Value("service.demand_fetches"), 2u);
  EXPECT_EQ(peer->Metrics().Value("service.demand_fetches"), 1u);
  EXPECT_EQ(stager.Metrics().Value("stager.failover_fetches"), 1u);
  EXPECT_EQ(stager.ServedFor("alice"), 3u);
}

// --- Population generator -------------------------------------------------

TEST(PopulationGeneratorTest, DeterministicAndWellFormed) {
  PopulationParams params;
  params.users = 100'000;
  params.tenants = 4;
  params.catalog_files = 1024;
  params.sessions = 200;
  params.seed = 77;

  PopulationGenerator a(params);
  PopulationGenerator b(params);
  SimTime last_open = 0;
  uint64_t opens = 0;
  uint64_t closes = 0;
  while (true) {
    auto ea = a.Next();
    auto eb = b.Next();
    ASSERT_EQ(ea.has_value(), eb.has_value());
    if (!ea.has_value()) {
      break;
    }
    // Same seed, same stream — field for field.
    EXPECT_EQ(ea->at, eb->at);
    EXPECT_EQ(ea->user, eb->user);
    EXPECT_EQ(ea->file, eb->file);
    EXPECT_EQ(ea->tenant, eb->tenant);
    EXPECT_LT(ea->user, params.users);
    EXPECT_LT(ea->file, params.catalog_files);
    EXPECT_LT(ea->tenant, params.tenants);
    EXPECT_EQ(ea->tenant, a.TenantOf(ea->user));
    if (ea->session_open) {
      // Session starts are nondecreasing across the stream.
      EXPECT_GE(ea->at, last_open);
      last_open = ea->at;
      opens++;
    }
    closes += ea->session_close ? 1 : 0;
  }
  EXPECT_EQ(opens, params.sessions);
  EXPECT_EQ(closes, params.sessions);
  EXPECT_EQ(a.sessions_emitted(), params.sessions);
  EXPECT_GE(a.requests_emitted(), params.sessions);
}

TEST(PopulationGeneratorTest, ZipfSkewsTowardLowRanks) {
  PopulationParams params;
  params.catalog_files = 10'000;
  params.sessions = 2'000;
  params.mean_session_requests = 1;
  params.sequential_fraction = 0.0;
  params.seed = 123;

  PopulationGenerator gen(params);
  uint64_t top_decile = 0;
  uint64_t total = 0;
  while (auto ev = gen.Next()) {
    total++;
    if (ev->file < params.catalog_files / 10) {
      top_decile++;
    }
  }
  // Uniform would put ~10% in the top decile; theta=0.99 concentrates the
  // popular head far beyond that.
  EXPECT_GT(top_decile * 100, total * 50);
}

TEST(PopulationGeneratorTest, DiurnalCurvePeaksInTheAfternoon) {
  PopulationParams params;
  PopulationGenerator gen(params);
  SimTime peak = 16ull * 3600 * kUsPerSec;    // 16:00.
  SimTime trough = 4ull * 3600 * kUsPerSec;   // 04:00.
  EXPECT_GT(gen.LoadAt(peak), 1.5);
  EXPECT_LT(gen.LoadAt(trough), 0.5);
  // Mean-1 shape: the two extremes bracket the flat level.
  EXPECT_NEAR(gen.LoadAt(peak) + gen.LoadAt(trough), 2.0, 1e-9);
}

}  // namespace
}  // namespace hl

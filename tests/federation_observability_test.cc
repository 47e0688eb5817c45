// Federation observability tests: causal trace propagation across the
// stager / shard / WAN / replicator boundaries, and the ObservabilityHub's
// SLO watcher. The contract under test is that one demand fetch — even one
// that coalesces waiters or fails over to a dead site's peer — renders as a
// single connected span tree, and that SLO breach/clear transitions land on
// the hub timeline as instants at bit-exact sim times.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "federation/site_replicator.h"
#include "federation/stager.h"
#include "highlight/highlight.h"
#include "util/crc32.h"
#include "util/observability_hub.h"
#include "util/rng.h"
#include "util/span.h"
#include "util/wan_link.h"

namespace hl {
namespace {

const SpanRecord* FindByName(const SpanTracer::CompletedView& spans,
                             const std::string& name) {
  for (const SpanRecord& s : spans) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

std::vector<const SpanRecord*> AllNamed(const SpanTracer::CompletedView& spans,
                                        const std::string& name) {
  std::vector<const SpanRecord*> out;
  for (const SpanRecord& s : spans) {
    if (s.name == name) {
      out.push_back(&s);
    }
  }
  return out;
}

bool HasArg(const SpanTracer& tracer, const SpanRecord& s,
            const std::string& key, const std::string& value) {
  for (const SpanArg& arg : s.args) {
    if (tracer.ArgKey(arg) == key && tracer.ArgValue(arg) == value) {
      return true;
    }
  }
  return false;
}

// Minimal in-memory SiteStore for replicator-only propagation tests.
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

 private:
  uint64_t seg_bytes_;
  std::map<uint32_t, std::vector<uint8_t>> images_;
  std::map<uint32_t, uint32_t> crcs_;
  std::map<std::string, std::vector<uint8_t>> blobs_;
};

constexpr uint64_t kSegBytes = 4096;

// A complete HighLight deployment tracing into `shared_spans` through a
// `track_prefix` view, with `nfiles` one-segment files migrated to tertiary
// (the same deterministic-construction contract the replication tests use).
std::unique_ptr<HighLightFs> BuildSite(SimClock* clock, uint32_t nfiles,
                                       SpanTracer* shared_spans,
                                       const std::string& track_prefix) {
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = 4;
  j.volume_capacity_bytes = 20ull * 64 * kBlockSize;
  Result<HighLightConfig> config =
      HighLightConfig::Builder()
          .AddDisk(Rz57Profile(), 16 * 1024)
          .AddJukebox(j, false, 20)
          .SegSizeBlocks(64)
          .CacheMaxSegments(8)
          .AsyncReadPipeline(true)
          .TimeseriesCadence(0)
          .SharedSpans(shared_spans, track_prefix)
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

// --- Stager boundary ------------------------------------------------------

TEST(StagerTracePropagationTest, CoalescedFanoutSharesOneDispatchParent) {
  SimClock clock;
  SpanTracer spans(&clock, 4096);
  auto site = BuildSite(&clock, 4, &spans, "site.");
  ASSERT_NE(site, nullptr);

  StagerScheduler stager(&clock);
  int shard = stager.AddShard(site.get());
  stager.SetSpans(&spans);

  std::vector<uint32_t> pool = site->FetchableSegments();
  ASSERT_FALSE(pool.empty());
  spans.Clear();

  // Two tenants fault the same segment: one coalesced in-flight recall.
  ASSERT_TRUE(stager.SubmitFetch("alice", shard, pool[0]).ok());
  ASSERT_TRUE(stager.SubmitFetch("bob", shard, pool[0]).ok());
  ASSERT_TRUE(stager.RunUntilIdle().ok());
  EXPECT_EQ(stager.Metrics().Value("stager.coalesced"), 1u);

  const auto& done = spans.Completed();
  // One dispatch served the coalesced batch; BOTH waiters got a fan-out
  // leaf under that same dispatch span.
  auto fanouts = AllNamed(done, "stager_fanout");
  ASSERT_EQ(fanouts.size(), 2u);
  EXPECT_EQ(fanouts[0]->parent, fanouts[1]->parent);
  const SpanRecord* dispatch = FindByName(done, "stager_dispatch");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(fanouts[0]->parent, dispatch->id);
  EXPECT_TRUE(HasArg(spans, *fanouts[0], "tenant", "alice") ||
              HasArg(spans, *fanouts[1], "tenant", "alice"));

  // The dispatch is causally rooted at the batch's first admission...
  const SpanRecord* admit = FindByName(done, "stager_admit");
  ASSERT_NE(admit, nullptr);
  EXPECT_EQ(dispatch->parent, admit->id);
  EXPECT_EQ(admit->parent, kNoSpan);

  // ...and the shard's own service spans nested under the dispatch through
  // the shared implicit-context stack — with the view's track prefix.
  const SpanRecord* batch = FindByName(done, "fetch_batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->parent, dispatch->id);
  EXPECT_EQ(batch->track, "site.service");

  EXPECT_TRUE(spans.quiescent());
}

// --- Replicator / WAN boundary --------------------------------------------

TEST(SiteReplicatorTracePropagationTest, FetchVerifiedImageLinksWanChild) {
  SimClock clock;
  SpanTracer spans(&clock, 256);
  FakeSiteStore a(kSegBytes);
  FakeSiteStore b(kSegBytes);
  a.AddSegment(7, 42);
  b.AddSegment(7, 42);  // Same seed: same bytes, same CRC.

  SiteReplicator repl(&clock);
  int sa = repl.AddSite("a", &a);
  int sb = repl.AddSite("b", &b);
  WanLink link("a-b", &clock);
  link.SetSpans(&spans);
  repl.SetLink(sa, sb, &link);
  repl.SetSpans(&spans);

  Result<std::vector<uint8_t>> image = repl.FetchVerifiedImage(sa, 7);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  (void)sb;

  const auto& done = spans.Completed();
  const SpanRecord* fetch = FindByName(done, "site_fetch_image");
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->parent, kNoSpan);
  EXPECT_TRUE(HasArg(spans, *fetch, "peer", "b"));
  // The remote-repair WAN hop is a child of the fetch, on the link's lane.
  const SpanRecord* xfer = FindByName(done, "wan_transfer");
  ASSERT_NE(xfer, nullptr);
  EXPECT_EQ(xfer->parent, fetch->id);
  EXPECT_EQ(xfer->track, "wan.a-b");

  EXPECT_TRUE(spans.quiescent());
}

TEST(SiteReplicatorTracePropagationTest, AntiEntropyRoundParentsItsShips) {
  SimClock clock;
  SpanTracer spans(&clock, 256);
  FakeSiteStore a(kSegBytes);
  FakeSiteStore b(kSegBytes);
  for (uint32_t t = 0; t < 3; ++t) {
    a.AddSegment(t, 100 + t);
  }

  SiteReplicator repl(&clock);
  int sa = repl.AddSite("a", &a);
  int sb = repl.AddSite("b", &b);
  WanLink link("a-b", &clock);
  link.SetSpans(&spans);
  repl.SetLink(sa, sb, &link);
  repl.SetSpans(&spans);

  Result<SiteReplicator::AntiEntropyStats> round =
      repl.AntiEntropyRound(sa, sb);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->shipped, 3u);

  const auto& done = spans.Completed();
  const SpanRecord* parent = FindByName(done, "antientropy_round");
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->parent, kNoSpan);
  EXPECT_TRUE(HasArg(spans, *parent, "shipped", "3"));

  // Every per-segment ship is a child of the round, and every ship carries
  // its own WAN transfer child (the catalog-compare transfers hang off the
  // round directly).
  auto ships = AllNamed(done, "site_ship");
  ASSERT_EQ(ships.size(), 3u);
  for (const SpanRecord* ship : ships) {
    EXPECT_EQ(ship->parent, parent->id);
    bool has_wan_child = false;
    for (const SpanRecord& s : done) {
      if (s.name == "wan_transfer" && s.parent == ship->id) {
        has_wan_child = true;
      }
    }
    EXPECT_TRUE(has_wan_child);
  }
  for (const SpanRecord& s : done) {
    if (s.name != "wan_transfer") {
      continue;
    }
    bool under_round = s.parent == parent->id;
    bool under_ship = false;
    for (const SpanRecord* ship : ships) {
      under_ship = under_ship || s.parent == ship->id;
    }
    EXPECT_TRUE(under_round || under_ship);
  }

  EXPECT_TRUE(spans.quiescent());
}

// --- Cross-site failover: one connected tree ------------------------------

TEST(FederationObservabilityTest, CrossSiteFailoverIsOneConnectedTree) {
  SimClock clock;
  ObservabilityHub hub(&clock);
  auto site_a = BuildSite(&clock, 6, &hub.spans(), "siteA.");
  auto site_b = BuildSite(&clock, 6, &hub.spans(), "siteB.");
  ASSERT_NE(site_a, nullptr);
  ASSERT_NE(site_b, nullptr);
  ASSERT_EQ(site_a->FetchableSegments(), site_b->FetchableSegments());

  WanLink link("a-b", &clock);
  link.SetSpans(&hub.spans());
  SiteReplicator repl(&clock);
  int ra = repl.AddSite("a", site_a.get());
  int rb = repl.AddSite("b", site_b.get());
  repl.SetLink(ra, rb, &link);
  repl.SetSpans(&hub.spans());

  StagerScheduler stager(&clock);
  int p = stager.AddShard(site_a.get());
  int q = stager.AddShard(site_b.get());
  stager.SetShardSite(p, ra);
  stager.SetShardSite(q, rb);
  stager.SetFailoverPeer(p, q);
  stager.SetFailoverPeer(q, p);
  stager.SetSiteHealthProvider(&repl);
  stager.SetSpans(&hub.spans());
  hub.Register("siteA", &site_a->metrics(), nullptr, nullptr);
  hub.Register("siteB", &site_b->metrics(), nullptr, nullptr);
  hub.InstallTickHook();

  std::vector<uint32_t> pool = site_a->FetchableSegments();
  ASSERT_FALSE(pool.empty());
  hub.spans().Clear();

  // One demand fetch against a dead home site: served by the peer.
  repl.SetSiteQuarantined(ra, true);
  ASSERT_TRUE(stager.SubmitFetch("alice", p, pool[0]).ok());
  ASSERT_TRUE(stager.RunUntilIdle().ok());
  EXPECT_EQ(site_b->Metrics().Value("service.demand_fetches"), 1u);
  EXPECT_GE(stager.Metrics().Value("stager.failover_fetches"), 1u);

  const auto& done = hub.spans().Completed();
  ASSERT_FALSE(done.empty());

  // Exactly one root — the stager admission — and every other span and
  // instant chains up to it: one causal tree from admission to peer install.
  std::map<SpanId, const SpanRecord*> by_id;
  for (const SpanRecord& s : done) {
    by_id[s.id] = &s;
  }
  size_t roots = 0;
  for (const SpanRecord& s : done) {
    if (s.parent == kNoSpan) {
      ++roots;
      EXPECT_EQ(s.name, "stager_admit");
    } else {
      EXPECT_TRUE(by_id.count(s.parent)) << s.name << " is orphaned";
    }
  }
  EXPECT_EQ(roots, 1u);

  // The routing decision is an instant inside the request's own tree.
  const SpanRecord* admit = FindByName(done, "stager_admit");
  const SpanRecord* routed = FindByName(done, "site_failover");
  ASSERT_NE(admit, nullptr);
  ASSERT_NE(routed, nullptr);
  EXPECT_TRUE(routed->instant());
  EXPECT_EQ(routed->parent, admit->id);
  EXPECT_EQ(routed->track, "stager");
  EXPECT_TRUE(HasArg(hub.spans(), *routed, "shard", std::to_string(p)));
  EXPECT_TRUE(HasArg(hub.spans(), *routed, "peer", std::to_string(q)));

  // The fan-out leaf is marked as a failover, and the peer site's service /
  // install spans sit inside the tree on their prefixed lanes.
  auto fanouts = AllNamed(done, "stager_fanout");
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_TRUE(HasArg(hub.spans(), *fanouts[0], "failover", "1"));
  const SpanRecord* batch = FindByName(done, "fetch_batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->track, "siteB.service");
  const SpanRecord* install = FindByName(done, "install");
  ASSERT_NE(install, nullptr);
  EXPECT_EQ(install->track, "siteB.io");

  // The operator view of the same story: RenderSpanForest shows the whole
  // failover as one indented tree.
  const std::string forest = RenderSpanForest(done);
  EXPECT_NE(forest.find("stager_admit"), std::string::npos);
  EXPECT_NE(forest.find("stager_dispatch"), std::string::npos);
  EXPECT_NE(forest.find("fetch_batch"), std::string::npos);
  EXPECT_NE(forest.find("siteB.service"), std::string::npos);
  EXPECT_NE(forest.find("install"), std::string::npos);

  // End-of-run leak check: the shared implicit-context stack unwound.
  EXPECT_TRUE(hub.spans().quiescent());
}

// --- SLO watcher -----------------------------------------------------------

TEST(ObservabilityHubTest, SloBreachAndClearFireAtExactSimTimes) {
  SimClock clock;
  ObservabilityHub hub(&clock);  // Default cadence: one sample per sim-second.
  int64_t depth = 0;
  hub.AddSeries("q", [&] { return depth; });
  const size_t idx = hub.AddSlo(
      SloRule{.name = "q", .series = "q", .threshold = 10});
  hub.InstallTickHook();

  // Crossing the 1 s cadence boundary samples q=20 > 10: the breach event
  // is stamped at the exact sim time of the crossing tick, not the boundary.
  depth = 20;
  clock.Advance(1'234'567);
  EXPECT_TRUE(hub.SloInBreach(idx));

  // Recovery below threshold at the next boundary clears it.
  depth = 4;
  clock.Advance(999'999);  // now = 2'234'566, crosses the 2 s boundary.
  EXPECT_FALSE(hub.SloInBreach(idx));

  // One jump over five boundaries takes ONE sample (the sampler contract),
  // so exactly one more breach fires, again at the tick's exact time.
  depth = 99;
  clock.Advance(5 * kUsPerSec);
  EXPECT_TRUE(hub.SloInBreach(idx));

  std::vector<const SpanRecord*> slo_events;
  for (const SpanRecord& s : hub.spans().Completed()) {
    if (s.instant() && s.track == "slo") {
      slo_events.push_back(&s);
    }
  }
  ASSERT_EQ(slo_events.size(), 3u);
  EXPECT_EQ(slo_events[0]->name, "slo_breach");
  EXPECT_EQ(slo_events[0]->begin_us, 1'234'567u);
  EXPECT_EQ(slo_events[0]->duration_us(), 0u);
  EXPECT_TRUE(
      HasArg(hub.spans(), *slo_events[0], "rule", std::to_string(idx)));
  EXPECT_TRUE(HasArg(hub.spans(), *slo_events[0], "value", "20"));
  EXPECT_EQ(slo_events[1]->name, "slo_clear");
  EXPECT_EQ(slo_events[1]->begin_us, 2'234'566u);
  EXPECT_TRUE(HasArg(hub.spans(), *slo_events[1], "value", "4"));
  EXPECT_EQ(slo_events[2]->name, "slo_breach");
  EXPECT_EQ(slo_events[2]->begin_us, 7'234'566u);
  EXPECT_TRUE(HasArg(hub.spans(), *slo_events[2], "value", "99"));

  // The merged timeline carries each transition as a Perfetto instant.
  const std::string timeline = hub.MergedTimelineJson();
  EXPECT_NE(timeline.find("{\"ph\": \"i\", \"s\": \"t\", \"name\": "
                          "\"slo_breach\", \"cat\": \"slo\", \"ts\": 1234567,"),
            std::string::npos);

  // Breach time accrues one cadence interval per in-breach sample: two
  // breach samples so far.
  MetricsSnapshot snap = hub.metrics().Snapshot();
  EXPECT_EQ(snap.Value("slo.q.breaches"), 2u);
  EXPECT_EQ(snap.Value("slo.q.breach_us"), 2u * kUsPerSec);
  EXPECT_EQ(snap.Value("slo.q.breach_seconds"), 2u);

  // And the merged snapshot namespaces deployment rows without touching the
  // hub's own slo.* rows.
  MetricsRegistry shard;
  Counter fetches;
  fetches.BindTo(shard, "service.demand_fetches");
  fetches++;
  hub.Register("shard0", &shard, nullptr, nullptr);
  MetricsSnapshot merged = hub.MergedSnapshot();
  EXPECT_EQ(merged.Value("slo.q.breaches"), 2u);
  EXPECT_EQ(merged.Value("shard0.service.demand_fetches"), 1u);
}

}  // namespace
}  // namespace hl

// Observability tests: causal span trees under injected faults, time-series
// sampler determinism, and percentile surfacing — the span/telemetry layer
// must describe the system faithfully without perturbing it.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "highlight/highlight.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/span.h"
#include "util/timeseries.h"

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

const SpanRecord* FindByName(const SpanTracer::CompletedView& spans,
                             const std::string& name) {
  for (const SpanRecord& s : spans) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

// --- SpanTracer unit behavior -------------------------------------------

TEST(SpanTracerTest, NestingAndImplicitContext) {
  SimClock clock;
  SpanTracer tracer(&clock, 16);
  SpanId outer = tracer.Begin("outer", "t");
  clock.Advance(5);
  SpanId inner = tracer.Begin("inner", "t");  // Child of the stack top.
  clock.Advance(7);
  tracer.End(inner);
  tracer.End(outer);

  ASSERT_EQ(tracer.Completed().size(), 2u);
  const SpanRecord* in = FindByName(tracer.Completed(), "inner");
  const SpanRecord* out = FindByName(tracer.Completed(), "outer");
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(in->parent, out->id);
  EXPECT_EQ(out->parent, kNoSpan);
  EXPECT_EQ(in->begin_us, 5u);
  EXPECT_EQ(in->end_us, 12u);
  EXPECT_EQ(out->duration_us(), 12u);
  EXPECT_EQ(tracer.open_count(), 0u);
}

TEST(SpanTracerTest, EndingParentUnwindsOpenDescendants) {
  SimClock clock;
  SpanTracer tracer(&clock, 16);
  SpanId outer = tracer.Begin("outer", "t");
  tracer.Begin("leaked", "t");  // An error path skips its End().
  clock.Advance(3);
  tracer.End(outer);

  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.current(), kNoSpan);
  const SpanRecord* leaked = FindByName(tracer.Completed(), "leaked");
  ASSERT_NE(leaked, nullptr);
  EXPECT_EQ(leaked->end_us, 3u);  // Closed with (and at the time of) outer.
}

TEST(SpanTracerTest, WindowIsBoundedButTotalIsLifetime) {
  SimClock clock;
  SpanTracer tracer(&clock, 4);
  for (int i = 0; i < 10; ++i) {
    tracer.End(tracer.Begin("s" + std::to_string(i), "t"));
  }
  EXPECT_EQ(tracer.Completed().size(), 4u);  // Oldest six dropped.
  EXPECT_EQ(tracer.total_spans(), 10u);
  EXPECT_EQ(tracer.Completed().front().name, "s6");
  EXPECT_EQ(tracer.Completed().back().name, "s9");
}

TEST(SpanTracerTest, AddCompleteIsAnnotatableAfterTheFact) {
  SimClock clock;
  SpanTracer tracer(&clock, 8);
  SpanId id = tracer.AddComplete("xfer", "dev", kNoSpan, 100, 250);
  tracer.Annotate(id, "bytes", "4096");
  ASSERT_EQ(tracer.Completed().size(), 1u);
  const SpanRecord& rec = tracer.Completed().front();
  EXPECT_EQ(rec.begin_us, 100u);
  EXPECT_EQ(rec.duration_us(), 150u);
  ASSERT_EQ(rec.args.size(), 1u);
  EXPECT_EQ(rec.args[0].first, "bytes");
  EXPECT_EQ(rec.args[0].second, "4096");
}

TEST(SpanTracerTest, NullTracerScopesAreFree) {
  SpanScope scope(nullptr, "nothing", "t");
  scope.Annotate("k", "v");  // Must not crash.
  EXPECT_EQ(scope.id(), kNoSpan);
  EXPECT_FALSE(static_cast<bool>(scope));
}

// --- Instants ---------------------------------------------------------------

TEST(SpanTracerTest, InstantIsAZeroDurationChildOfTheOpenSpan) {
  SimClock clock;
  SpanTracer tracer(&clock, 16);
  tracer.Instant("remount", "highlight");  // Nothing open: a root.
  SpanId outer = tracer.Begin("fetch", "io");
  clock.Advance(5);
  tracer.Instant("crc_mismatch", "io", "tseg", 7, "volume", 2);
  clock.Advance(3);
  tracer.End(outer);

  ASSERT_EQ(tracer.Completed().size(), 3u);
  EXPECT_EQ(tracer.total_spans(), 3u);
  const SpanRecord* remount = FindByName(tracer.Completed(), "remount");
  const SpanRecord* crc = FindByName(tracer.Completed(), "crc_mismatch");
  ASSERT_NE(remount, nullptr);
  ASSERT_NE(crc, nullptr);
  EXPECT_TRUE(remount->instant());
  EXPECT_EQ(remount->parent, kNoSpan);
  EXPECT_TRUE(remount->args.empty());
  EXPECT_TRUE(crc->instant());
  EXPECT_EQ(crc->parent, outer);
  EXPECT_EQ(crc->begin_us, 5u);
  EXPECT_EQ(crc->end_us, 5u);
  EXPECT_EQ(crc->duration_us(), 0u);
  EXPECT_EQ(crc->track, "io");
  ASSERT_EQ(crc->args.size(), 2u);
  EXPECT_EQ(crc->args[0].first, "tseg");
  EXPECT_EQ(crc->args[0].second, "7");
  EXPECT_EQ(crc->args[1].first, "volume");
  EXPECT_EQ(crc->args[1].second, "2");
  EXPECT_FALSE(FindByName(tracer.Completed(), "fetch")->instant());
  EXPECT_TRUE(tracer.quiescent());  // An instant never joins the stack.

  // No span id to annotate: kNoSpan never reaches an instant.
  tracer.Annotate(kNoSpan, "k", "v");
  EXPECT_EQ(crc->args.size(), 2u);

  // An explicit parent overrides the implicit stack.
  tracer.InstantChildOf(outer, "site_failover", "stager", "shard", 1);
  EXPECT_EQ(tracer.Completed().back().parent, outer);
}

TEST(SpanTracerTest, NullTracerInstantIsNoOp) {
  RecordInstant(nullptr, "fault_injected", "faults", "channel", 1, "outcome",
                2);  // Must not crash.
  SimClock clock;
  SpanTracer tracer(&clock, 4);
  RecordInstant(&tracer, "fault_injected", "faults", "channel", 1);
  ASSERT_EQ(tracer.Completed().size(), 1u);
  EXPECT_EQ(tracer.Completed().front().args.size(), 1u);
}

TEST(SpanTracerTest, InstantsAreEvictedLikeSpans) {
  SimClock clock;
  SpanTracer tracer(&clock, 4);
  for (int i = 0; i < 5; ++i) {
    tracer.End(tracer.Begin("s" + std::to_string(i), "t"));
    tracer.Instant("i" + std::to_string(i), "t");
  }
  EXPECT_EQ(tracer.total_spans(), 10u);
  ASSERT_EQ(tracer.Completed().size(), 4u);  // Oldest six dropped.
  EXPECT_EQ(tracer.Completed().front().name, "s3");
  EXPECT_EQ(tracer.Completed().back().name, "i4");
  EXPECT_TRUE(tracer.Completed().back().instant());
}

TEST(SpanTracerTest, InstantExportsAsPerfettoInstantOnItsTrack) {
  SimClock clock;
  SpanTracer core(&clock, 16);
  SpanTracer site(&core, "siteA.");  // Views prefix instant tracks too.
  SpanId fetch = site.Begin("fetch", "io");
  clock.Advance(40);
  site.Instant("crc_mismatch", "io", "tseg", 9, "volume", 1);
  site.Instant("fault_injected", "faults", "channel", 3, "outcome", 1);
  site.End(fetch);

  std::string events;
  AppendPerfettoSpanEvents(core, 2, "federation", &events);
  // Lanes in first-appearance order: siteA.io (the instant's completion
  // precedes its parent's), then siteA.faults.
  EXPECT_NE(events.find("{\"ph\": \"i\", \"s\": \"t\", \"name\": "
                        "\"crc_mismatch\", \"cat\": \"siteA.io\", \"ts\": 40, "
                        "\"pid\": 2, \"tid\": 1, \"args\": {\"parent\": " +
                        std::to_string(fetch) +
                        ", \"tseg\": \"9\", \"volume\": \"1\"}}"),
            std::string::npos)
      << events;
  EXPECT_NE(events.find("\"name\": \"fault_injected\", \"cat\": "
                        "\"siteA.faults\", \"ts\": 40, \"pid\": 2, "
                        "\"tid\": 2,"),
            std::string::npos)
      << events;
  EXPECT_NE(events.find("{\"ph\": \"X\", \"name\": \"fetch\", \"cat\": "
                        "\"siteA.io\", \"ts\": 0, \"dur\": 40, \"pid\": 2, "
                        "\"tid\": 1, \"args\": {\"span_id\": "),
            std::string::npos)
      << events;
  EXPECT_EQ(events.find("\"dur\": 0"), std::string::npos)
      << "an instant carries no duration";

  // The text forest nests instants under their span.
  const std::string forest = RenderSpanForest(core.Completed());
  EXPECT_NE(forest.find("fetch [siteA.io] 40us @0\n"
                        "  crc_mismatch [siteA.io] instant @40 tseg=9 "
                        "volume=1\n"),
            std::string::npos)
      << forest;
}

// Interned strings must survive ring recycling (records reference the
// intern table, not the slots they were first written to), the steady-state
// tracer must stop allocating, and serialization must round-trip
// byte-identically across identically driven tracers.
TEST(SpanTracerTest, InterningRoundTripSurvivesRingRecycling) {
  auto drive = [](SpanTracer& tracer, SimClock& clock) {
    for (int i = 0; i < 64; ++i) {
      SpanScope s(&tracer, (i % 3) == 0 ? "fetch" : "stage", "engine");
      s.Annotate("tseg", (i % 2) == 0 ? "7" : "9");
      s.Annotate("state", "copied");
      clock.Advance(3);
    }
  };
  SimClock clock;
  SpanTracer tracer(&clock, 8);  // 64 spans through an 8-slot ring.
  drive(tracer, clock);

  // Every surviving record reads back intact strings after 56 recycles.
  ASSERT_EQ(tracer.Completed().size(), 8u);
  for (const SpanRecord& rec : tracer.Completed()) {
    EXPECT_TRUE(rec.name == "fetch" || rec.name == "stage");
    EXPECT_EQ(rec.track, "engine");
    ASSERT_EQ(rec.args.size(), 2u);
    EXPECT_EQ(rec.args[0].first, "tseg");
    EXPECT_TRUE(rec.args[0].second == "7" || rec.args[0].second == "9");
    EXPECT_EQ(rec.args[1].first, "state");
    EXPECT_EQ(rec.args[1].second, "copied");
  }
  // Exactly the five repeated strings intern (annotation *values* are
  // owned per-record): fetch, stage, engine, tseg, state.
  EXPECT_EQ(tracer.interned_strings(), 5u);
  EXPECT_TRUE(tracer.quiescent());

  // Steady state: an identical second cycle may not grow the record window
  // or the intern table — the zero-allocation claim.
  const size_t window = tracer.window_bytes();
  drive(tracer, clock);
  EXPECT_EQ(tracer.window_bytes(), window);
  EXPECT_EQ(tracer.interned_strings(), 5u);

  // Round trip: an identically driven tracer serializes byte-identically,
  // both the native JSON and the Perfetto export.
  SimClock clock2;
  SpanTracer tracer2(&clock2, 8);
  drive(tracer2, clock2);
  drive(tracer2, clock2);
  EXPECT_EQ(tracer.ToJson(64), tracer2.ToJson(64));
  std::string ev1;
  std::string ev2;
  AppendPerfettoSpanEvents(tracer, 1, "engine", &ev1);
  AppendPerfettoSpanEvents(tracer2, 1, "engine", &ev2);
  EXPECT_EQ(ev1, ev2);
  EXPECT_EQ(PerfettoTraceJson(ev1), PerfettoTraceJson(ev2));
}

// --- Span trees under injected faults -----------------------------------

class ObservabilityFsTest : public ::testing::Test {
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

  // End-of-run span-context leak check: a missed SpanScope unwind leaves
  // the implicit-context stack non-empty and would silently mis-parent
  // every span the next operation opens.
  void TearDown() override {
    if (hl_ != nullptr) {
      EXPECT_TRUE(hl_->spans().quiescent())
          << hl_->spans().open_count() << " spans still open";
    }
  }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
};

TEST_F(ObservabilityFsTest, RetriesNestUnderFetchInOneDemandTree) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  auto data = Pattern(256 * 1024, 7);
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, data).ok());
  ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = "/f"}).ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  // Two transient drive faults: retried through within one demand fetch.
  hl_->Internals().jukebox(0).fault_channel()->FailNextOps(2);
  hl_->spans().Clear();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(hl_->fs().Read(*ino, 0, out).ok());

  const auto& spans = hl_->spans().Completed();
  const SpanRecord* demand = FindByName(spans, "demand_fetch");
  const SpanRecord* fetch = FindByName(spans, "fetch");
  const SpanRecord* install = FindByName(spans, "install");
  ASSERT_NE(demand, nullptr);
  ASSERT_NE(fetch, nullptr);
  ASSERT_NE(install, nullptr);
  EXPECT_EQ(demand->parent, kNoSpan);
  EXPECT_EQ(fetch->parent, demand->id);
  EXPECT_EQ(install->parent, fetch->id);

  size_t retries = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "retry") {
      EXPECT_EQ(s.parent, fetch->id);  // Children of the fetch, not roots.
      EXPECT_GT(s.duration_us(), 0u);  // Backoff + re-attempt take time.
      ++retries;
    }
  }
  EXPECT_EQ(retries, 2u);
  EXPECT_EQ(hl_->spans().open_count(), 0u);
}

TEST_F(ObservabilityFsTest, CrcFailoverShowsAsChildOfFetch) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  auto data = Pattern(256 * 1024, 13);
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, data).ok());
  MigratorOptions opts;
  opts.replicas = 1;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({*ino}, opts).ok());

  // Find the tertiary segment holding block 0 and corrupt the copy the I/O
  // server will try first (a copy on a mounted volume beats a media swap).
  auto refs = hl_->fs().CollectFileBlocks(*ino);
  ASSERT_TRUE(refs.ok());
  uint32_t primary = kNoSegment;
  for (const BlockRef& r : *refs) {
    if (r.lbn == 0 && r.daddr != kNoBlock) {
      primary = hl_->Internals().address_map.TsegOf(r.daddr);
      break;
    }
  }
  ASSERT_NE(primary, kNoSegment);
  std::vector<uint32_t> candidates = {primary};
  for (uint32_t replica : hl_->Internals().tseg_table.ReplicasOf(primary)) {
    candidates.push_back(replica);
  }
  uint32_t victim = candidates.front();
  for (uint32_t candidate : candidates) {
    auto mounted = hl_->Internals().footprint.VolumeMounted(
        static_cast<int>(hl_->Internals().address_map.VolumeOfTseg(candidate)));
    if (mounted.ok() && *mounted) {
      victim = candidate;
      break;
    }
  }
  uint32_t vol = hl_->Internals().address_map.VolumeOfTseg(victim);
  auto medium = hl_->Internals().footprint.GetVolume(vol);
  ASSERT_TRUE(medium.ok());
  std::vector<uint8_t> junk(kBlockSize, 0xA5);
  ASSERT_TRUE(
      (*medium)
          ->Write(hl_->Internals().address_map.ByteOffsetOnVolume(victim), junk)
          .ok());
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());

  hl_->spans().Clear();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(hl_->fs().Read(*ino, 0, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));

  const auto& spans = hl_->spans().Completed();
  const SpanRecord* fetch = FindByName(spans, "fetch");
  const SpanRecord* failover = FindByName(spans, "failover");
  const SpanRecord* install = FindByName(spans, "install");
  ASSERT_NE(fetch, nullptr);
  ASSERT_NE(failover, nullptr);
  ASSERT_NE(install, nullptr);
  EXPECT_EQ(failover->parent, fetch->id);
  EXPECT_EQ(install->parent, fetch->id);
  // The CRC mismatch burned the per-source retry budget before failing over.
  const SpanRecord* retry = FindByName(spans, "retry");
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->parent, fetch->id);
  // The mismatch itself is an instant inside the fetch it failed.
  const SpanRecord* crc = FindByName(spans, "crc_mismatch");
  ASSERT_NE(crc, nullptr);
  EXPECT_TRUE(crc->instant());
  EXPECT_EQ(crc->parent, fetch->id);
  // One tree: every span descends from the lone demand_fetch root.
  const SpanRecord* demand = FindByName(spans, "demand_fetch");
  ASSERT_NE(demand, nullptr);
  EXPECT_EQ(fetch->parent, demand->id);
  size_t roots = 0;
  for (const SpanRecord& s : spans) {
    if (s.parent == kNoSpan && !s.instant()) {
      ++roots;
    }
  }
  EXPECT_EQ(roots, 1u);
  // The block map's demand_fault instant marks the moment that tree began.
  const SpanRecord* fault = FindByName(spans, "demand_fault");
  ASSERT_NE(fault, nullptr);
  EXPECT_TRUE(fault->instant());
  EXPECT_EQ(fault->begin_us, demand->begin_us);
}

TEST_F(ObservabilityFsTest, WriteBehindIssueSpansInheritEnqueueContext) {
  Result<uint32_t> ino = hl_->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(hl_->fs().Write(*ino, 0, Pattern(256 * 1024, 21)).ok());
  ASSERT_TRUE(hl_->fs().Sync().ok());

  hl_->spans().Clear();
  MigratorOptions opts;
  opts.write_behind = true;
  ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles({*ino}, opts).ok());
  ASSERT_TRUE(hl_->Internals().migrator.FlushStaging().ok());

  const auto& spans = hl_->spans().Completed();
  const SpanRecord* issue = FindByName(spans, "issue_copyout");
  ASSERT_NE(issue, nullptr);
  // The issue-time span is parented to the migration context captured at
  // enqueue time, not to whatever was open when the queue drained.
  ASSERT_NE(issue->parent, kNoSpan);
  std::vector<const SpanRecord*> writes;
  for (const SpanRecord& s : spans) {
    if (s.name == "tertiary_write") {
      writes.push_back(&s);
    }
  }
  ASSERT_FALSE(writes.empty());
  for (const SpanRecord* w : writes) {
    const SpanRecord* parent = nullptr;
    for (const SpanRecord& s : spans) {
      if (s.id == w->parent) {
        parent = &s;
        break;
      }
    }
    ASSERT_NE(parent, nullptr);
    EXPECT_TRUE(parent->name == "issue_copyout" ||
                parent->name == "issue_replica_write");
  }
}

// --- Time-series sampler -------------------------------------------------

TEST(TimeSeriesSamplerTest, StampsAtCadenceBoundariesRegardlessOfChunking) {
  SimClock clock;
  TimeSeriesSampler sampler(/*cadence_us=*/kUsPerSec, /*capacity=*/16);
  int64_t level = 0;
  sampler.AddSeries("level", [&] { return level; });
  const SimClock::TickHookId hook =
      clock.AddTickHook([&](SimTime now) { sampler.Poll(now); });

  level = 1;
  clock.Advance(700'000);  // 0.7 s: no boundary crossed yet.
  EXPECT_EQ(sampler.Series("level").size(), 0u);
  level = 2;
  clock.Advance(600'000);  // 1.3 s: crossed the 1 s boundary.
  ASSERT_EQ(sampler.Series("level").size(), 1u);
  EXPECT_EQ(sampler.Series("level")[0].t_us, kUsPerSec);
  EXPECT_EQ(sampler.Series("level")[0].value, 2);
  level = 3;
  // One jump over five boundaries: a single sample, stamped at the last
  // crossed boundary (6 s), not replayed at every skipped one.
  clock.Advance(5 * kUsPerSec);
  ASSERT_EQ(sampler.Series("level").size(), 2u);
  EXPECT_EQ(sampler.Series("level")[1].t_us, 6 * kUsPerSec);
  EXPECT_EQ(sampler.Series("level")[1].value, 3);
  clock.RemoveTickHook(hook);
  EXPECT_EQ(clock.tick_hook_count(), 0u);
}

// Regression test for the old SetTickHook last-writer-wins footgun: two
// observers (say a deployment sampler and a hub fan-out) must both keep
// seeing ticks, and removing one must not disturb the other.
TEST(SimClockTest, MultipleTickHooksAllFireAndRemoveIndependently) {
  SimClock clock;
  std::vector<std::pair<int, SimTime>> fired;
  const SimClock::TickHookId a =
      clock.AddTickHook([&](SimTime now) { fired.emplace_back(1, now); });
  const SimClock::TickHookId b =
      clock.AddTickHook([&](SimTime now) { fired.emplace_back(2, now); });
  EXPECT_EQ(clock.tick_hook_count(), 2u);

  clock.Advance(10);
  // Both hooks fire, in registration order.
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<int, SimTime>{1, 10}));
  EXPECT_EQ(fired[1], (std::pair<int, SimTime>{2, 10}));

  clock.RemoveTickHook(a);
  clock.AdvanceTo(25);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[2], (std::pair<int, SimTime>{2, 25}));

  // Removing an already-removed (or never-issued) handle is a no-op.
  clock.RemoveTickHook(a);
  clock.RemoveTickHook(12345);
  EXPECT_EQ(clock.tick_hook_count(), 1u);
  clock.RemoveTickHook(b);
  clock.Advance(5);
  EXPECT_EQ(fired.size(), 3u);
}

TEST(TimeSeriesSamplerTest, ZeroCadenceDisablesSampling) {
  SimClock clock;
  TimeSeriesSampler sampler(/*cadence_us=*/0, /*capacity=*/4);
  sampler.AddSeries("x", [] { return int64_t{42}; });
  sampler.Poll(10 * kUsPerSec);
  EXPECT_EQ(sampler.samples_taken(), 0u);
  EXPECT_TRUE(sampler.Series("x").empty());
}

TEST(TimeSeriesSamplerTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    SimClock clock;
    HighLightConfig config;
    config.disks.push_back({Rz57Profile(), 8 * 1024});
    JukeboxProfile j = Hp6300MoProfile();
    j.num_slots = 4;
    j.volume_capacity_bytes = 16ull * 64 * kBlockSize;
    config.jukeboxes.push_back({j, false, 16});
    config.lfs.seg_size_blocks = 64;
    config.lfs.cache_max_segments = 8;
    auto hl = HighLightFs::Create(config, &clock);
    EXPECT_TRUE(hl.ok());
    uint32_t ino = *(*hl)->fs().Create("/f");
    EXPECT_TRUE((*hl)->fs().Write(ino, 0, Pattern(256 * 1024, 99)).ok());
    EXPECT_TRUE((*hl)->Migrate(MigrationRequest{.path = "/f"}).ok());
    EXPECT_TRUE((*hl)->DropCleanCacheLines().ok());
    std::vector<uint8_t> out(4096);
    EXPECT_TRUE((*hl)->fs().Read(ino, 0, out).ok());
    // Both observation products must be reproducible bit-for-bit.
    return (*hl)->timeseries().ToJson() +
           (*hl)->spans().ToJson((*hl)->spans().capacity());
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- Percentiles ---------------------------------------------------------

TEST(HistogramPercentileTest, PercentilesTrackObservedDistribution) {
  MetricsRegistry registry;
  Histogram h;
  h.BindTo(registry, "lat");
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Observe(v * 1000);  // 1 ms .. 100 ms.
  }
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const Histogram::Data& d = snap.histograms[0].second;
  EXPECT_EQ(d.Percentile(1.0), 100'000u);  // Exact: the max.
  // Power-of-two buckets: estimates land within the right bucket's range.
  const uint64_t p50 = d.Percentile(0.5);
  EXPECT_GE(p50, 32'768u);
  EXPECT_LE(p50, 65'536u);
  const uint64_t p99 = d.Percentile(0.99);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 100'000u);
  // And the snapshot JSON surfaces them for the BENCH files / --metrics.
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"p50_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
}

}  // namespace
}  // namespace hl

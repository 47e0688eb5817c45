// Unit tests for the unified metrics layer: handle semantics (detached
// counting, BindTo folding, name-keyed slot sharing), histogram bucketing,
// and the registry's behavior across a HighLightFs Remount (counters
// accumulate because slots are keyed by name).

#include <gtest/gtest.h>

#include "highlight/highlight.h"
#include "util/metrics.h"
#include "util/span.h"

namespace hl {
namespace {

TEST(CounterTest, DetachedCountsFoldIntoSlotOnBind) {
  Counter c;
  c.Inc();
  c.Inc(4);
  ++c;
  c += 10;
  EXPECT_EQ(c.value(), 16u);

  MetricsRegistry registry;
  c.BindTo(registry, "x");
  EXPECT_EQ(c.value(), 16u);
  EXPECT_EQ(registry.Snapshot().Value("x"), 16u);

  c.Inc();
  EXPECT_EQ(registry.Snapshot().Value("x"), 17u);
}

TEST(CounterTest, SameNameSharesOneSlot) {
  MetricsRegistry registry;
  Counter a = registry.counter("shared");
  Counter b = registry.counter("shared");
  a.Inc(3);
  b.Inc(2);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(registry.Snapshot().Value("shared"), 5u);
}

TEST(CounterTest, ImplicitConversionMatchesValue) {
  Counter c;
  c.Inc(7);
  uint64_t v = c;
  EXPECT_EQ(v, 7u);
}

TEST(GaugeTest, SetTracksHighWaterMark) {
  Gauge g;
  g.Set(5);
  g.Set(9);
  g.Set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 9);
  g.Add(10);
  EXPECT_EQ(g.value(), 12);
  EXPECT_EQ(g.max(), 12);
}

TEST(GaugeTest, BindPreservesValueAndMax) {
  Gauge g;
  g.Set(4);
  g.Set(1);
  MetricsRegistry registry;
  g.BindTo(registry, "depth");
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.max(), 4);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_TRUE(snap.Has("depth"));
  EXPECT_EQ(snap.gauges[0].second.value, 1);
  EXPECT_EQ(snap.gauges[0].second.max, 4);
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  // Bucket i holds v with bit_width(v) == i: [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(1023), 10);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  // The last bucket is a catch-all for absurdly large latencies.
  EXPECT_EQ(Histogram::BucketOf(~0ull), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, ObserveAccumulatesMoments) {
  Histogram h;
  h.Observe(10);
  h.Observe(30);
  h.Observe(20);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 60u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
  EXPECT_EQ(h.bucket(Histogram::BucketOf(10)), 1u);
  EXPECT_EQ(h.bucket(Histogram::BucketOf(30)), 2u);  // 20 and 30: width 5.
}

TEST(HistogramTest, BindFoldsDetachedObservations) {
  Histogram h;
  h.Observe(100);
  MetricsRegistry registry;
  h.BindTo(registry, "lat");
  h.Observe(200);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 2u);
  EXPECT_EQ(snap.histograms[0].second.sum, 300u);
}

TEST(RegistryTest, ResetZeroesButHandlesStayValid) {
  MetricsRegistry registry;
  Counter c = registry.counter("n");
  c.Inc(5);
  registry.Reset();
  EXPECT_EQ(registry.Snapshot().Value("n"), 0u);
  c.Inc(2);
  EXPECT_EQ(registry.Snapshot().Value("n"), 2u);
}

TEST(RegistryTest, SnapshotRatioAndJson) {
  MetricsRegistry registry;
  registry.counter("hits").Inc(3);
  registry.counter("misses").Inc(1);
  registry.gauge("depth").Set(2);
  registry.histogram("lat").Observe(42);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Ratio("hits", "misses"), 0.75);
  EXPECT_EQ(snap.Value("absent"), 0u);
  EXPECT_FALSE(snap.Has("absent"));
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"hits\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"depth\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
}

// End-to-end: the assembled system's registry, and its behavior across a
// simulated crash + remount.
class MetricsRemountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HighLightConfig config;
    config.disks.push_back({Rz57Profile(), 16 * 1024});  // 64 MB.
    JukeboxProfile j = Hp6300MoProfile();
    j.num_slots = 4;
    j.volume_capacity_bytes = 20ull * 64 * kBlockSize;
    config.jukeboxes.push_back({j, false, 20});
    config.lfs.seg_size_blocks = 64;
    config.lfs.cache_max_segments = 8;
    auto hl = HighLightFs::Create(config, &clock_);
    ASSERT_TRUE(hl.ok()) << hl.status().ToString();
    hl_ = std::move(*hl);
  }

  // Writes a file and migrates it, moving cache/io/migrator counters.
  void WriteAndMigrate(const std::string& path) {
    Result<uint32_t> ino = hl_->fs().Create(path);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(
        hl_->fs().Write(*ino, 0, std::vector<uint8_t>(300 * 1024, 0x5A)).ok());
    ASSERT_TRUE(hl_->fs().Sync().ok());
    ASSERT_TRUE(hl_->Migrate(MigrationRequest{.path = path}).ok());
  }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
};

TEST_F(MetricsRemountTest, MigrationMovesRegistryCounters) {
  WriteAndMigrate("/a");
  MetricsSnapshot snap = hl_->Metrics();
  EXPECT_GT(snap.Value("io.segments_copied_out"), 0u);
  EXPECT_GT(snap.Value("cache.staged_lines"), 0u);
  EXPECT_GT(snap.Value("disk.disk0.writes"), 0u);
  EXPECT_GT(snap.Value("jukebox.HP6300-MO.bytes_written"), 0u);
  EXPECT_GT(snap.Value("footprint.media_swaps"), 0u);
  EXPECT_GT(snap.Value("jukebox.HP6300-MO.media_swaps"), 0u);
}

TEST_F(MetricsRemountTest, CountersAccumulateAcrossRemount) {
  WriteAndMigrate("/a");
  MetricsSnapshot before = hl_->Metrics();
  uint64_t copyouts = before.Value("io.segments_copied_out");
  uint64_t staged = before.Value("cache.staged_lines");
  ASSERT_GT(copyouts, 0u);

  ASSERT_TRUE(hl_->Remount().ok());
  // Rebuilt components re-bind to the same name-keyed slots: nothing lost.
  MetricsSnapshot after_remount = hl_->Metrics();
  EXPECT_EQ(after_remount.Value("io.segments_copied_out"), copyouts);
  size_t remounts = 0;
  for (const SpanRecord& s : hl_->spans().Completed()) {
    if (s.instant() && s.name == "remount") {
      ++remounts;
    }
  }
  EXPECT_EQ(remounts, 1u);

  WriteAndMigrate("/b");
  MetricsSnapshot after = hl_->Metrics();
  EXPECT_GT(after.Value("io.segments_copied_out"), copyouts);
  EXPECT_GT(after.Value("cache.staged_lines"), staged);
}

TEST_F(MetricsRemountTest, DemandFaultCountsMissAndHitOnReRead) {
  WriteAndMigrate("/a");
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  hl_->fs().FlushBufferCache();
  Result<uint32_t> ino = hl_->fs().LookupPath("/a");
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> out(300 * 1024);
  ASSERT_TRUE(hl_->fs().Read(*ino, 0, out).ok());
  MetricsSnapshot snap = hl_->Metrics();
  EXPECT_GT(snap.Value("cache.misses"), 0u);
  EXPECT_GT(snap.Value("blockmap.demand_faults"), 0u);
  EXPECT_GT(snap.Value("io.segments_fetched"), 0u);

  // Re-reading the now-cached data is a hit.
  hl_->fs().FlushBufferCache();
  ASSERT_TRUE(hl_->fs().Read(*ino, 0, out).ok());
  EXPECT_GT(hl_->Metrics().Value("cache.hits"), 0u);
}

}  // namespace
}  // namespace hl

// System-level integration tests: multi-jukebox Footprint deployments,
// shared-bus configurations, WORM archives, and a long mixed-workload
// scenario combining every mechanism.

#include <gtest/gtest.h>

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

JukeboxProfile SmallMo(int slots, uint32_t segs, uint32_t spb) {
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = slots;
  j.volume_capacity_bytes = static_cast<uint64_t>(segs) * spb * kBlockSize;
  return j;
}

TEST(MultiJukeboxTest, VolumesSpanTwoChangers) {
  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 8 * 1024});
  // Two changers, 4 volumes each, uniform 12 segments per volume.
  config.jukeboxes.push_back({SmallMo(4, 12, 64), false, 12});
  config.jukeboxes.push_back({SmallMo(4, 12, 64), false, 12});
  config.lfs.seg_size_blocks = 64;
  config.lfs.cache_max_segments = 8;
  auto hl = HighLightFs::Create(config, &clock);
  ASSERT_TRUE(hl.ok()) << hl.status().ToString();
  EXPECT_EQ((*hl)->Internals().footprint.NumVolumes(), 8);
  EXPECT_EQ((*hl)->Internals().address_map.num_volumes(), 8u);
  EXPECT_EQ((*hl)->Internals().address_map.tertiary_nsegs(), 96u);

  // Migrate enough data to spill past the first changer's volumes.
  // Volume order consumes volume 0 (changer 0) first; filling >4 volumes
  // of 3 MB each reaches changer 1.
  for (int i = 0; i < 16; ++i) {
    std::string path = "/f" + std::to_string(i);
    Result<uint32_t> ino = (*hl)->fs().Create(path);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE((*hl)->fs().Write(*ino, 0, Pattern(1 << 20, i)).ok());
    ASSERT_TRUE((*hl)->Migrate(MigrationRequest{.path = path}).ok());
  }
  EXPECT_GT((*hl)->Internals().jukebox(0).bytes_written(), 0u);
  EXPECT_GT((*hl)->Internals().jukebox(1).bytes_written(), 0u);

  // Everything reads back, cold.
  ASSERT_TRUE((*hl)->DropCleanCacheLines().ok());
  std::vector<uint8_t> out(1 << 20);
  for (int i = 0; i < 16; i += 5) {
    Result<uint32_t> ino = (*hl)->fs().LookupPath("/f" + std::to_string(i));
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE((*hl)->fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, Pattern(1 << 20, i)) << i;
  }
}

TEST(MultiJukeboxTest, MismatchedSegsPerVolumeRejected) {
  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 8 * 1024});
  config.jukeboxes.push_back({SmallMo(4, 12, 64), false, 12});
  config.jukeboxes.push_back({SmallMo(4, 12, 64), false, 10});
  config.lfs.seg_size_blocks = 64;
  auto hl = HighLightFs::Create(config, &clock);
  EXPECT_FALSE(hl.ok());
  EXPECT_EQ(hl.status().code(), ErrorCode::kInvalidArgument);
}

TEST(SharedBusTest, SwapStallsDiskTraffic) {
  // The paper's testbed caveat: the autochanger hogs the SCSI bus during a
  // swap, so concurrent disk I/O waits.
  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 8 * 1024});
  config.jukeboxes.push_back({SmallMo(4, 12, 64), false, 12});
  config.lfs.seg_size_blocks = 64;
  config.lfs.cache_max_segments = 6;
  config.shared_bus = true;
  auto hl = HighLightFs::Create(config, &clock);
  ASSERT_TRUE(hl.ok());
  Result<uint32_t> ino = (*hl)->fs().Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE((*hl)->fs().Write(*ino, 0, Pattern(256 * 1024, 1)).ok());
  // Migration (first tertiary write) mounts a volume: 13.5 s swap holds the
  // bus, so the whole operation takes at least that long.
  SimTime t0 = clock.Now();
  ASSERT_TRUE((*hl)->Migrate(MigrationRequest{.path = "/f"}).ok());
  EXPECT_GT(clock.Now() - t0, 13'000'000u);
}

TEST(WormArchiveTest, WriteOnceArchiveLifecycle) {
  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 8 * 1024});
  JukeboxProfile sony = SmallMo(4, 12, 64);
  sony.name = "Sony-WORM";
  config.jukeboxes.push_back({sony, /*write_once=*/true, 12});
  config.lfs.seg_size_blocks = 64;
  config.lfs.cache_max_segments = 8;
  auto hl = HighLightFs::Create(config, &clock);
  ASSERT_TRUE(hl.ok());

  // Archive files; WORM media accept each segment exactly once.
  for (int i = 0; i < 4; ++i) {
    std::string path = "/archive" + std::to_string(i);
    Result<uint32_t> ino = (*hl)->fs().Create(path);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE((*hl)->fs().Write(*ino, 0, Pattern(512 * 1024, 20 + i)).ok());
    Result<MigrationReport> r = (*hl)->Migrate(MigrationRequest{.path = path});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_TRUE((*hl)->DropCleanCacheLines().ok());
  std::vector<uint8_t> out(512 * 1024);
  for (int i = 0; i < 4; ++i) {
    Result<uint32_t> ino =
        (*hl)->fs().LookupPath("/archive" + std::to_string(i));
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE((*hl)->fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, Pattern(512 * 1024, 20 + i));
  }
  // Updates still work: they supersede on disk, never rewriting the WORM.
  Result<uint32_t> ino = (*hl)->fs().LookupPath("/archive0");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE((*hl)->fs().Write(*ino, 0, Pattern(4096, 99)).ok());
  ASSERT_TRUE((*hl)->fs().Sync().ok());
  ASSERT_TRUE((*hl)->fs().Read(*ino, 0, out).ok());
  EXPECT_EQ(std::vector<uint8_t>(out.begin(), out.begin() + 4096),
            Pattern(4096, 99));
}

TEST(GrandIntegrationTest, EverythingTogether) {
  // Ingest -> migrate (with replicas) -> demand fetch -> update -> clean
  // disk -> clean tertiary -> crash -> verify. One pass through every
  // mechanism in the system.
  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 12 * 1024});
  config.jukeboxes.push_back({SmallMo(6, 16, 64), false, 16});
  config.lfs.seg_size_blocks = 64;
  config.lfs.cache_max_segments = 10;
  auto hl_or = HighLightFs::Create(config, &clock);
  ASSERT_TRUE(hl_or.ok());
  std::unique_ptr<HighLightFs> hl = std::move(*hl_or);

  // Ingest a tree.
  ASSERT_TRUE(hl->fs().Mkdir("/data").ok());
  std::map<std::string, uint64_t> files;  // path -> seed.
  for (int i = 0; i < 10; ++i) {
    std::string path = "/data/f" + std::to_string(i);
    Result<uint32_t> ino = hl->fs().Create(path);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(hl->fs().Write(*ino, 0, Pattern(400 * 1024, 50 + i)).ok());
    files[path] = 50 + i;
  }
  clock.Advance(3600 * kUsPerSec);

  // Migrate with one replica per segment.
  MigratorOptions opts;
  opts.replicas = 1;
  std::vector<uint32_t> inos;
  for (const auto& [path, seed] : files) {
    inos.push_back(*hl->fs().LookupPath(path));
  }
  ASSERT_TRUE(hl->Internals().migrator.MigrateFiles(inos, opts).ok());

  // Demand-fetch some files back; update others (supersede on disk).
  ASSERT_TRUE(hl->DropCleanCacheLines().ok());
  std::vector<uint8_t> out(400 * 1024);
  for (int i = 0; i < 10; i += 3) {
    std::string path = "/data/f" + std::to_string(i);
    Result<uint32_t> ino = hl->fs().LookupPath(path);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(hl->fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, Pattern(400 * 1024, files[path]));
  }
  for (int i = 1; i < 10; i += 3) {
    std::string path = "/data/f" + std::to_string(i);
    Result<uint32_t> ino = hl->fs().LookupPath(path);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(hl->fs().Write(*ino, 0, Pattern(400 * 1024, 80 + i)).ok());
    files[path] = 80 + i;
  }
  ASSERT_TRUE(hl->fs().Sync().ok());

  // Disk cleaner pass, then tertiary cleaner on the now-dirty volume 0.
  ASSERT_TRUE(hl->Internals().cleaner.Clean(8).ok());
  ASSERT_TRUE(hl->Internals().tertiary_cleaner.CleanWorstVolume(0.95).ok());

  // Crash + remount, then verify every file cold.
  ASSERT_TRUE(hl->fs().Checkpoint().ok());
  ASSERT_TRUE(hl->Remount().ok());
  ASSERT_TRUE(hl->DropCleanCacheLines().ok());
  for (const auto& [path, seed] : files) {
    Result<uint32_t> ino = hl->fs().LookupPath(path);
    ASSERT_TRUE(ino.ok()) << path;
    ASSERT_TRUE(hl->fs().Read(*ino, 0, out).ok()) << path;
    EXPECT_EQ(out, Pattern(400 * 1024, seed)) << path;
  }
  FsckReport report = CheckFs(hl->fs());
  EXPECT_TRUE(report.clean()) << (report.errors.empty() ? ""
                                                        : report.errors[0]);
}

// Crash-like remount after a fetch that reused a checkpointed cache line.
// Fetches rewrite lines in place without logging, so the ifile's tags are
// only as new as the last checkpoint: after the crash /a's tag names the
// line that now holds /c's bytes. A clean line must not be trusted then —
// the tertiary copy is authoritative, so /a re-fetches and reads back.
TEST(CrashRemountTest, CleanCacheLineIsNotTrustedAfterCrash) {
  for (bool checkpoint_before_remount : {false, true}) {
    SCOPED_TRACE(checkpoint_before_remount ? "checkpointed" : "crash");
    SimClock clock;
    HighLightConfig config;
    config.disks.push_back({Rz57Profile(), 8 * 1024});
    config.jukeboxes.push_back({SmallMo(4, 16, 64), false, 16});
    config.lfs.seg_size_blocks = 64;
    config.lfs.cache_max_segments = 2;
    auto made = HighLightFs::Create(config, &clock);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    std::unique_ptr<HighLightFs> hl = std::move(*made);

    const std::vector<std::string> paths = {"/a", "/b", "/c"};
    for (size_t i = 0; i < paths.size(); ++i) {
      Result<uint32_t> ino = hl->fs().Create(paths[i]);
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(hl->fs().Write(*ino, 0, Pattern(200 * 1024, i + 1)).ok());
      ASSERT_TRUE(hl->fs().Sync().ok());
      ASSERT_TRUE(hl->Migrate(MigrationRequest{.path = paths[i]}).ok());
    }
    ASSERT_TRUE(hl->DropCleanCacheLines().ok());

    std::vector<uint8_t> out(200 * 1024);
    const auto read = [&](size_t i) {
      Result<uint32_t> ino = hl->fs().LookupPath(paths[i]);
      ASSERT_TRUE(ino.ok());
      Result<size_t> n = hl->fs().Read(*ino, 0, out);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      EXPECT_TRUE(out == Pattern(200 * 1024, i + 1)) << paths[i];
    };
    read(0);
    read(1);
    ASSERT_TRUE(hl->fs().Checkpoint().ok());
    read(2);  // Evicts /a's line (LRU) and fetches /c into it.
    if (checkpoint_before_remount) {
      ASSERT_TRUE(hl->fs().Checkpoint().ok());
    }
    ASSERT_TRUE(hl->Remount().ok());
    for (size_t i = 0; i < paths.size(); ++i) {
      read(i);
    }
  }
}

}  // namespace
}  // namespace hl

// Reproduces Table 3: access delays — time-to-first-byte and total read
// time for 10 KB / 100 KB / 1 MB / 10 MB files:
//   * FFS (disk resident),
//   * HighLight with the file in the segment cache,
//   * HighLight with the file uncached (demand-fetched from the MO jukebox).
//
// Protocol from section 7.2: files are read from a freshly-mounted file
// system (cold buffer cache) through an 8 KB stdio-style buffer; the
// tertiary volume is already in the drive, so time-to-first-byte excludes
// the media swap.

#include "bench/bench_util.h"
#include "blockdev/sim_disk.h"
#include "ffs/ffs.h"
#include "highlight/highlight.h"

namespace hl {
namespace {

using bench::Die;
using bench::DieOr;

constexpr uint64_t kSeed = 0x7AB1E3;
constexpr uint32_t kDiskBlocks = 848 * 256;
constexpr size_t kIoBuf = 8192;  // The paper's stdio buffer.

struct Delay {
  SimTime first_byte = 0;
  SimTime total = 0;
};

struct SizeCase {
  const char* name;
  size_t bytes;
  const char* paper_ffs_first;
  const char* paper_ffs_total;
  const char* paper_cache_first;
  const char* paper_cache_total;
  const char* paper_uncached_first;
  const char* paper_uncached_total;
};

const SizeCase kCases[] = {
    {"10KB", 10 * 1024, "0.06 s", "0.09 s", "0.11 s", "0.12 s", "3.57 s",
     "3.59 s"},
    {"100KB", 100 * 1024, "0.06 s", "0.27 s", "0.11 s", "0.27 s", "3.59 s",
     "3.73 s"},
    {"1MB", 1 << 20, "0.06 s", "1.29 s", "0.10 s", "1.55 s", "3.51 s",
     "8.22 s"},
    {"10MB", 10 << 20, "0.07 s", "11.89 s", "0.09 s", "13.68 s", "3.57 s",
     "44.23 s"},
};

// Reads the file through an 8 KB buffer, recording first-byte and total.
template <typename ReadFn>
Delay TimedRead(SimClock& clock, size_t bytes, ReadFn&& read) {
  Delay d;
  std::vector<uint8_t> buf(kIoBuf);
  SimTime t0 = clock.Now();
  bool first = true;
  for (size_t off = 0; off < bytes; off += kIoBuf) {
    size_t take = std::min(kIoBuf, bytes - off);
    read(off, std::span<uint8_t>(buf.data(), take));
    if (first) {
      d.first_byte = clock.Now() - t0;
      first = false;
    }
  }
  d.total = clock.Now() - t0;
  return d;
}

Delay MeasureFfs(size_t bytes) {
  SimClock clock;
  SimDisk disk("rz57", kDiskBlocks, Rz57Profile(), &clock);
  auto fs = DieOr(Ffs::Mkfs(&disk, &clock, FfsParams{}), "ffs mkfs");
  uint32_t ino = DieOr(fs->Create("/f"), "create");
  Die(fs->Write(ino, 0, bench::Payload(bytes, kSeed)), "write");
  Die(fs->Sync(), "sync");
  fs->FlushBufferCache();  // Freshly-mounted: no cached blocks.
  return TimedRead(clock, bytes, [&](uint64_t off, std::span<uint8_t> out) {
    DieOr(fs->Read(ino, off, out), "read");
  });
}

Delay MeasureHighLight(size_t bytes, bool drop_cache,
                       bench::JsonReport& report, const std::string& label) {
  SimClock clock;
  HighLightConfig config = DieOr(HighLightConfig::Builder()
                                     .AddDisk(Rz57Profile(), kDiskBlocks)
                                     .AddJukebox(Hp6300MoProfile())
                                     .CacheMaxSegments(120)
                                     .Build(),
                                 "config");
  auto hl = DieOr(HighLightFs::Create(config, &clock), "create");
  uint32_t ino = DieOr(hl->fs().Create("/f"), "create");
  Die(hl->fs().Write(ino, 0, bench::Payload(bytes, kSeed)), "write");
  Die(hl->fs().Sync(), "sync");
  // The paper's migrator at measurement time moved file data blocks only
  // (lfs_bmapv + lfs_migratev); the inode stayed on disk. That is what makes
  // its time-to-first-byte a single segment fetch for every file size.
  MigratorOptions data_only;
  data_only.migrate_inode = false;
  data_only.migrate_metadata = false;
  DieOr(hl->Internals().migrator.MigrateFiles({ino}, data_only), "migrate");
  if (drop_cache) {
    Die(hl->DropCleanCacheLines(), "drop cache");
    // Prime the write drive so the volume is loaded (the paper's "the
    // tertiary volume was in the drive when the tests began").
    std::vector<uint8_t> sector(4096);
    uint32_t vol = hl->Internals().address_map.VolumeOfTseg(
        hl->Internals().address_map.FirstTsegOfVolume(0));
    Die(hl->Internals().footprint.Read(vol, 0, sector), "prime drive");
  } else {
    hl->fs().FlushBufferCache();  // Cold buffer cache, warm segment cache.
  }
  Delay d = TimedRead(clock, bytes, [&](uint64_t off, std::span<uint8_t> out) {
    DieOr(hl->fs().Read(ino, off, out), "read");
  });
  report.Snapshot(label, hl->Metrics());
  report.Timeline(label, hl->spans(), &hl->timeseries());
  return d;
}

// Batched-fault scenario (beyond the paper's table): K outstanding demand
// faults alternating across two unloaded volumes, handed to the service
// process at once. Synchronous service swaps media per fetch; the async
// read pipeline's elevator loads each volume once and resumes each fault
// as soon as its own segment lands (critical-segment-first).
struct BatchStats {
  double mean_delay_s = 0;
  uint64_t swaps = 0;
};

BatchStats MeasureBatchedFaults(bool async, size_t k,
                                bench::JsonReport& report,
                                const std::string& label) {
  SimClock clock;
  HighLightConfig config = DieOr(HighLightConfig::Builder()
                                     .AddDisk(Rz57Profile(), kDiskBlocks)
                                     .AddJukebox(Hp6300MoProfile())
                                     .CacheMaxSegments(120)
                                     .AsyncReadPipeline(async)
                                     .Build(),
                                 "config");
  auto hl = DieOr(HighLightFs::Create(config, &clock), "create");

  MigratorOptions data_only;
  data_only.migrate_inode = false;
  data_only.migrate_metadata = false;
  uint32_t next_tseg[4] = {};
  for (uint32_t v = 0; v < 4; ++v) {
    next_tseg[v] = hl->Internals().address_map.FirstTsegOfVolume(v);
  }
  auto migrate_to = [&](const std::string& path, uint32_t volume) {
    uint32_t ino = DieOr(hl->fs().Create(path), "create");
    Die(hl->fs().Write(ino, 0, bench::Payload(200 * 1024, kSeed + volume)),
        "write");
    MigratorOptions opts = data_only;
    opts.preferred_volume = volume;
    DieOr(hl->Internals().migrator.MigrateFiles({ino}, opts), "migrate");
    return next_tseg[volume]++;
  };

  std::vector<uint32_t> faults;
  for (size_t i = 0; i < k; ++i) {
    faults.push_back(migrate_to("/f" + std::to_string(i),
                                1 + static_cast<uint32_t>(i % 2)));
  }
  // Park the write drive on volume 3 so neither fault volume is seated.
  migrate_to("/park", 3);
  Die(hl->DropCleanCacheLines(), "drop cache");

  uint64_t swaps0 = hl->Internals().footprint.TotalMediaSwaps();
  auto results = DieOr(hl->Internals().service.DemandFetchBatch(faults), "batch");
  BatchStats stats;
  stats.swaps = hl->Internals().footprint.TotalMediaSwaps() - swaps0;
  SimTime total = 0;
  for (const auto& r : results) {
    Die(r.status, "batched fetch");
    total += r.delay_us;
  }
  stats.mean_delay_s =
      static_cast<double>(total) / results.size() / kUsPerSec;
  report.Snapshot(label, hl->Metrics());
  report.Timeline(label, hl->spans(), &hl->timeseries());
  return stats;
}

}  // namespace
}  // namespace hl

int main() {
  using namespace hl;
  bench::Title("Table 3: access delays (seconds)");
  bench::Note("first byte includes metadata fetches; uncached = demand "
              "fetch from the MO jukebox, volume already in the drive");

  bench::JsonReport report("table3_access_delays");
  bench::Table table({"File", "Config", "paper first", "sim first",
                      "paper total", "sim total"});
  for (const SizeCase& c : kCases) {
    Delay ffs = MeasureFfs(c.bytes);
    Delay cached = MeasureHighLight(c.bytes, /*drop_cache=*/false, report,
                                    std::string("cached_") + c.name);
    Delay uncached = MeasureHighLight(c.bytes, /*drop_cache=*/true, report,
                                      std::string("uncached_") + c.name);
    auto secs = [](SimTime us) {
      return static_cast<double>(us) / kUsPerSec;
    };
    report.Value(std::string(c.name) + ".ffs_total_s", secs(ffs.total));
    report.Value(std::string(c.name) + ".cached_first_s",
                 secs(cached.first_byte));
    report.Value(std::string(c.name) + ".cached_total_s", secs(cached.total));
    report.Value(std::string(c.name) + ".uncached_first_s",
                 secs(uncached.first_byte));
    report.Value(std::string(c.name) + ".uncached_total_s",
                 secs(uncached.total));
    table.AddRow({c.name, "FFS", c.paper_ffs_first,
                  bench::Seconds(ffs.first_byte), c.paper_ffs_total,
                  bench::Seconds(ffs.total)});
    table.AddRow({c.name, "HighLight in-cache", c.paper_cache_first,
                  bench::Seconds(cached.first_byte), c.paper_cache_total,
                  bench::Seconds(cached.total)});
    table.AddRow({c.name, "HighLight uncached", c.paper_uncached_first,
                  bench::Seconds(uncached.first_byte), c.paper_uncached_total,
                  bench::Seconds(uncached.total)});
  }
  table.Print();

  // Batched-fault scenario: 8 queued demand faults across two unloaded
  // volumes. The synchronous service pays a media swap per fetch; the
  // async pipeline's elevator amortizes them to one load per volume.
  constexpr size_t kBatchedFaults = 8;
  BatchStats sync_batch = MeasureBatchedFaults(
      /*async=*/false, kBatchedFaults, report, "batched_sync");
  BatchStats async_batch = MeasureBatchedFaults(
      /*async=*/true, kBatchedFaults, report, "batched_async");
  report.Value("batched8.sync_mean_delay_s", sync_batch.mean_delay_s);
  report.Value("batched8.sync_media_swaps",
               static_cast<double>(sync_batch.swaps));
  report.Value("batched8.async_mean_delay_s", async_batch.mean_delay_s);
  report.Value("batched8.async_media_swaps",
               static_cast<double>(async_batch.swaps));

  bench::Title("Batched demand faults (8 faults, 2 unloaded volumes)");
  bench::Note("async pipeline batches reads per mounted volume and resumes "
              "each fault critical-segment-first");
  bench::Table batch_table(
      {"Pipeline", "media swaps", "mean fault delay"});
  batch_table.AddRow({"synchronous", std::to_string(sync_batch.swaps),
                      bench::Seconds(static_cast<SimTime>(
                          sync_batch.mean_delay_s * kUsPerSec))});
  batch_table.AddRow({"async elevator", std::to_string(async_batch.swaps),
                      bench::Seconds(static_cast<SimTime>(
                          async_batch.mean_delay_s * kUsPerSec))});
  batch_table.Print();

  report.Write();
  return 0;
}

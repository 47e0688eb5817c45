// Reproduces Table 2: the Stonebraker–Olson large-object benchmark on four
// configurations — clustered FFS, base LFS, HighLight with non-migrated
// files ("on-disk") and HighLight with migrated-but-cached files
// ("in-cache").
//
// Workload: a 51.2 MB file of 12,500 4 KB frames on an 848 MB partition;
// six phases (sequential / random / 80-20 read and replace) with the buffer
// cache flushed before each phase, exactly as section 7.1 describes.

#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "blockdev/sim_disk.h"
#include "ffs/ffs.h"
#include "highlight/highlight.h"
#include "lfs/lfs.h"

namespace hl {
namespace {

using bench::Die;
using bench::DieOr;

constexpr uint64_t kSeed = 0xB16F11E5;
constexpr uint32_t kFrameBytes = 4096;
constexpr uint32_t kNumFrames = 12500;           // 51.2 MB.
constexpr uint32_t kDiskBlocks = 848 * 256;      // 848 MB partition.
constexpr uint32_t kSeqFrames = 2500;            // 10 MB phases.
constexpr uint32_t kRandFrames = 250;            // 1 MB phases.

// Uniform adapter over the three file systems.
struct FsOps {
  std::function<Status(uint64_t, std::span<const uint8_t>)> write;
  std::function<Result<size_t>(uint64_t, std::span<uint8_t>)> read;
  std::function<void()> flush_cache;
  std::function<Status()> sync;
};

struct PhaseResult {
  std::string name;
  const char* paper_time;
  const char* paper_rate;
  SimTime elapsed = 0;
  uint64_t bytes = 0;
};

std::vector<PhaseResult> RunPhases(FsOps& ops, SimClock& clock) {
  std::vector<PhaseResult> results;
  auto frame = bench::Payload(kFrameBytes, kSeed);
  std::vector<uint8_t> readbuf(kFrameBytes);
  Rng rng(kSeed);

  auto run = [&](const std::string& name, const char* ptime,
                 const char* prate, auto&& body, uint64_t bytes) {
    ops.flush_cache();
    SimTime t0 = clock.Now();
    body();
    Die(ops.sync(), "phase sync");
    results.push_back(
        PhaseResult{name, ptime, prate, clock.Now() - t0, bytes});
  };

  run("10MB sequential read", "12.8 s", "819 KB/s",
      [&] {
        for (uint32_t f = 0; f < kSeqFrames; ++f) {
          DieOr(ops.read(static_cast<uint64_t>(f) * kFrameBytes, readbuf),
                "seq read");
        }
      },
      static_cast<uint64_t>(kSeqFrames) * kFrameBytes);

  run("10MB sequential write", "16.4 s", "639 KB/s",
      [&] {
        for (uint32_t f = 0; f < kSeqFrames; ++f) {
          Die(ops.write(static_cast<uint64_t>(f) * kFrameBytes, frame),
              "seq write");
        }
      },
      static_cast<uint64_t>(kSeqFrames) * kFrameBytes);

  run("1MB random read", "6.8 s", "154 KB/s",
      [&] {
        for (uint32_t i = 0; i < kRandFrames; ++i) {
          uint64_t f = rng.Below(kNumFrames);
          DieOr(ops.read(f * kFrameBytes, readbuf), "rand read");
        }
      },
      static_cast<uint64_t>(kRandFrames) * kFrameBytes);

  run("1MB random write", "1.4 s", "749 KB/s",
      [&] {
        for (uint32_t i = 0; i < kRandFrames; ++i) {
          uint64_t f = rng.Below(kNumFrames);
          Die(ops.write(f * kFrameBytes, frame), "rand write");
        }
      },
      static_cast<uint64_t>(kRandFrames) * kFrameBytes);

  // 80/20: 80% of accesses hit the sequentially next frame, 20% jump.
  uint64_t cursor = rng.Below(kNumFrames);
  run("1MB read, 80/20 locality", "6.8 s", "154 KB/s",
      [&] {
        for (uint32_t i = 0; i < kRandFrames; ++i) {
          cursor = rng.Chance(0.8) ? (cursor + 1) % kNumFrames
                                   : rng.Below(kNumFrames);
          DieOr(ops.read(cursor * kFrameBytes, readbuf), "80/20 read");
        }
      },
      static_cast<uint64_t>(kRandFrames) * kFrameBytes);

  run("1MB write, 80/20 locality", "1.2 s", "873 KB/s",
      [&] {
        for (uint32_t i = 0; i < kRandFrames; ++i) {
          cursor = rng.Chance(0.8) ? (cursor + 1) % kNumFrames
                                   : rng.Below(kNumFrames);
          Die(ops.write(cursor * kFrameBytes, frame), "80/20 write");
        }
      },
      static_cast<uint64_t>(kRandFrames) * kFrameBytes);

  return results;
}

// Fills the benchmark file (setup, untimed relative to the table).
template <typename Fs>
uint32_t CreateBigFile(Fs& fs, const char* path) {
  uint32_t ino = DieOr(fs.Create(path), "create");
  auto mb = bench::Payload(1 << 20, kSeed + 1);
  for (uint64_t off = 0; off < static_cast<uint64_t>(kNumFrames) * kFrameBytes;
       off += mb.size()) {
    uint64_t take = std::min<uint64_t>(
        mb.size(), static_cast<uint64_t>(kNumFrames) * kFrameBytes - off);
    Die(fs.Write(ino, off, std::span<const uint8_t>(mb.data(), take)),
        "fill");
  }
  Die(fs.Sync(), "fill sync");
  return ino;
}

void PrintConfig(const std::string& title,
                 const std::vector<PhaseResult>& results) {
  bench::Title(title);
  bench::Table table(
      {"Phase", "paper time", "paper rate", "sim time", "sim rate"});
  for (const PhaseResult& r : results) {
    table.AddRow({r.name, r.paper_time, r.paper_rate,
                  bench::Seconds(r.elapsed), bench::KBps(r.bytes, r.elapsed)});
  }
  table.Print();
}

std::vector<PhaseResult> RunFfs() {
  SimClock clock;
  SimDisk disk("rz57", kDiskBlocks, Rz57Profile(), &clock);
  auto fs = DieOr(Ffs::Mkfs(&disk, &clock, FfsParams{}), "ffs mkfs");
  uint32_t ino = CreateBigFile(*fs, "/bigobject");
  FsOps ops;
  ops.write = [&](uint64_t off, std::span<const uint8_t> d) {
    return fs->Write(ino, off, d);
  };
  ops.read = [&](uint64_t off, std::span<uint8_t> o) {
    return fs->Read(ino, off, o);
  };
  ops.flush_cache = [&] { fs->FlushBufferCache(); };
  ops.sync = [&] { return fs->Sync(); };
  return RunPhases(ops, clock);
}

std::vector<PhaseResult> RunBaseLfs() {
  SimClock clock;
  SimDisk disk("rz57", kDiskBlocks, Rz57Profile(), &clock);
  LfsParams params;  // 1 MB segments.
  auto fs = DieOr(Lfs::Mkfs(&disk, &clock, params), "lfs mkfs");
  uint32_t ino = CreateBigFile(*fs, "/bigobject");
  FsOps ops;
  ops.write = [&](uint64_t off, std::span<const uint8_t> d) {
    return fs->Write(ino, off, d);
  };
  ops.read = [&](uint64_t off, std::span<uint8_t> o) {
    return fs->Read(ino, off, o);
  };
  ops.flush_cache = [&] { fs->FlushBufferCache(); };
  ops.sync = [&] { return fs->Sync(); };
  auto results = RunPhases(ops, clock);
  // Section 7.1 aside: HighLight's 4 KB summary blocks are almost always
  // partially empty.
  const Lfs::Stats& st = fs->stats();
  if (st.summary_blocks_written > 0) {
    bench::Note(bench::Fmt(
        "LFS summary-block fill: %.1f%% of the 4 KB summary block used "
        "on average (paper: \"almost always left partially empty\")",
        100.0 * static_cast<double>(st.summary_bytes_used) /
            (static_cast<double>(st.summary_blocks_written) * 4096.0)));
  }
  return results;
}

std::vector<PhaseResult> RunHighLight(bool migrate_to_cache,
                                      const char* label,
                                      bench::JsonReport& report) {
  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), kDiskBlocks});
  config.jukeboxes.push_back({Hp6300MoProfile(), false, 0});
  config.lfs.cache_max_segments = 120;  // Holds the whole 52-segment file.
  auto hl = DieOr(HighLightFs::Create(config, &clock), "highlight create");
  uint32_t ino = CreateBigFile(hl->fs(), "/bigobject");
  if (migrate_to_cache) {
    MigrationReport report = DieOr(hl->Migrate(MigrationRequest{.path = "/bigobject"}), "migrate");
    std::fprintf(stderr, "[%s] migrated %llu blocks in %u segments\n", label,
                 static_cast<unsigned long long>(report.blocks_migrated),
                 report.segments_completed);
    // Segments stay resident in the cache after copy-out: this is the
    // "in-cache" configuration.
  }
  FsOps ops;
  ops.write = [&](uint64_t off, std::span<const uint8_t> d) {
    return hl->fs().Write(ino, off, d);
  };
  ops.read = [&](uint64_t off, std::span<uint8_t> o) {
    return hl->fs().Read(ino, off, o);
  };
  ops.flush_cache = [&] { hl->fs().FlushBufferCache(); };
  ops.sync = [&] { return hl->fs().Sync(); };
  auto results = RunPhases(ops, clock);
  report.Snapshot(label, hl->Metrics());
  report.Timeline(label, hl->spans(), &hl->timeseries());
  return results;
}

void ReportPhases(bench::JsonReport& report, const std::string& prefix,
                  const std::vector<PhaseResult>& results) {
  for (const PhaseResult& r : results) {
    report.Value(prefix + "." + r.name + " KB/s",
                 bench::KBpsValue(r.bytes, r.elapsed));
  }
}

}  // namespace
}  // namespace hl

int main() {
  using namespace hl;
  std::printf("Table 2: large-object performance (Stonebraker-Olson), "
              "seed=0x%llX\n",
              static_cast<unsigned long long>(kSeed));
  bench::JsonReport report("table2_large_object");
  auto ffs = RunFfs();
  PrintConfig("FFS (read/write clustering)", ffs);
  ReportPhases(report, "ffs", ffs);
  auto lfs = RunBaseLfs();
  PrintConfig("Base 4.4BSD LFS", lfs);
  ReportPhases(report, "lfs", lfs);
  auto on_disk = RunHighLight(false, "on-disk", report);
  PrintConfig("HighLight, files on disk (not migrated)", on_disk);
  ReportPhases(report, "highlight_on_disk", on_disk);
  // Paper values for the HighLight columns differ slightly from base LFS;
  // shown in EXPERIMENTS.md. The key claim: on-disk and in-cache HighLight
  // track base LFS closely.
  auto in_cache = RunHighLight(true, "in-cache", report);
  PrintConfig("HighLight, migrated files resident in segment cache",
              in_cache);
  ReportPhases(report, "highlight_in_cache", in_cache);
  report.Write();
  return 0;
}

// ingest_migrate: the write side of the hierarchy, with no stager.
//
// One deployment ingests, overwrites and syncs files totalling several times
// its disk farm. Whenever fewer than 30% of the log segments are clean, an
// STP-ranked Migrate pass with a byte budget stages enough cold data to
// tertiary to reach 50%, and CleanUntil reclaims the vacated segments — the
// section 8.1 water-mark scheme. Re-reads go to a hot set of recently
// written files that fits the caches. This exercises segment-summary CRCs,
// write-behind copy-out and CRC stamping, the cleaner and the buffer cache:
// the same I/O-server and CRC layers recall_storm reads through.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "highlight/highlight.h"
#include "hlbench.h"
#include "lfs/fsck.h"
#include "seams.h"
#include "util/rng.h"

namespace hlbench {
namespace {

constexpr uint32_t kDiskBlocks = 6 * 1024;  // 24 MB disk farm.
constexpr uint32_t kSegBlocks = 64;
constexpr uint32_t kCacheLines = 16;
// Staging budget of one migration pass: half the cache, so the write-behind
// pipeline never needs more staging lines than the cache can pin.
constexpr uint32_t kPassSegments = kCacheLines / 2;
constexpr uint32_t kFiles = 64;
constexpr uint32_t kSteps = 1200;        // Generated file-call steps.
constexpr uint32_t kHotFiles = 6;        // Re-read set: fits the caches.
constexpr hl::SimTime kStepGap = 2 * hl::kUsPerSec;
constexpr double kLowWater = 0.30;       // Migrate below this clean share...
constexpr double kHighWater = 0.50;      // ...until this share is clean.

enum class OpKind { kCreate, kOverwrite, kRead, kSync };

struct FileState {
  uint32_t ino = 0;
  uint32_t bytes = 0;
  uint32_t version = 0;
};

uint64_t FileKey(uint64_t seed, uint32_t file, uint32_t version) {
  return Mix(Mix(seed, 0x1A9E57 + file), version);
}

// The seeded op stream. The mix is fixed — a sync every 25th step, a
// create every other step until all files exist, then two overwrites per
// re-read — and the seed picks the order: file sizes (64-192 KB, one of
// each size per seed, rotated), which file each overwrite hits (a shuffled
// deck, so every file is overwritten once per pass over the deck), and
// which of the most recently written files each re-read hits. So every
// seed writes about the same volume.
class OpGenerator {
 public:
  explicit OpGenerator(uint64_t seed)
      : rng_(Mix(seed, 0x0F5)),
        size_offset_(static_cast<uint32_t>(Mix(seed, 0x512E) % kFiles)) {}

  struct Op {
    OpKind kind = OpKind::kSync;
    uint32_t file = 0;
    uint32_t bytes = 0;  // kCreate: the new file's size.
  };

  bool Next(Op* op) {
    if (step_ == kSteps) {
      return false;
    }
    step_++;
    if (step_ % 25 == 0) {
      *op = Op{OpKind::kSync, 0, 0};
    } else if (created_ < kFiles && step_ % 2 == 1) {
      const uint32_t rank = (created_ + size_offset_) % kFiles;
      const uint32_t blocks = 16 + rank * 32 / (kFiles - 1);
      *op = Op{OpKind::kCreate, created_++, blocks * hl::kBlockSize};
      Touch(op->file);
    } else if (mixed_++ % 3 != 2) {
      if (deck_.empty()) {
        for (uint32_t f = 0; f < created_; ++f) {
          deck_.push_back(f);
        }
        for (size_t i = deck_.size(); i > 1; --i) {
          std::swap(deck_[i - 1], deck_[rng_.Below(i)]);
        }
      }
      *op = Op{OpKind::kOverwrite, deck_.back(), 0};
      deck_.pop_back();
      Touch(op->file);
    } else {
      *op = Op{OpKind::kRead, recent_[rng_.Below(recent_.size())], 0};
    }
    return true;
  }

 private:
  void Touch(uint32_t file) {
    std::erase(recent_, file);
    recent_.push_back(file);
    if (recent_.size() > kHotFiles) {
      recent_.erase(recent_.begin());
    }
  }

  hl::Rng rng_;
  uint32_t size_offset_;
  uint32_t step_ = 0;
  uint32_t created_ = 0;
  uint32_t mixed_ = 0;  // Non-sync, non-create steps so far.
  std::vector<uint32_t> deck_;    // Overwrite targets left in this pass.
  std::vector<uint32_t> recent_;  // Most recently written, oldest first.
};

}  // namespace

RunResult RunIngestMigrate(uint64_t seed, HostTrace* trace) {
  RunResult r;
  const auto setup_start = Clock::now();
  hl::SimClock clock;
  hl::MigratorOptions migrator;
  migrator.write_behind = true;
  hl::Result<hl::HighLightConfig> config =
      hl::HighLightConfig::Builder()
          .AddDisk(hl::Rz57Profile(), kDiskBlocks)
          .AddJukebox(hl::Hp6300MoProfile())
          .SegSizeBlocks(kSegBlocks)
          .CacheMaxSegments(kCacheLines)
          .MigratorDefaults(migrator)
          .TimeseriesCadence(0)
          .Build();
  if (!config.ok()) {
    r.Check(false, "setup: config: " + config.status().ToString());
    return r;
  }
  hl::Result<std::unique_ptr<hl::HighLightFs>> created =
      [&]() -> hl::Result<std::unique_ptr<hl::HighLightFs>> {
    Span span(trace, kHlCreate);
    return hl::HighLightFs::Create(*config, &clock);
  }();
  if (!created.ok()) {
    r.Check(false, "setup: create: " + created.status().ToString());
    return r;
  }
  std::unique_ptr<hl::HighLightFs> hl = std::move(created).value();
  TracedLfs fs(hl->fs(), trace);
  hl::StpPolicy stp;
  OpGenerator gen(seed);
  std::vector<FileState> files(kFiles);
  std::vector<uint8_t> buf;
  const hl::MetricsSnapshot before = hl->Metrics();
  r.setup_s = SecondsSince(setup_start);

  // --- Timed phase --------------------------------------------------------
  const auto run_start = Clock::now();
  const hl::SimTime epoch = clock.Now();
  hl::SimTime write_sim_us = 0;    // Inside Create/Write/Sync calls.
  hl::SimTime migrate_sim_us = 0;  // Inside Migrate + CleanUntil passes.
  uint64_t user_bytes = 0;
  uint64_t migrate_passes = 0;
  uint64_t bytes_migrated = 0;
  const uint32_t log_segments =
      hl->fs().NumSegments() - hl->fs().superblock().cache_max_segments;
  const uint64_t seg_bytes = hl->fs().superblock().SegByteSize();

  auto timed_write = [&](auto&& call) {
    const hl::SimTime t0 = clock.Now();
    hl::Status s = call();
    write_sim_us += clock.Now() - t0;
    return s;
  };
  auto maybe_migrate = [&] {
    const uint32_t clean = hl->fs().CleanSegmentCount();
    if (clean >= kLowWater * log_segments) {
      return;
    }
    const auto want_clean =
        static_cast<uint32_t>(kHighWater * log_segments);
    const hl::SimTime t0 = clock.Now();
    hl::MigrationRequest request;
    request.policy = &stp;
    request.bytes_target =
        uint64_t{std::min(want_clean - clean, kPassSegments)} * seg_bytes;
    hl::Result<hl::MigrationReport> report = [&] {
      Span span(trace, kHlMigrate);
      return hl->Migrate(request);
    }();
    migrate_passes++;
    if (r.Op(report.status())) {
      bytes_migrated += report->bytes_migrated;
    }
    Span span(trace, kHlClean);
    r.Op(hl->CleanUntil(want_clean).status());
    migrate_sim_us += clock.Now() - t0;
  };

  uint32_t step = 0;
  while (true) {
    OpGenerator::Op op;
    {
      Span span(trace, kWorkloadNext);
      if (!gen.Next(&op)) {
        break;
      }
    }
    const hl::SimTime due = epoch + hl::SimTime{step++} * kStepGap;
    if (due > clock.Now()) {
      clock.AdvanceTo(due);
    }
    FileState& f = files[op.file];
    switch (op.kind) {
      case OpKind::kCreate: {
        r.attempted++;
        const hl::SimTime t0 = clock.Now();
        hl::Result<uint32_t> ino = fs.Create("/d" + std::to_string(op.file));
        write_sim_us += clock.Now() - t0;
        if (!r.Op(ino.status())) {
          break;
        }
        f = FileState{*ino, op.bytes, 0};
        [[fallthrough]];
      }
      case OpKind::kOverwrite: {
        if (op.kind == OpKind::kOverwrite) {
          f.version++;
        }
        buf.resize(f.bytes);
        {
          Span span(trace, kWorkloadPayload, buf.size());
          FillPayload(buf, FileKey(seed, op.file, f.version));
        }
        r.attempted++;
        if (r.Op(timed_write([&] { return fs.Write(f.ino, 0, buf); }))) {
          user_bytes += f.bytes;
        }
        maybe_migrate();
        break;
      }
      case OpKind::kRead: {
        buf.resize(f.bytes);
        r.attempted++;
        hl::Result<size_t> n = fs.Read(f.ino, 0, buf);
        r.Op(n.status());
        break;
      }
      case OpKind::kSync:
        r.attempted++;
        r.Op(timed_write([&] { return fs.Sync(); }));
        break;
    }
  }
  r.attempted++;
  r.Op(timed_write([&] { return fs.Checkpoint(); }));
  r.run_s = SecondsSince(run_start);
  const hl::SimTime sim_elapsed = clock.Now() - epoch;

  // --- Simulated-time metrics ---------------------------------------------
  hl::MetricsSnapshot after;
  {
    Span span(trace, kHlMetrics);
    after = hl->Metrics();
  }
  auto delta = [&](std::string_view prefix, std::string_view suffix) {
    return static_cast<double>(SumMatching(after, prefix, suffix) -
                               SumMatching(before, prefix, suffix));
  };
  const double footprint_us = delta("phase.footprint_us", "");
  const double ioserver_us = delta("phase.ioserver_us", "");
  const double queuing_us = delta("phase.queuing_us", "");
  const double phase_us = footprint_us + ioserver_us + queuing_us;
  const double mb = 1024.0 * 1024.0;
  r.migrated_bytes = bytes_migrated;
  r.crc_bytes = CrcBytesOf(after, seg_bytes) - CrcBytesOf(before, seg_bytes);
  r.Sim("sim_write_mb_s",
        Ratio(static_cast<double>(user_bytes) / mb,
              static_cast<double>(write_sim_us) / hl::kUsPerSec),
        "MB/s");
  r.Sim("sim_migrate_mb_s",
        Ratio(static_cast<double>(bytes_migrated) / mb,
              static_cast<double>(migrate_sim_us) / hl::kUsPerSec),
        "MB/s");
  r.Sim("sim_elapsed_s", static_cast<double>(sim_elapsed) / hl::kUsPerSec,
        "s");
  r.Sim("workload.user_mb_written", static_cast<double>(user_bytes) / mb,
        "MB");
  r.Sim("highlight.migrate_passes", static_cast<double>(migrate_passes),
        "count");
  r.Sim("highlight.mb_migrated", static_cast<double>(bytes_migrated) / mb,
        "MB");
  r.Sim("highlight.io.copyout_p99_ms",
        PercentileMs(FindHist(after, "io.copyout_latency_us"), 0.99), "ms");
  r.Sim("highlight.io.stall_ms", delta("io.queue_stall_us", "") / 1000.0,
        "ms");
  r.Sim("highlight.migrator.phase_footprint_share",
        Ratio(footprint_us, phase_us), "ratio");
  r.Sim("highlight.migrator.phase_ioserver_share",
        Ratio(ioserver_us, phase_us), "ratio");
  r.Sim("highlight.migrator.phase_queuing_share", Ratio(queuing_us, phase_us),
        "ratio");
  r.Sim("lfs.write_amp",
        Ratio(delta("disk.", ".bytes_written"),
              static_cast<double>(user_bytes)),
        "ratio");
  r.Sim("lfs.cleaner.segments_cleaned", delta("cleaner.segments_cleaned", ""),
        "count");
  r.Sim("lfs.cleaner.live_ratio",
        Ratio(delta("cleaner.blocks_live", ""),
              delta("cleaner.blocks_examined", "")),
        "ratio");
  r.Sim("blockdev.busy_ratio",
        Ratio(delta("disk.", ".busy_us"), static_cast<double>(sim_elapsed)),
        "ratio");
  r.Sim("blockdev.seeks", delta("disk.", ".seeks"), "count");
  r.Sim("highlight.io.retries", delta("io.retries", ""), "count");
  r.FoldSimMetrics();
  r.FoldSnapshot("ingest", after);

  // --- Correctness gate ---------------------------------------------------
  bool readback_ok = true;
  std::vector<uint8_t> want;
  for (uint32_t i = 0; i < kFiles; ++i) {
    const FileState& f = files[i];
    if (f.bytes == 0) {
      continue;
    }
    want.resize(f.bytes);
    buf.resize(f.bytes);
    FillPayload(want, FileKey(seed, i, f.version));
    hl::Result<size_t> n = fs.Read(f.ino, 0, buf);
    if (!n.ok() || *n != f.bytes || buf != want) {
      readback_ok = false;
      r.failed++;
    }
  }
  r.Check(readback_ok, "every file reads back byte-equal");
  hl::FsckReport fsck = [&] {
    Span span(trace, kLfsFsck);
    return hl::CheckFs(hl->fs());
  }();
  r.Check(fsck.clean(), "CheckFs reports clean");
  r.Check(hl->spans().quiescent(), "engine span context is quiescent");
  return r;
}

}  // namespace hlbench

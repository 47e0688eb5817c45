// Reproduces Table 6: migrator throughput with and without disk-arm
// contention, for three staging-disk configurations:
//   RZ57 only            (staging cache shares the one spindle)
//   RZ57 + RZ58          (staging cache on a second, faster spindle)
//   RZ57 + HP7958A       (staging cache on a slow HP-IB disk)
//
// Phases, as in section 7.3:
//  * "arm contention": the migrator gathers blocks and assembles staging
//    segments while the I/O server copies completed segments to the MO
//    jukebox — every segment interleaves gather reads, staging writes,
//    copy-out reads and the tertiary write (immediate copy-out mode);
//  * "no arm contention": the migrator has finished; only the I/O server
//    touches the disk, draining pre-staged segments (delayed copy-out).
// Overall combines the two, as the paper's single run did.

#include "bench/bench_util.h"
#include "highlight/highlight.h"
#include "lfs/fsck.h"

namespace hl {
namespace {

using bench::Die;
using bench::DieOr;

constexpr uint64_t kSeed = 0x7AB7E6;
constexpr size_t kFileBytes = 12500ull * 4096;  // 51.2 MB.

struct ConfigResult {
  double contention_kbps = 0;
  double no_contention_kbps = 0;
  double overall_kbps = 0;
};

std::unique_ptr<HighLightFs> Build(SimClock& clock,
                                   const std::optional<DiskProfile>& staging) {
  HighLightConfig config;
  if (staging.has_value()) {
    // Primary data disk + dedicated staging spindle. Cache-eligible
    // segments occupy the top of the address space = the second disk.
    config.disks.push_back({Rz57Profile(), 768 * 256});
    uint32_t staging_blocks = 160 * 256;  // 160 MB staging area.
    config.disks.push_back({*staging, staging_blocks});
    config.lfs.cache_max_segments = 150;
  } else {
    config.disks.push_back({Rz57Profile(), 848 * 256});
    config.lfs.cache_max_segments = 120;
  }
  config.jukeboxes.push_back({Hp6300MoProfile(), false, 0});
  config.shared_bus = true;  // The testbed's disks and MO shared one bus.
  return DieOr(HighLightFs::Create(config, &clock), "create");
}

uint32_t FillFile(HighLightFs& hl, const char* path) {
  uint32_t ino = DieOr(hl.fs().Create(path), "create");
  auto mb = bench::Payload(1 << 20, kSeed);
  for (size_t off = 0; off < kFileBytes; off += mb.size()) {
    size_t take = std::min(mb.size(), kFileBytes - off);
    Die(hl.fs().Write(ino, off, std::span<const uint8_t>(mb.data(), take)),
        "fill");
  }
  Die(hl.fs().Sync(), "sync");
  return ino;
}

ConfigResult RunConfig(const std::optional<DiskProfile>& staging,
                       bench::JsonReport& report, const std::string& label) {
  ConfigResult result;

  // Contention phase: immediate copy-out interleaves the migrator's disk
  // work with the I/O server's, segment by segment.
  {
    SimClock clock;
    auto hl = Build(clock, staging);
    FillFile(*hl, "/bigobject");
    SimTime t0 = clock.Now();
    MigrationReport mr = DieOr(hl->Migrate(MigrationRequest{.path = "/bigobject"}), "migrate");
    result.contention_kbps =
        bench::KBpsValue(mr.bytes_migrated, clock.Now() - t0);
    report.Snapshot(label + "_contention", hl->Metrics());
    report.Timeline(label + "_contention", hl->spans(), &hl->timeseries());
  }

  // No-contention phase: stage everything first (delayed copy-out), then
  // time the drain alone.
  SimTime stage_elapsed = 0;
  {
    SimClock clock;
    auto hl = Build(clock, staging);
    uint32_t ino = FillFile(*hl, "/bigobject");
    MigratorOptions delayed;
    delayed.delayed_copyout = true;
    SimTime t0 = clock.Now();
    MigrationReport mr =
        DieOr(hl->Internals().migrator.MigrateFiles({ino}, delayed), "stage");
    stage_elapsed = clock.Now() - t0;
    SimTime t1 = clock.Now();
    Die(hl->Internals().migrator.FlushStaging(), "drain");
    SimTime drain = clock.Now() - t1;
    result.no_contention_kbps =
        bench::KBpsValue(mr.bytes_migrated, drain);
    result.overall_kbps =
        bench::KBpsValue(mr.bytes_migrated, stage_elapsed + drain);
    report.Snapshot(label + "_no_contention", hl->Metrics());
    report.Timeline(label + "_no_contention", hl->spans(), &hl->timeseries());
  }
  return result;
}

// Write-behind variant: same RZ57+RZ58 staging configuration, but the
// migrator queues copy-outs on the I/O server pipeline instead of blocking
// on each tertiary write. Run on dedicated buses so the overlap the pipeline
// buys (staging the next segment while the jukebox writes the previous one)
// is visible rather than serialized by the shared SCSI bus.
struct ModeResult {
  double kbps = 0;
  double elapsed_s = 0;
  uint64_t media_swaps = 0;
  uint64_t backpressure_stalls = 0;
  bool fsck_clean = false;
};

ModeResult RunMode(bool write_behind, bench::JsonReport& report) {
  ModeResult result;
  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 768 * 256});
  config.disks.push_back({Rz58Profile(), 160 * 256});
  config.lfs.cache_max_segments = 150;
  config.jukeboxes.push_back({Hp6300MoProfile(), false, 0});
  config.migrator.write_behind = write_behind;
  auto hl = DieOr(HighLightFs::Create(config, &clock), "create");
  uint32_t ino = FillFile(*hl, "/bigobject");
  (void)ino;
  SimTime t0 = clock.Now();
  MigrationReport mr = DieOr(hl->Migrate(MigrationRequest{.path = "/bigobject"}), "migrate");
  Die(hl->Internals().migrator.FlushStaging(), "flush");
  SimTime elapsed = clock.Now() - t0;
  result.kbps = bench::KBpsValue(mr.bytes_migrated, elapsed);
  result.elapsed_s = static_cast<double>(elapsed) / 1e6;
  result.media_swaps = hl->Internals().footprint.TotalMediaSwaps();
  result.backpressure_stalls = hl->Internals().io_server.stats().backpressure_stalls;
  result.fsck_clean = CheckFs(hl->fs()).clean();
  const std::string mode = write_behind ? "write_behind" : "synchronous";
  report.Snapshot(mode, hl->Metrics());
  report.Timeline(mode, hl->spans(), &hl->timeseries());
  return result;
}

}  // namespace
}  // namespace hl

int main() {
  using namespace hl;
  bench::Title("Table 6: migrator throughput (KB/s) by staging configuration");
  bench::Note("contention = immediate copy-out interleaved with staging; "
              "no contention = I/O server drains pre-staged segments alone");

  struct Row {
    const char* name;
    std::optional<DiskProfile> staging;
    const char* paper_contention;
    const char* paper_no_contention;
    const char* paper_overall;
  };
  const Row rows[] = {
      {"RZ57", std::nullopt, "111", "192", "135"},
      {"RZ57+RZ58", Rz58Profile(), "127", "202", "149"},
      {"RZ57+HP7958A", Hp7958aProfile(), "46.8", "145", "99"},
  };

  bench::JsonReport report("table6_migrator_throughput");
  bench::Table table({"Staging disks", "phase", "paper KB/s", "sim KB/s"});
  for (const Row& row : rows) {
    ConfigResult r = RunConfig(row.staging, report, row.name);
    report.Value(std::string(row.name) + ".contention_kbps",
                 r.contention_kbps);
    report.Value(std::string(row.name) + ".no_contention_kbps",
                 r.no_contention_kbps);
    report.Value(std::string(row.name) + ".overall_kbps", r.overall_kbps);
    table.AddRow({row.name, "arm contention", row.paper_contention,
                  bench::Fmt("%.0f", r.contention_kbps)});
    table.AddRow({row.name, "no contention", row.paper_no_contention,
                  bench::Fmt("%.0f", r.no_contention_kbps)});
    table.AddRow({row.name, "overall", row.paper_overall,
                  bench::Fmt("%.0f", r.overall_kbps)});
  }
  table.Print();

  bench::Title("Write-behind pipeline vs synchronous copy-out (RZ57+RZ58)");
  bench::Note("immediate migration of one 51.2 MB object, dedicated buses; "
              "write-behind queues copy-outs on the I/O server and drains "
              "them with FlushStaging()");
  bench::Table wb({"mode", "sim KB/s", "elapsed", "swaps", "stalls", "fsck"});
  for (bool mode : {false, true}) {
    ModeResult r = RunMode(mode, report);
    report.Value(std::string(mode ? "write_behind" : "synchronous") +
                     "_kbps",
                 r.kbps);
    wb.AddRow({mode ? "write-behind" : "synchronous",
               bench::Fmt("%.0f", r.kbps), bench::Fmt("%.1f s", r.elapsed_s),
               std::to_string(r.media_swaps),
               std::to_string(r.backpressure_stalls),
               r.fsck_clean ? "clean" : "DIRTY"});
  }
  wb.Print();
  report.Write();
  return 0;
}

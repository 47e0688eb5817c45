// Reproduces Table 4: the time breakdown of the I/O server / migrator path
// while the 51.2 MB large-object file migrates entirely to the MO jukebox.
//
// Buckets follow the paper: "Footprint write" (tertiary transfers), "I/O
// server read" (all migration-path disk work: gathering blocks, writing
// staging segments, reading them back for copy-out, plus memory copies) and
// "Migrator queuing" (request handling).

#include "bench/bench_util.h"
#include "highlight/highlight.h"

namespace hl {
namespace {

using bench::Die;
using bench::DieOr;

constexpr uint64_t kSeed = 0x4B4EAD;
constexpr uint32_t kDiskBlocks = 848 * 256;
constexpr size_t kFileBytes = 12500ull * 4096;  // 51.2 MB.

}  // namespace
}  // namespace hl

int main() {
  using namespace hl;
  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), kDiskBlocks});
  config.jukeboxes.push_back({Hp6300MoProfile(), false, 0});
  config.lfs.cache_max_segments = 120;
  auto hl = DieOr(HighLightFs::Create(config, &clock), "create");

  uint32_t ino = DieOr(hl->fs().Create("/bigobject"), "create file");
  auto mb = bench::Payload(1 << 20, kSeed);
  for (size_t off = 0; off < kFileBytes; off += mb.size()) {
    size_t take = std::min(mb.size(), kFileBytes - off);
    Die(hl->fs().Write(ino, off, std::span<const uint8_t>(mb.data(), take)),
        "fill");
  }
  Die(hl->fs().Sync(), "sync");

  // Reset attribution so only the migration run is measured.
  hl->Internals().io_server.phases().Reset();
  SimTime t0 = clock.Now();
  MigrationReport report = DieOr(hl->Migrate(MigrationRequest{.path = "/bigobject"}), "migrate");
  SimTime elapsed = clock.Now() - t0;

  bench::Title("Table 4: I/O server / migrator time breakdown (51.2 MB "
               "migration to MO)");
  PhaseAccumulator& phases = hl->Internals().io_server.phases();
  bench::Table table({"Phase", "paper", "simulated"});
  table.AddRow({"Footprint write", "62%",
                bench::Fmt("%.0f%%", phases.Percent("footprint"))});
  table.AddRow({"I/O server read", "37%",
                bench::Fmt("%.0f%%", phases.Percent("ioserver"))});
  table.AddRow({"Migrator queuing", "1%",
                bench::Fmt("%.0f%%", phases.Percent("queuing"))});
  table.Print();

  bench::Note(bench::Fmt("migration elapsed: %.1f s",
                         static_cast<double>(elapsed) / kUsPerSec));
  bench::Note(bench::KBps(report.bytes_migrated, elapsed) +
              " overall migration throughput (cf. Table 6 overall)");
  bench::Note(bench::Fmt("segments completed: %.0f",
                         static_cast<double>(report.segments_completed)));

  bench::JsonReport json("table4_migration_breakdown");
  json.Value("footprint_percent", phases.Percent("footprint"));
  json.Value("ioserver_percent", phases.Percent("ioserver"));
  json.Value("queuing_percent", phases.Percent("queuing"));
  json.Value("elapsed_s", static_cast<double>(elapsed) / kUsPerSec);
  json.Value("migration_kbps",
             bench::KBpsValue(report.bytes_migrated, elapsed));
  json.Value("segments_completed", uint64_t{report.segments_completed});
  json.Snapshot("migration", hl->Metrics());
  json.Timeline("migration", hl->spans(), &hl->timeseries());
  json.Write();
  return 0;
}

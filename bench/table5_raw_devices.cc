// Reproduces Table 5: raw device measurements.
//
// Sequential 1 MB transfers against each simulated device, plus the media
// change measured from an eject command to a completed read of one sector on
// the fresh MO platter.

#include "bench/bench_util.h"
#include "blockdev/sim_disk.h"
#include "sim/device_profile.h"
#include "tertiary/jukebox.h"

namespace hl {
namespace {

using bench::DieOr;
using bench::Die;

// Sequential 1 MB transfers, as the paper's dd-style measurement.
double RawDiskRate(const DiskProfile& profile, bool is_write,
                   MetricsRegistry* registry) {
  SimClock clock;
  SimDisk disk(profile.name, 64 * 1024, profile, &clock);  // 256 MB.
  disk.AttachMetrics(registry);
  const uint32_t kMb = 256;  // Blocks per MB.
  std::vector<uint8_t> buf(1 << 20, 0xAB);
  SimTime t0 = clock.Now();
  uint64_t total = 0;
  for (uint32_t mb = 0; mb < 64; ++mb) {
    if (is_write) {
      Die(disk.WriteBlocks(mb * kMb, kMb, buf), "raw write");
    } else {
      Die(disk.ReadBlocks(mb * kMb, kMb, buf), "raw read");
    }
    total += buf.size();
  }
  return bench::KBpsValue(total, clock.Now() - t0);
}

double RawMoRate(bool is_write, MetricsRegistry* registry) {
  SimClock clock;
  Jukebox jukebox(Hp6300MoProfile(), &clock);
  jukebox.AttachMetrics(registry);
  std::vector<uint8_t> buf(1 << 20, 0xCD);
  // Prime the drive so the swap is not measured (the paper measured steady
  // transfers).
  Die(jukebox.Write(0, 0, buf), "prime");
  SimTime t0 = clock.Now();
  uint64_t total = 0;
  for (uint32_t mb = 1; mb < 33; ++mb) {
    if (is_write) {
      Die(jukebox.Write(0, mb << 20, buf), "mo write");
    } else {
      Die(jukebox.Read(0, mb << 20, buf), "mo read");
    }
    total += buf.size();
  }
  return bench::KBpsValue(total, clock.Now() - t0);
}

// Eject-to-first-sector-read on the HP 6300.
double VolumeChangeSeconds() {
  SimClock clock;
  Jukebox jukebox(Hp6300MoProfile(), &clock);
  std::vector<uint8_t> sector(4096);
  Die(jukebox.Read(0, 0, sector), "mount first volume");
  // Swap: read volume 1 into the same (read) drive pool.
  SimTime t0 = clock.Now();
  Die(jukebox.Read(2, 0, sector), "swap + read");
  // Drive 1 held volume... force a second swap through the same drive.
  SimTime elapsed = clock.Now() - t0;
  return static_cast<double>(elapsed) / kUsPerSec;
}

}  // namespace
}  // namespace hl

int main() {
  using namespace hl;
  bench::Title("Table 5: raw device measurements");
  bench::Note("sequential 1 MB transfers; media change = eject -> first "
              "sector readable");

  MetricsRegistry registry;
  bench::JsonReport report("table5_raw_devices");
  bench::Table table({"I/O type", "paper", "simulated"});
  struct DiskRow {
    const char* name;
    DiskProfile profile;
    bool is_write;
    const char* paper;
  };
  const DiskRow rows[] = {
      {"Raw MO read", {}, false, "451 KB/s"},
      {"Raw MO write", {}, true, "204 KB/s"},
      {"Raw RZ57 read", Rz57Profile(), false, "1417 KB/s"},
      {"Raw RZ57 write", Rz57Profile(), true, "993 KB/s"},
      {"Raw RZ58 read", Rz58Profile(), false, "1491 KB/s"},
      {"Raw RZ58 write", Rz58Profile(), true, "1261 KB/s"},
  };
  for (const DiskRow& row : rows) {
    double rate;
    if (row.profile.name.empty()) {
      rate = RawMoRate(row.is_write, &registry);
    } else {
      rate = RawDiskRate(row.profile, row.is_write, &registry);
    }
    table.AddRow({row.name, row.paper, bench::Fmt("%.0f KB/s", rate)});
    report.Value(std::string(row.name) + " KB/s", rate);
  }
  double volume_change_s = VolumeChangeSeconds();
  table.AddRow({"Volume change", "13.5 s",
                bench::Fmt("%.1f s", volume_change_s)});
  table.Print();
  report.Value("volume_change_s", volume_change_s);

  bench::Note("(HP7958A staging disk used in Table 6 — not in the paper's "
              "Table 5)");
  bench::Table extra({"I/O type", "simulated"});
  extra.AddRow({"Raw HP7958A read",
                bench::Fmt("%.0f KB/s",
                           RawDiskRate(Hp7958aProfile(), false, &registry))});
  extra.AddRow({"Raw HP7958A write",
                bench::Fmt("%.0f KB/s",
                           RawDiskRate(Hp7958aProfile(), true, &registry))});
  extra.Print();
  report.Snapshot("devices", registry.Snapshot());
  report.Write();
  return 0;
}

// Database scenario (sections 5.2 and 8.1): a POSTGRES-style no-overwrite
// relation stored in one large file, accessed randomly and incompletely by
// queries. Whole-file migration would be wrong — the hot tail must stay on
// disk while dormant tuples migrate. This is HighLight's block-range
// (partial-file) migration, the capability UniTree-style whole-file systems
// lack.
//
// Run: ./build/examples/db_random_access

#include <cstdio>
#include <string>

#include "highlight/highlight.h"
#include "util/rng.h"

using namespace hl;

namespace {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Check(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

}  // namespace

int main() {
  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 256 * 256});
  config.jukeboxes.push_back({Hp6300MoProfile(), false, 0});
  config.lfs.cache_max_segments = 24;
  auto hl = Check(HighLightFs::Create(config, &clock), "create");

  // The relation: 32 MB = 8192 4 KB pages, appended over time (no
  // overwrite). Pages 0..7679 are historical; the last 512 are hot.
  const uint32_t kPages = 8192;
  const uint32_t kHotPages = 512;
  Check(hl->fs().Mkdir("/pgdata").status(), "mkdir");
  uint32_t rel = Check(hl->fs().Create("/pgdata/rel.heap"), "create relation");
  std::vector<uint8_t> page(4096);
  Rng fill(0xDB);
  for (uint32_t p = 0; p < kPages; ++p) {
    for (auto& b : page) {
      b = static_cast<uint8_t>(fill.Next());
    }
    Check(hl->fs().Write(rel, static_cast<uint64_t>(p) * 4096, page),
          "append page");
  }
  Check(hl->fs().Sync(), "sync");
  std::printf("relation loaded: %u pages (%.0f MB)\n", kPages,
              kPages * 4096.0 / (1 << 20));

  // Dormant tuples age out: migrate the cold prefix, block range [0, 7680).
  clock.Advance(30ull * 24 * 3600 * kUsPerSec);
  std::vector<uint32_t> cold_range;
  for (uint32_t p = 0; p < kPages - kHotPages; ++p) {
    cold_range.push_back(p);
  }
  MigratorOptions opts;
  MigrationReport report =
      Check(hl->Internals().migrator.MigrateBlocks({{rel, cold_range}}, opts),
            "migrate range");
  std::printf("block-range migration: %llu cold pages to tertiary, hot tail "
              "of %u pages stays on disk\n",
              static_cast<unsigned long long>(report.blocks_migrated),
              kHotPages);
  Check(hl->DropCleanCacheLines(), "drop cache");

  // OLTP on the hot tail: must never touch the robot.
  Rng oltp(0x0175);
  uint64_t swaps_before = hl->Internals().footprint.TotalMediaSwaps();
  SimTime t0 = clock.Now();
  for (int q = 0; q < 500; ++q) {
    uint32_t p = kPages - kHotPages +
                 static_cast<uint32_t>(oltp.Below(kHotPages));
    Check(hl->fs().Read(rel, static_cast<uint64_t>(p) * 4096, page).status(),
          "hot query");
  }
  std::printf("500 hot-tail queries: %.2f s, tertiary touched: %s\n",
              static_cast<double>(clock.Now() - t0) / kUsPerSec,
              hl->Internals().footprint.TotalMediaSwaps() == swaps_before ? "no"
                                                                : "YES (bug)");

  // A historical analytic query scans a cold range: demand fetches occur,
  // but each fetched segment serves ~256 nearby pages at disk speed.
  t0 = clock.Now();
  for (uint32_t p = 1000; p < 1512; ++p) {
    Check(hl->fs().Read(rel, static_cast<uint64_t>(p) * 4096, page).status(),
          "cold scan");
  }
  std::printf("512-page historical scan: %.1f s, demand fetches: %llu "
              "(segment-as-cache-line amortization)\n",
              static_cast<double>(clock.Now() - t0) / kUsPerSec,
              static_cast<unsigned long long>(
                  hl->Internals().service.stats().demand_fetches));

  // Point queries over the whole history: each may fault one segment.
  t0 = clock.Now();
  int faults_before = static_cast<int>(hl->Internals().block_map.stats().demand_faults);
  for (int q = 0; q < 50; ++q) {
    uint32_t p = static_cast<uint32_t>(oltp.Below(kPages - kHotPages));
    Check(hl->fs().Read(rel, static_cast<uint64_t>(p) * 4096, page).status(),
          "point query");
  }
  std::printf("50 random historical point queries: %.1f s, new faults: %d\n",
              static_cast<double>(clock.Now() - t0) / kUsPerSec,
              static_cast<int>(hl->Internals().block_map.stats().demand_faults) -
                  faults_before);
  return 0;
}

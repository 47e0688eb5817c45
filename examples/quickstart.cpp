// Quickstart: build a HighLight file system over a simulated disk farm and
// MO jukebox, write files, let the migrator move cold data to tertiary
// storage, and read everything back transparently.
//
// The region between the "README quickstart" markers is, minus its
// indentation, the README's "Quickstart (API)" block verbatim; the
// docs_test ctest fails when the two differ.
//
// Run: ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "highlight/highlight.h"

using namespace hl;

namespace {

// Exits with a message on a non-OK status; unwraps a Result.
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
  // [README quickstart begin]
  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 256 * 256});         // 256 MB disk.
  config.jukeboxes.push_back({Hp6300MoProfile(), false, 0});  // MO jukebox.
  config.lfs.cache_max_segments = 16;  // 16 MB of segment cache.
  auto hl = Check(HighLightFs::Create(config, &clock), "create");

  // Plain file-system calls; the hierarchy is invisible.
  Check(hl->fs().Mkdir("/data").status(), "mkdir");
  uint32_t ino = Check(hl->fs().Create("/data/results.bin"), "create");
  std::vector<uint8_t> payload(3 << 20);  // 3 MB of results.
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31);
  }
  Check(hl->fs().Write(ino, 0, payload), "write");
  Check(hl->fs().Sync(), "sync");

  // A day later the migration policy runs at user level (space-time
  // product, section 5.1) and sends the cold file to tertiary storage.
  clock.Advance(24 * 3600 * kUsPerSec);
  StpPolicy stp;
  MigrationReport report =
      Check(hl->Migrate(MigrationRequest{.policy = &stp}), "migrate");

  // Reading migrated data demand-fetches whole 1 MB segments into the cache.
  Check(hl->DropCleanCacheLines(), "drop cache");
  std::vector<uint8_t> out(payload.size());
  SimTime t0 = clock.Now();
  size_t n = Check(hl->fs().Read(ino, 0, out), "read");
  // [README quickstart end]

  std::printf("HighLight up: %u disk segments, %u tertiary segments on %u "
              "volumes\n",
              hl->fs().NumSegments(), hl->Internals().address_map.tertiary_nsegs(),
              hl->Internals().address_map.num_volumes());
  std::printf("migrated %u file(s), %llu blocks, %u tertiary segment(s)\n",
              report.files_migrated,
              static_cast<unsigned long long>(report.blocks_migrated),
              report.segments_completed);
  std::printf("re-read %zu bytes from tertiary in %.2f s "
              "(demand fetches: %llu, media swaps: %llu)\n",
              n, static_cast<double>(clock.Now() - t0) / kUsPerSec,
              static_cast<unsigned long long>(
                  hl->Internals().service.stats().demand_fetches),
              static_cast<unsigned long long>(
                  hl->Internals().footprint.TotalMediaSwaps()));
  if (out != payload) {
    std::fprintf(stderr, "DATA MISMATCH\n");
    return 1;
  }
  std::printf("contents verified — the hierarchy is invisible to the "
              "application.\n");
  return 0;
}

// Ablation bench for the policy design space of section 5:
//
//  A. Migration ranking — STP (age*size) vs age-only vs size-only, scored by
//     how much demand-fetch traffic the choice later causes on a skewed
//     re-reference workload (section 5.1).
//  B. Cache replacement — LRU vs random vs FIFO vs the "least-worthy first
//     touch" MRU-hybrid of section 10, scored by segment-cache hit rate on a
//     Zipf-ish segment reference stream (section 5.4).
//  C. Fresh tertiary writes — immediate vs delayed copy-out (section 5.4
//     "Writing fresh tertiary segments"): total time and the reserved disk
//     the delayed pipeline holds.
//  D. Prefetch — namespace-unit prefetch on a multi-segment unit vs none
//     (section 5.3): demand faults and elapsed read time.
//  E. Granularity — whole-file vs block-range migration of a DB relation
//     with a hot tail (section 5.2).
//
// Every table cell is also written to BENCH_ablation_policies.json, pinned
// to bench/baselines/ablation_policies.json by scripts/check.sh.

#include "bench/bench_util.h"
#include "highlight/highlight.h"

namespace hl {
namespace {

using bench::Die;
using bench::DieOr;

constexpr uint64_t kSeed = 0xAB1A7E;

std::unique_ptr<HighLightFs> Build(SimClock& clock,
                                   CacheReplacement replacement,
                                   uint32_t cache_segments) {
  HighLightConfig config = DieOr(HighLightConfig::Builder()
                                     .AddDisk(Rz57Profile(), 512 * 256)
                                     .AddJukebox(Hp6300MoProfile())
                                     .CacheMaxSegments(cache_segments)
                                     .CacheReplacementPolicy(replacement)
                                     .Build(),
                                 "config");
  return DieOr(HighLightFs::Create(config, &clock), "create");
}

// --- A: migration ranking ----------------------------------------------------

void RankingAblation(bench::JsonReport& json) {
  bench::Title("Ablation A: migration ranking policy (STP vs age vs size)");
  bench::Note("population: 40 files, sizes 64KB-2MB, skewed access; after "
              "migrating ~24 MB, a re-reference trace hits recently-used "
              "files 90% of the time");

  bench::Table table(
      {"Policy", "demand fetches", "trace time", "bytes fetched"});
  for (const char* policy_name : {"stp", "age", "size"}) {
    SimClock clock;
    auto hl = Build(clock, CacheReplacement::kLru, 16);
    Rng rng(kSeed);
    // Build the population; files age differently.
    std::vector<std::string> paths;
    std::vector<size_t> sizes;
    for (int i = 0; i < 40; ++i) {
      std::string path = "/f" + std::to_string(i);
      size_t bytes = (64 + rng.Below(1984)) * 1024;
      uint32_t ino = DieOr(hl->fs().Create(path), "create");
      Die(hl->fs().Write(ino, 0, bench::Payload(bytes, kSeed + i)), "write");
      paths.push_back(path);
      sizes.push_back(bytes);
      clock.Advance(60 * kUsPerSec);  // Staggered creation times.
    }
    Die(hl->fs().Sync(), "sync");
    // Recent activity: the last 10 files are re-read (hot set).
    for (int i = 30; i < 40; ++i) {
      uint32_t ino = DieOr(hl->fs().LookupPath(paths[i]), "lookup");
      std::vector<uint8_t> buf(4096);
      DieOr(hl->fs().Read(ino, 0, buf), "touch");
      clock.Advance(kUsPerSec);
    }
    clock.Advance(3600 * kUsPerSec);

    std::unique_ptr<MigrationPolicy> policy;
    if (std::string(policy_name) == "stp") {
      policy = std::make_unique<StpPolicy>();
    } else if (std::string(policy_name) == "age") {
      policy = std::make_unique<AgePolicy>();
    } else {
      policy = std::make_unique<SizePolicy>();
    }
    DieOr(hl->Migrate(MigrationRequest{.policy = policy.get(), .bytes_target = 24ull << 20}), "migrate");
    Die(hl->DropCleanCacheLines(), "drop");

    // Re-reference trace: 90% hot files, 10% uniform.
    uint64_t fetches_before = hl->Internals().service.stats().demand_fetches;
    SimTime t0 = clock.Now();
    Rng trace(kSeed + 99);
    std::vector<uint8_t> buf(64 * 1024);
    for (int i = 0; i < 200; ++i) {
      size_t index = trace.Chance(0.9) ? 30 + trace.Below(10)
                                       : trace.Below(paths.size());
      uint32_t ino = DieOr(hl->fs().LookupPath(paths[index]), "lookup");
      DieOr(hl->fs().Read(ino, 0, buf), "trace read");
    }
    uint64_t fetches = hl->Internals().service.stats().demand_fetches - fetches_before;
    const std::string key = std::string("ranking.") + policy_name + ".";
    json.Value(key + "demand_fetches", fetches);
    json.Value(key + "trace_us", clock.Now() - t0);
    json.Value(key + "bytes_fetched",
               hl->Internals().io_server.stats().bytes_fetched.value());
    table.AddRow({policy_name, bench::Fmt("%.0f", static_cast<double>(fetches)),
                  bench::Seconds(clock.Now() - t0),
                  bench::Fmt("%.1f MB",
                             static_cast<double>(
                                 hl->Internals().io_server.stats().bytes_fetched) /
                                 (1 << 20))});
  }
  table.Print();
  bench::Note("lower is better: STP should avoid migrating the hot set "
              "(the literature's claim the paper adopts)");
}

// --- B: cache replacement ------------------------------------------------------

void ReplacementAblation(bench::JsonReport& json) {
  bench::Title("Ablation B: segment-cache replacement policy");
  bench::Note("64 tertiary segments re-referenced with skewed popularity "
              "through an 8-line cache");

  bench::Table table({"Policy", "hit rate", "evictions", "elapsed"});
  struct Named {
    const char* name;
    CacheReplacement policy;
  };
  for (const Named& n :
       {Named{"LRU", CacheReplacement::kLru},
        Named{"random", CacheReplacement::kRandom},
        Named{"FIFO", CacheReplacement::kFifo},
        Named{"least-worthy", CacheReplacement::kLeastWorthyFirstTouch}}) {
    SimClock clock;
    auto hl = Build(clock, n.policy, 8);
    // One big cold file spanning ~64 segments.
    uint32_t ino = DieOr(hl->fs().Create("/big"), "create");
    const size_t kBytes = 60ull << 20;
    auto mb = bench::Payload(1 << 20, kSeed);
    for (size_t off = 0; off < kBytes; off += mb.size()) {
      Die(hl->fs().Write(ino, off, mb), "write");
    }
    MigratorOptions data_only;
    data_only.migrate_inode = false;
    data_only.migrate_metadata = false;
    DieOr(hl->Internals().migrator.MigrateFiles({ino}, data_only), "migrate");
    Die(hl->DropCleanCacheLines(), "drop");

    // Skewed re-references: 80% of reads within a 6-segment hot window.
    Rng trace(kSeed + 7);
    std::vector<uint8_t> buf(4096);
    SimTime t0 = clock.Now();
    for (int i = 0; i < 600; ++i) {
      uint64_t seg = trace.Chance(0.8) ? trace.Below(6) : trace.Below(60);
      uint64_t off = seg * (1 << 20) + trace.Below(200) * 4096;
      DieOr(hl->fs().Read(ino, off, buf), "read");
    }
    const SegmentCache::Stats st = hl->Internals().cache.Snapshot();
    double hit_rate =
        static_cast<double>(st.hits) /
        static_cast<double>(st.hits + st.misses ? st.hits + st.misses : 1);
    const std::string key = std::string("replacement.") + n.name + ".";
    json.Value(key + "hit_pct", 100.0 * hit_rate);
    json.Value(key + "evictions", st.evictions);
    json.Value(key + "elapsed_us", clock.Now() - t0);
    table.AddRow({n.name, bench::Fmt("%.1f%%", 100.0 * hit_rate),
                  bench::Fmt("%.0f", static_cast<double>(st.evictions)),
                  bench::Seconds(clock.Now() - t0)});
  }
  table.Print();
}

// --- C: immediate vs delayed tertiary writes ------------------------------------

void DelayedWriteAblation(bench::JsonReport& json) {
  bench::Title("Ablation C: immediate vs delayed tertiary writes "
               "(section 5.4)");
  bench::Table table({"Mode", "stage+copy time", "peak pending segs",
                      "MO throughput"});
  for (bool delayed : {false, true}) {
    SimClock clock;
    auto hl = Build(clock, CacheReplacement::kLru, 40);
    uint32_t ino = DieOr(hl->fs().Create("/big"), "create");
    const size_t kBytes = 24ull << 20;
    auto mb = bench::Payload(1 << 20, kSeed);
    for (size_t off = 0; off < kBytes; off += mb.size()) {
      Die(hl->fs().Write(ino, off, mb), "write");
    }
    Die(hl->fs().Sync(), "sync");
    MigratorOptions opts;
    opts.delayed_copyout = delayed;
    SimTime t0 = clock.Now();
    MigrationReport report =
        DieOr(hl->Internals().migrator.MigrateFiles({ino}, opts), "migrate");
    uint32_t peak_pending = hl->Internals().migrator.PendingSegments();
    Die(hl->Internals().migrator.FlushStaging(), "flush");
    SimTime elapsed = clock.Now() - t0;
    const std::string key =
        std::string("copyout.") + (delayed ? "delayed" : "immediate") + ".";
    json.Value(key + "elapsed_us", elapsed);
    json.Value(key + "peak_pending_segs", uint64_t{peak_pending});
    json.Value(key + "kb_per_s",
               bench::KBpsValue(report.bytes_migrated, elapsed));
    table.AddRow({delayed ? "delayed" : "immediate", bench::Seconds(elapsed),
                  bench::Fmt("%.0f", static_cast<double>(peak_pending)),
                  bench::KBps(report.bytes_migrated, elapsed)});
  }
  table.Print();
  bench::Note("delayed copy-out removes the staging/copy-out arm "
              "interleave at the cost of pinned cache lines");
}

// --- D: prefetch ------------------------------------------------------------------

void PrefetchAblation(bench::JsonReport& json) {
  bench::Title("Ablation D: namespace-unit prefetch on cache miss "
               "(section 5.3)");
  bench::Table table({"Prefetch", "demand faults", "read time"});
  for (bool prefetch : {false, true}) {
    SimClock clock;
    auto hl = Build(clock, CacheReplacement::kLru, 16);
    // One unit: a directory of 8 x 1 MB files, migrated contiguously.
    Die(hl->fs().Mkdir("/unit").ok() ? OkStatus() : Internal("mkdir"),
        "mkdir");
    for (int i = 0; i < 8; ++i) {
      std::string path = "/unit/f" + std::to_string(i);
      uint32_t ino = DieOr(hl->fs().Create(path), "create");
      Die(hl->fs().Write(ino, 0, bench::Payload(1 << 20, kSeed + i)),
          "write");
    }
    clock.Advance(3600 * kUsPerSec);
    NamespacePolicy ns;
    DieOr(hl->Migrate(MigrationRequest{.policy = &ns}), "migrate");
    Die(hl->DropCleanCacheLines(), "drop");

    if (prefetch) {
      // The migrator laid the unit out contiguously; prefetch the next two
      // segments on each miss.
      hl->Internals().service.SetPrefetchPolicy([&hl](uint32_t tseg) {
        std::vector<uint32_t> extra;
        for (uint32_t next = tseg + 1; next <= tseg + 2; ++next) {
          if (next < hl->Internals().tseg_table.size() &&
              !(hl->Internals().tseg_table.Get(next).flags & kSegClean)) {
            extra.push_back(next);
          }
        }
        return extra;
      });
    }

    SimTime t0 = clock.Now();
    std::vector<uint8_t> buf(1 << 20);
    for (int i = 0; i < 8; ++i) {
      std::string path = "/unit/f" + std::to_string(i);
      uint32_t ino = DieOr(hl->fs().LookupPath(path), "lookup");
      DieOr(hl->fs().Read(ino, 0, buf), "read");
    }
    const std::string key =
        std::string("prefetch.") + (prefetch ? "on" : "off") + ".";
    json.Value(key + "demand_faults",
               hl->Internals().block_map.stats().demand_faults.value());
    json.Value(key + "read_us", clock.Now() - t0);
    table.AddRow({prefetch ? "on (next 2 segs)" : "off",
                  bench::Fmt("%.0f",
                             static_cast<double>(
                                 hl->Internals().block_map.stats().demand_faults)),
                  bench::Seconds(clock.Now() - t0)});
  }
  table.Print();
}

// --- E: whole-file vs block-range migration (section 5.2) -----------------------

void GranularityAblation(bench::JsonReport& json) {
  bench::Title("Ablation E: whole-file vs block-range migration on a DB "
               "file (section 5.2)");
  bench::Note("a 24 MB relation whose last 512 pages are hot; after "
              "migration, 400 hot-tail queries run");
  bench::Table table({"Granularity", "query time", "demand fetches",
                      "bytes left on disk"});
  for (bool block_range : {false, true}) {
    SimClock clock;
    auto hl = Build(clock, CacheReplacement::kLru, 8);
    uint32_t ino = DieOr(hl->fs().Create("/rel.heap"), "create");
    const uint32_t kPages = 6144;  // 24 MB.
    const uint32_t kHot = 512;
    auto mb = bench::Payload(1 << 20, kSeed);
    for (uint32_t off = 0; off < kPages * 4096u; off += 1 << 20) {
      Die(hl->fs().Write(ino, off, mb), "fill");
    }
    Die(hl->fs().Sync(), "sync");
    clock.Advance(3600 * kUsPerSec);
    // Queries before migration mark the tail hot (feeds the tracker).
    Rng warm(kSeed);
    std::vector<uint8_t> page(4096);
    SimTime cutoff = clock.Now();
    clock.Advance(kUsPerSec);
    for (int q = 0; q < 100; ++q) {
      uint64_t p = kPages - kHot + warm.Below(kHot);
      DieOr(hl->fs().Read(ino, p * 4096, page), "warm query");
    }

    if (block_range) {
      DieOr(hl->Migrate(MigrationRequest{.cold_cutoff = cutoff}), "cold-range migrate");
    } else {
      MigratorOptions opts;  // Whole-file: everything goes, hot tail too.
      DieOr(hl->Internals().migrator.MigrateFiles({ino}, opts), "whole-file migrate");
    }
    Die(hl->DropCleanCacheLines(), "drop");

    // The OLTP phase: hot-tail point queries.
    Rng oltp(kSeed + 1);
    uint64_t fetches0 = hl->Internals().service.stats().demand_fetches;
    SimTime t0 = clock.Now();
    for (int q = 0; q < 400; ++q) {
      uint64_t p = kPages - kHot + oltp.Below(kHot);
      DieOr(hl->fs().Read(ino, p * 4096, page), "hot query");
    }
    // Disk-resident bytes of the relation after migration.
    uint64_t on_disk = 0;
    Result<std::vector<BlockRef>> refs = hl->fs().CollectFileBlocks(ino);
    if (refs.ok()) {
      for (const BlockRef& r : *refs) {
        if (!IsMetaLbn(r.lbn) &&
            hl->Internals().address_map.Classify(r.daddr) == AddressMap::Zone::kDisk) {
          on_disk += kBlockSize;
        }
      }
    }
    const std::string key = std::string("granularity.") +
                            (block_range ? "block_range" : "whole_file") +
                            ".";
    json.Value(key + "query_us", clock.Now() - t0);
    json.Value(key + "demand_fetches",
               hl->Internals().service.stats().demand_fetches - fetches0);
    json.Value(key + "bytes_on_disk", on_disk);
    table.AddRow({block_range ? "block-range (cold only)" : "whole-file",
                  bench::Seconds(clock.Now() - t0),
                  bench::Fmt("%.0f", static_cast<double>(
                                         hl->Internals().service.stats().demand_fetches -
                                         fetches0)),
                  bench::Fmt("%.1f MB",
                             static_cast<double>(on_disk) / (1 << 20))});
  }
  table.Print();
  bench::Note("whole-file migration exiles the hot tail to tape (UniTree's "
              "limitation, section 8.1); block-range migration keeps it on "
              "disk");
}

}  // namespace
}  // namespace hl

int main() {
  hl::bench::JsonReport json("ablation_policies");
  hl::RankingAblation(json);
  hl::ReplacementAblation(json);
  hl::DelayedWriteAblation(json);
  hl::PrefetchAblation(json);
  hl::GranularityAblation(json);
  json.Write();
  return 0;
}

#include "highlight/highlight.h"
#include "hlbench.h"
#include "seams.h"

namespace hlbench {

std::unique_ptr<hl::HighLightFs> BuildPool(const PoolSpec& spec,
                                           hl::SimClock* clock,
                                           hl::SpanTracer* shared_spans,
                                           const std::string& track_prefix,
                                           uint64_t key_base, HostTrace* trace,
                                           RunResult& r) {
  hl::JukeboxProfile jukebox = hl::Hp6300MoProfile();
  jukebox.num_slots = spec.slots;
  jukebox.volume_capacity_bytes = spec.segs_per_volume * kPoolSegmentBytes;
  hl::Result<hl::HighLightConfig> config =
      hl::HighLightConfig::Builder()
          .AddDisk(hl::Rz57Profile(), 16 * 1024)
          .AddJukebox(jukebox, /*write_once=*/false, spec.segs_per_volume)
          .SegSizeBlocks(kPoolSegBlocks)
          .CacheMaxSegments(kPoolCacheLines)
          .AsyncReadPipeline(true)
          .TimeseriesCadence(0)
          .SharedSpans(shared_spans, track_prefix)
          .Build();
  if (!config.ok()) {
    r.Check(false, "setup: config: " + config.status().ToString());
    return nullptr;
  }
  hl::Result<std::unique_ptr<hl::HighLightFs>> created =
      [&]() -> hl::Result<std::unique_ptr<hl::HighLightFs>> {
    Span span(trace, kHlCreate);
    return hl::HighLightFs::Create(*config, clock);
  }();
  if (!created.ok()) {
    r.Check(false, "setup: create: " + created.status().ToString());
    return nullptr;
  }
  std::unique_ptr<hl::HighLightFs> hl = std::move(created).value();
  TracedLfs fs(hl->fs(), trace);
  std::vector<uint8_t> buf(kPoolFileBytes);
  for (uint32_t i = 0; i < spec.files; ++i) {
    {
      Span span(trace, kWorkloadPayload, buf.size());
      FillPayload(buf, Mix(key_base, i));
    }
    hl::Result<uint32_t> ino = fs.Create("/f" + std::to_string(i));
    if (!ino.ok() || !fs.Write(*ino, 0, buf).ok()) {
      r.Check(false, "setup: write /f" + std::to_string(i));
      return nullptr;
    }
  }
  if (!fs.Sync().ok()) {
    r.Check(false, "setup: sync");
    return nullptr;
  }
  // Data blocks only: inodes and indirect blocks stay on disk, so every
  // file is one tertiary-resident run a recall brings back whole.
  hl::MigratorOptions data_only;
  data_only.migrate_inode = false;
  data_only.migrate_metadata = false;
  hl::MigrationRequest request;
  request.path = "/";
  request.options = data_only;
  hl::Result<hl::MigrationReport> migrated = [&] {
    Span span(trace, kHlMigrate);
    return hl->Migrate(request);
  }();
  if (!migrated.ok()) {
    r.Check(false, "setup: migrate: " + migrated.status().ToString());
    return nullptr;
  }
  r.migrated_bytes += migrated->bytes_migrated;
  Span span(trace, kHlDropCache);
  if (!hl->DropCleanCacheLines().ok()) {
    r.Check(false, "setup: drop cache");
    return nullptr;
  }
  return hl;
}

bool ReadBackPool(hl::HighLightFs& hl, uint32_t files, uint64_t key_base,
                  HostTrace* trace, RunResult& r) {
  TracedLfs fs(hl.fs(), trace);
  std::vector<uint8_t> want(kPoolFileBytes);
  std::vector<uint8_t> got(kPoolFileBytes);
  bool ok = true;
  for (uint32_t i = 0; i < files; ++i) {
    hl::Result<uint32_t> ino = hl.fs().LookupPath("/f" + std::to_string(i));
    FillPayload(want, Mix(key_base, i));
    hl::Result<size_t> n =
        ino.ok() ? fs.Read(*ino, 0, got) : hl::Result<size_t>(ino.status());
    if (!n.ok() || *n != kPoolFileBytes || got != want) {
      ok = false;
      r.failed++;
    }
  }
  return ok;
}

}  // namespace hlbench

// hlfs_inspect: an observability tool for HighLight images — the kind of
// dump-and-audit utility an operator of the real system would keep at hand.
//
// Builds a small HighLight deployment, exercises it (writes, migration,
// demand fetches, a deliberate crash), then walks the on-media structures
// and prints: the superblock, checkpoint regions, the segment usage table,
// a partial-segment dump of the live log tail, the tertiary segment table,
// the cache directory, and an fsck report.
//
// Run: ./build/examples/hlfs_inspect
//   --metrics   append the unified metrics registry as JSON
//   --health    exercise the fault path (injected transients, a media
//               scribble, a scrub pass) and dump volume health,
//               fault-channel state, and the retry/scrub counters
//   --spans     corrupt the preferred copy of a replicated segment, demand-
//               fetch it (CRC mismatch -> retries -> failover -> install),
//               and print the causal span tree (instants included) plus
//               the slowest spans
//   --timeline  dump the time-series telemetry and write the combined
//               span + counter timeline as TRACE_hlfs_inspect.json
//               (loadable in ui.perfetto.dev or chrome://tracing)
//   --queue     build a write-behind + demand-fault backlog on the I/O
//               server (delayed copy-outs, a held read batch window) and
//               dump the pending queue grouped per tertiary volume
//   --sites     stand up a peer site over a simulated WAN, replicate to
//               it, then partition the link mid-backlog and dump per-site
//               replication lag, ledger depth and divergent-segment count
//               — first degraded, then again after the link heals
//   --json      machine-readable mode for --metrics and --sites: suppress
//               the human-readable walk and emit one JSON document on
//               stdout (through the same JsonWriter serializer the
//               BENCH_<name>.json exporters use)

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "federation/site_replicator.h"
#include "highlight/highlight.h"
#include "lfs/fsck.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/wan_link.h"

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

std::string FlagNames(uint16_t flags) {
  std::string out;
  auto add = [&](uint16_t bit, const char* name) {
    if (flags & bit) {
      if (!out.empty()) {
        out += "|";
      }
      out += name;
    }
  };
  add(kSegClean, "CLEAN");
  add(kSegDirty, "DIRTY");
  add(kSegActive, "ACTIVE");
  add(kSegCached, "CACHED");
  add(kSegStaging, "STAGING");
  add(kSegCacheEligible, "ELIGIBLE");
  add(kSegNoStore, "NOSTORE");
  add(kSegReplica, "REPLICA");
  return out.empty() ? "-" : out;
}

// The human-readable on-media walk: superblock, log state, segment usage,
// the live log tail, the tertiary segment table and the cache directory.
// Skipped entirely in --json mode, where stdout is one JSON document.
void DumpStructures(HighLightFs& hl) {
  Lfs& fs = hl.fs();
  const Superblock& sb = fs.superblock();

  std::printf("=== superblock ===\n");
  std::printf("  magic            0x%llX (v%u)\n",
              static_cast<unsigned long long>(sb.magic), sb.version);
  std::printf("  block size       %u B, segment %u blocks (%u KB)\n",
              sb.block_size, sb.seg_size_blocks,
              sb.seg_size_blocks * sb.block_size / 1024);
  std::printf("  disk             %u blocks (%u segments, reserved %u)\n",
              sb.disk_blocks, sb.nsegs, sb.reserved_blocks);
  std::printf("  tertiary         %u segments on %u volumes (%u/volume), "
              "base address %u\n",
              sb.tertiary_nsegs, sb.num_volumes, sb.segs_per_volume,
              sb.tertiary_base);
  std::printf("  dead zone        [%u, %u)\n", sb.disk_blocks,
              sb.tertiary_base);
  std::printf("  cache limit      %u segments\n", sb.cache_max_segments);
  std::printf("  max inodes       %u\n", sb.max_inodes);

  std::printf("\n=== log state ===\n");
  std::printf("  active segment   %u (offset %u blocks), next %u\n",
              fs.cur_seg(), fs.cur_offset(), fs.next_seg());
  std::printf("  clean segments   %u / %u\n", fs.CleanSegmentCount(),
              fs.NumSegments());

  std::printf("\n=== segment usage table (non-clean segments) ===\n");
  std::printf("  %-6s %-10s %-28s %s\n", "seg", "live", "flags", "cache-tag");
  for (uint32_t seg = 0; seg < fs.NumSegments(); ++seg) {
    const SegUsage& u = fs.GetSegUsage(seg);
    if ((u.flags & kSegClean) && u.cache_tseg == kNoSegment) {
      continue;
    }
    std::printf("  %-6u %-10u %-28s %s\n", seg, u.live_bytes,
                FlagNames(u.flags).c_str(),
                u.cache_tseg == kNoSegment
                    ? "-"
                    : std::to_string(u.cache_tseg).c_str());
  }

  std::printf("\n=== partial segments of the last written segment ===\n");
  uint32_t dump_seg = fs.cur_seg();
  auto partials = Check(fs.ParseSegment(dump_seg), "parse segment");
  for (const ParsedPartial& p : partials) {
    std::printf("  pseg @%u serial=%llu blocks=%u next=%u files=%zu "
                "inode-blocks=%zu%s\n",
                p.base_daddr, static_cast<unsigned long long>(p.summary.serial),
                p.num_blocks, p.summary.next, p.summary.finfos.size(),
                p.summary.inode_daddrs.size(),
                (p.summary.flags & kSsFlagCheckpoint) ? " [checkpoint]" : "");
    for (const FInfo& f : p.summary.finfos) {
      std::printf("      ino %-5u v%-3u lbns:", f.ino, f.version);
      size_t shown = 0;
      for (uint32_t lbn : f.lbns) {
        if (shown++ >= 8) {
          std::printf(" ...");
          break;
        }
        if (IsMetaLbn(lbn)) {
          std::printf(" M%x", lbn & 0xFFFF);
        } else {
          std::printf(" %u", lbn);
        }
      }
      std::printf("\n");
    }
  }

  std::printf("\n=== tertiary segment table (in use) ===\n");
  const TsegTable& tsegs = hl.Internals().tseg_table;
  for (uint32_t t = 0; t < tsegs.size(); ++t) {
    const SegUsage& u = tsegs.Get(t);
    if (u.flags & kSegClean) {
      continue;
    }
    std::printf("  tseg %-5u vol %-3u live %-9u %-22s%s\n", t,
                hl.Internals().address_map.VolumeOfTseg(t), u.live_bytes,
                FlagNames(u.flags).c_str(),
                (u.flags & kSegReplica)
                    ? (" of " + std::to_string(u.cache_tseg)).c_str()
                    : "");
  }

  std::printf("\n=== segment cache directory ===\n");
  for (const SegmentCache::LineInfo& line : hl.Internals().cache.Lines()) {
    std::printf("  tseg %-5u in disk seg %-4u touches=%llu%s\n", line.tseg,
                line.disk_seg,
                static_cast<unsigned long long>(line.touches),
                line.staging ? " [staging]" : "");
  }
  std::printf("  (%u/%u lines in use; %llu hits, %llu misses)\n",
              hl.Internals().cache.Used(), hl.Internals().cache.Capacity(),
              static_cast<unsigned long long>(hl.Internals().cache.Snapshot().hits),
              static_cast<unsigned long long>(hl.Internals().cache.Snapshot().misses));
}

}  // namespace

int main(int argc, char** argv) {
  bool dump_metrics = false;
  bool dump_health = false;
  bool dump_spans = false;
  bool dump_timeline = false;
  bool dump_queue = false;
  bool dump_sites = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else if (std::strcmp(argv[i], "--health") == 0) {
      dump_health = true;
    } else if (std::strcmp(argv[i], "--spans") == 0) {
      dump_spans = true;
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      dump_timeline = true;
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      dump_queue = true;
    } else if (std::strcmp(argv[i], "--sites") == 0) {
      dump_sites = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--metrics] [--health] [--spans] "
                   "[--timeline] [--queue] [--sites] [--json]\n",
                   argv[0]);
      return 2;
    }
  }
  if (json && !dump_metrics && !dump_sites) {
    std::fprintf(stderr, "--json requires --metrics and/or --sites\n");
    return 2;
  }
  if (json &&
      (dump_health || dump_spans || dump_timeline || dump_queue)) {
    std::fprintf(stderr,
                 "--json supports only --metrics and --sites; the other dumps "
                 "are human-readable\n");
    return 2;
  }

  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 8 * 1024});  // 32 MB.
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = 4;
  j.volume_capacity_bytes = 16ull * 64 * kBlockSize;
  config.jukeboxes.push_back({j, false, 16});
  config.lfs.seg_size_blocks = 64;
  config.lfs.cache_max_segments = 8;
  // The queue dump shows the async pipeline's unified read/write queue.
  config.async_read_pipeline = dump_queue;
  auto hl = Check(HighLightFs::Create(config, &clock), "create");

  // Exercise the system so there is something to look at.
  Check(hl->fs().Mkdir("/proj").status(), "mkdir");
  Rng rng(0x1259EC7);
  for (int i = 0; i < 6; ++i) {
    std::string path = "/proj/file" + std::to_string(i);
    uint32_t ino = Check(hl->fs().Create(path), "create");
    std::vector<uint8_t> data(100 * 1024 + i * 40960);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    Check(hl->fs().Write(ino, 0, data), "write");
  }
  Check(hl->fs().Sync(), "sync");
  clock.Advance(3600 * kUsPerSec);
  Check(hl->Migrate(MigrationRequest{.path = "/proj/file0"}).status(), "migrate");
  Check(hl->Migrate(MigrationRequest{.path = "/proj/file1"}).status(), "migrate");
  Check(hl->fs().Checkpoint(), "checkpoint");
  // Crash and recover, so the dump shows a rolled-forward log.
  uint32_t f5 = Check(hl->fs().LookupPath("/proj/file5"), "lookup");
  Check(hl->fs().Write(f5, 0, std::vector<uint8_t>(8192, 0x42)), "write");
  Check(hl->fs().Sync(), "sync");
  Check(hl->Remount(), "remount (simulated crash)");

  if (dump_health) {
    // Exercise the fault-tolerant path so the health dump has content:
    // transient drive faults (retried through), then a media scribble on a
    // replicated segment — the scrub pass detects it, repairs it from the
    // replica, and rebuilds the post-remount CRC catalog along the way.
    hl->Internals().jukebox(0).fault_channel()->FailNextOps(2);
    uint32_t f0 = Check(hl->fs().LookupPath("/proj/file0"), "lookup");
    std::vector<uint8_t> buf(4096);
    Check(hl->fs().Read(f0, 0, buf).status(), "faulted read");

    uint32_t f2 = Check(hl->fs().LookupPath("/proj/file2"), "lookup");
    MigratorOptions opts;
    opts.replicas = 1;
    Check(hl->Internals().migrator.MigrateFiles({f2}, opts).status(), "migrate");
    uint32_t bad_tseg = kNoSegment;
    for (uint32_t t = 0; t < hl->Internals().tseg_table.size(); ++t) {
      const SegUsage& u = hl->Internals().tseg_table.Get(t);
      if ((u.flags & kSegReplica)) {
        bad_tseg = u.cache_tseg;  // A replicated primary: repairable.
        break;
      }
    }
    if (bad_tseg != kNoSegment) {
      uint32_t vol = hl->Internals().address_map.VolumeOfTseg(bad_tseg);
      Volume* medium = Check(hl->Internals().footprint.GetVolume(vol), "volume");
      std::vector<uint8_t> junk(kBlockSize, 0xA5);
      Check(medium->Write(hl->Internals().address_map.ByteOffsetOnVolume(bad_tseg),
                          junk),
            "scribble");
    }
    Check(hl->Internals().scrubber.ScrubAll().status(), "scrub");
  }

  if (!json) {
    DumpStructures(*hl);
  }

  FsckReport report = CheckFs(hl->fs());
  if (!json) {
    std::printf("\n=== fsck ===\n");
    std::printf("  files=%u dirs=%u blocks=%llu\n", report.files_checked,
                report.directories_checked,
                static_cast<unsigned long long>(report.blocks_checked));
    for (const std::string& e : report.errors) {
      std::printf("  ERROR: %s\n", e.c_str());
    }
    for (const std::string& w : report.warnings) {
      std::printf("  warn:  %s\n", w.c_str());
    }
    std::printf("  verdict: %s\n", report.clean() ? "CLEAN" : "CORRUPT");
  }

  // In --json mode the requested sections accumulate into one document,
  // emitted at the end — the same JsonWriter the bench exporters use.
  JsonWriter jdoc;
  if (json) {
    jdoc.BeginObject();
    jdoc.Key("tool");
    jdoc.String("hlfs_inspect");
    jdoc.Key("fsck_clean");
    jdoc.Bool(report.clean());
  }

  if (dump_health) {
    std::printf("\n=== volume health ===\n");
    std::printf("  %-28s %-12s %8s %8s %6s %6s\n", "volume", "state",
                "fails", "oks", "streak", "heal");
    for (const auto& [volume, entry] : hl->Internals().health.Entries()) {
      std::printf("  %-28u %-12s %8llu %8llu %6d %6d\n", volume,
                  HealthStateName(entry.state),
                  static_cast<unsigned long long>(entry.failures_total),
                  static_cast<unsigned long long>(entry.successes_total),
                  entry.consecutive_failures, entry.consecutive_successes);
    }
    if (hl->Internals().health.Entries().empty()) {
      std::printf("  (no outcomes recorded; every volume healthy)\n");
    }
    std::printf("  quarantined volumes: %zu\n",
                hl->Internals().health.QuarantinedVolumes().size());

    std::printf("\n=== fault channels ===\n");
    for (const std::string& name : hl->Internals().faults.ChannelNames()) {
      const FaultChannel* c = hl->Internals().faults.Find(name);
      std::printf("  %-28s %s latent-extents=%zu\n", name.c_str(),
                  c->dead() ? "DEAD " : "alive", c->LatentErrorCount());
    }

    std::printf("\n=== retry / scrub counters ===\n");
    MetricsSnapshot snap = hl->Metrics();
    for (const char* name :
         {"fault.transients", "fault.load_timeouts", "fault.media_errors",
          "fault.corruptions", "io.retries", "io.retry_backoff_us",
          "io.failovers", "io.crc_mismatches", "io.crc_verified",
          "health.failures_recorded", "health.suspect_transitions",
          "health.quarantines", "scrub.segments_scrubbed",
          "scrub.corruptions_detected", "scrub.repairs",
          "scrub.unrecoverable_losses", "scrub.crcs_restamped"}) {
      if (snap.Has(name)) {
        std::printf("  %-28s %llu\n", name,
                    static_cast<unsigned long long>(snap.Value(name)));
      }
    }
    std::printf("  lost segments: %zu\n",
                hl->Internals().scrubber.LostSegments().size());
  }

  if (dump_spans) {
    // One complete span tree for the hard case: the copy the I/O server
    // prefers is corrupt, so the demand fetch shows CRC verification
    // failing, the bounded retries, the failover to the surviving copy and
    // the final cache-line install — all as children of one fetch.
    uint32_t f3 = Check(hl->fs().LookupPath("/proj/file3"), "lookup");
    MigratorOptions opts;
    opts.replicas = 1;
    Check(hl->Internals().migrator.MigrateFiles({f3}, opts).status(), "migrate");

    auto refs = Check(hl->fs().CollectFileBlocks(f3), "collect blocks");
    uint32_t primary = kNoSegment;
    for (const BlockRef& r : refs) {
      if (r.lbn == 0 && r.daddr != kNoBlock) {
        primary = hl->Internals().address_map.TsegOf(r.daddr);
        break;
      }
    }
    if (primary == kNoSegment) {
      std::fprintf(stderr, "spans: file3 block 0 not tertiary-resident\n");
      return 1;
    }
    // The fetch tries the "closest" copy first (a mounted volume beats a
    // media swap); corrupt exactly that one so the failover must happen.
    std::vector<uint32_t> candidates = {primary};
    for (uint32_t replica : hl->Internals().tseg_table.ReplicasOf(primary)) {
      candidates.push_back(replica);
    }
    uint32_t victim = candidates.front();
    for (uint32_t candidate : candidates) {
      auto mounted = hl->Internals().footprint.VolumeMounted(
          static_cast<int>(hl->Internals().address_map.VolumeOfTseg(candidate)));
      if (mounted.ok() && *mounted) {
        victim = candidate;
        break;
      }
    }
    uint32_t vol = hl->Internals().address_map.VolumeOfTseg(victim);
    Volume* medium = Check(hl->Internals().footprint.GetVolume(vol), "volume");
    std::vector<uint8_t> junk(kBlockSize, 0xA5);
    Check(medium->Write(hl->Internals().address_map.ByteOffsetOnVolume(victim), junk),
          "scribble");
    // Drop the cache last: CollectFileBlocks may itself demand-fault the
    // segment back in, and a resident line would turn the read below into a
    // cache hit instead of the faulted fetch this dump exists to show.
    Check(hl->DropCleanCacheLines(), "drop cache lines");

    hl->spans().Clear();  // Keep the dump to this one access.
    std::vector<uint8_t> buf(4096);
    Check(hl->fs().Read(f3, 0, buf).status(), "demand fetch");

    std::printf("\n=== causal span tree (corrupt tseg %u, served by %s) ===\n",
                victim, victim == primary ? "replica" : "primary");
    std::printf("%s", RenderSpanForest(hl->spans().Completed()).c_str());
    std::printf("\n=== slowest spans ===\n");
    for (const SpanRecord& s : hl->spans().Slowest(10)) {
      std::printf("  %-18s [%-14s] %10llu us @%llu\n",
                  std::string(s.name).c_str(), std::string(s.track).c_str(),
                  static_cast<unsigned long long>(s.duration_us()),
                  static_cast<unsigned long long>(s.begin_us));
    }
  }

  if (dump_queue) {
    // Build a backlog worth dumping: two delayed-copyout migrations fill
    // the write side, and a held batch window accumulates demand faults
    // plus a read-ahead on the read side before the elevator may issue.
    IoServer& io = hl->Internals().io_server;
    MigratorOptions delayed;
    delayed.delayed_copyout = true;
    for (const char* path : {"/proj/file4", "/proj/file5"}) {
      uint32_t ino = Check(hl->fs().LookupPath(path), "lookup");
      Check(hl->Internals().migrator.MigrateFiles({ino}, delayed).status(), "migrate");
    }
    size_t saved_depth = io.max_queue_depth();
    io.set_max_queue_depth(1);  // One op in flight; the rest stay visible.
    io.HoldReads();
    std::vector<uint32_t> fetchable;
    std::vector<uint32_t> staged;
    for (const SegmentCache::LineInfo& line : hl->Internals().cache.Lines()) {
      if (line.staging) {
        staged.push_back(line.tseg);
      }
    }
    for (uint32_t t = 0; t < hl->Internals().tseg_table.size(); ++t) {
      const SegUsage& u = hl->Internals().tseg_table.Get(t);
      if ((u.flags & kSegClean) || (u.flags & kSegReplica) ||
          (u.flags & kSegStaging)) {
        continue;
      }
      if (fetchable.size() < 3) {
        fetchable.push_back(t);
      }
    }
    // The last fetchable segment plays the read-ahead; the rest are faults.
    const IoServer::ReadDone ignore = [](const Status&, SimTime,
                                         std::span<const ChunkRef>) {};
    for (size_t i = 0; i + 1 < fetchable.size(); ++i) {
      Check(io.EnqueueDemandRead(fetchable[i], kNoSegment, ignore),
            "enqueue demand read");
    }
    if (!fetchable.empty()) {
      Check(io.EnqueuePrefetchRead(fetchable.back(), kNoSegment, ignore),
            "enqueue prefetch read");
    }
    for (uint32_t t : staged) {
      Check(hl->Internals().migrator.EnqueueCopyOut(t), "enqueue copyout");
    }

    std::printf("\n=== pending I/O queue (per volume) ===\n");
    std::map<uint32_t, std::vector<IoServer::QueuedOpView>> by_volume;
    for (const IoServer::QueuedOpView& op : io.PendingOps()) {
      by_volume[op.volume].push_back(op);
    }
    for (const auto& [volume, ops] : by_volume) {
      std::printf("  volume %u:\n", volume);
      for (const IoServer::QueuedOpView& op : ops) {
        std::printf("    %-14s tseg %-5u line %s\n", op.kind, op.tseg,
                    op.disk_seg == kNoSegment
                        ? "-"
                        : std::to_string(op.disk_seg).c_str());
      }
    }
    std::printf("  (%zu queued, %zu outstanding; window depth %zu; "
                "reads held for batch)\n",
                io.QueueDepth(), io.Outstanding(), io.max_queue_depth());

    // Let the backlog complete and put the server back the way it was.
    Check(io.ReleaseReads(), "release reads");
    Check(io.Drain(), "drain");
    Check(hl->Internals().migrator.FlushStaging(), "flush staging");
    io.set_max_queue_depth(saved_depth);
  }

  if (dump_sites) {
    // A second complete deployment plays the peer site. Replicate this
    // one's tertiary population across the WAN, then migrate one more file
    // and partition the link mid-backlog, so the dump shows a real queue,
    // non-zero replication lag and a divergent segment — then heal the
    // link, drain, and dump again converged.
    auto peer = Check(HighLightFs::Create(config, &clock), "create peer site");
    FaultInjector wan_faults(&clock, /*seed=*/0xD15A);
    WanLink link("a-b", &clock);
    link.AttachFaults(wan_faults.Channel("wan.a-b"));
    SiteReplicator repl(&clock);
    const int site_a = repl.AddSite("a", hl.get());
    const int site_b = repl.AddSite("b", peer.get());
    repl.SetLink(site_a, site_b, &link);

    Check(repl.EnqueueNewSegments(site_a).status(), "enqueue");
    Check(repl.RunUntilIdle(), "initial replication");

    uint32_t f4 = Check(hl->fs().LookupPath("/proj/file4"), "lookup");
    Check(hl->Internals().migrator.MigrateFiles({f4}, MigratorOptions{}).status(),
          "migrate");
    Check(repl.EnqueueNewSegments(site_a).status(), "enqueue backlog");
    link.faults()->FailBetween(clock.Now(), clock.Now() + 600 * kUsPerSec);
    clock.Advance(42 * kUsPerSec);
    Check(repl.Pump(), "pump under partition");  // Defers; peer unreachable.

    // One phase dump, either as a printf table or as a JSON object under
    // sites.<key> ("degraded" / "healed") — same fields either way.
    auto dump_repl = [&](const char* when, const char* key) {
      if (json) {
        jdoc.Key(key);
        jdoc.BeginObject();
        jdoc.Key("sites");
        jdoc.BeginArray();
        for (int s = 0; s < static_cast<int>(repl.NumSites()); ++s) {
          const int other = s == site_a ? site_b : site_a;
          jdoc.BeginObject();
          jdoc.Key("name");
          jdoc.String(repl.SiteName(s));
          jdoc.Key("quarantined");
          jdoc.Bool(repl.SiteQuarantined(s));
          jdoc.Key("queue");
          jdoc.UInt(repl.QueueDepth(s));
          jdoc.Key("lag_s");
          jdoc.UInt(repl.ReplicationLag(s) / kUsPerSec);
          jdoc.Key("ledger");
          jdoc.UInt(repl.LedgerEntries(s));
          jdoc.Key("divergent_vs_peer");
          jdoc.UInt(repl.DivergentCountVs(s, other));
          jdoc.EndObject();
        }
        jdoc.EndArray();
        jdoc.Key("link");
        jdoc.BeginObject();
        jdoc.Key("name");
        jdoc.String(link.name());
        jdoc.Key("partitioned");
        jdoc.Bool(link.Partitioned());
        jdoc.Key("transfers");
        jdoc.UInt(link.transfers());
        jdoc.Key("bytes_shipped");
        jdoc.UInt(link.bytes_shipped());
        jdoc.Key("failures");
        jdoc.UInt(link.failures());
        jdoc.Key("corrupted_in_flight");
        jdoc.UInt(link.corrupted_in_flight());
        jdoc.EndObject();
        jdoc.Key("shipped");
        jdoc.UInt(repl.stats().segments_shipped.value());
        jdoc.Key("deferred");
        jdoc.UInt(repl.stats().ship_deferred.value());
        jdoc.Key("ledger_persists");
        jdoc.UInt(repl.stats().ledger_persists.value());
        jdoc.EndObject();
        return;
      }
      std::printf("\n=== site replication (%s) ===\n", when);
      std::printf("  %-6s %-6s %-7s %-10s %-8s %s\n", "site", "quar", "queue",
                  "lag", "ledger", "divergent-vs-peer");
      for (int s = 0; s < static_cast<int>(repl.NumSites()); ++s) {
        const int other = s == site_a ? site_b : site_a;
        std::printf("  %-6s %-6s %-7zu %-10s %-8zu %u\n",
                    repl.SiteName(s).c_str(),
                    repl.SiteQuarantined(s) ? "yes" : "no", repl.QueueDepth(s),
                    (std::to_string(repl.ReplicationLag(s) / kUsPerSec) + " s")
                        .c_str(),
                    repl.LedgerEntries(s), repl.DivergentCountVs(s, other));
      }
      std::printf("  link %-5s %-11s transfers=%llu bytes=%llu failures=%llu "
                  "corrupted=%llu\n",
                  link.name().c_str(),
                  link.Partitioned() ? "PARTITIONED" : "up",
                  static_cast<unsigned long long>(link.transfers()),
                  static_cast<unsigned long long>(link.bytes_shipped()),
                  static_cast<unsigned long long>(link.failures()),
                  static_cast<unsigned long long>(link.corrupted_in_flight()));
      std::printf("  shipped=%llu deferred=%llu ledger-persists=%llu\n",
                  static_cast<unsigned long long>(
                      repl.stats().segments_shipped.value()),
                  static_cast<unsigned long long>(
                      repl.stats().ship_deferred.value()),
                  static_cast<unsigned long long>(
                      repl.stats().ledger_persists.value()));
    };
    if (json) {
      jdoc.Key("sites");
      jdoc.BeginObject();
    }
    dump_repl("degraded: WAN partitioned, backlog pending", "degraded");

    clock.Advance(600 * kUsPerSec);  // Outlive the partition window.
    Check(repl.RunUntilIdle(), "drain after heal");
    dump_repl("healed: backlog drained", "healed");
    if (json) {
      jdoc.EndObject();
    }
  }

  if (dump_timeline) {
    std::printf("\n=== time-series telemetry (cadence %llu us) ===\n",
                static_cast<unsigned long long>(
                    hl->timeseries().cadence_us()));
    for (const std::string& name : hl->timeseries().SeriesNames()) {
      const auto& points = hl->timeseries().Series(name);
      if (points.empty()) {
        std::printf("  %-32s (no samples)\n", name.c_str());
        continue;
      }
      std::printf("  %-32s %zu samples, last=%lld @%llus\n", name.c_str(),
                  points.size(), static_cast<long long>(points.back().value),
                  static_cast<unsigned long long>(points.back().t_us /
                                                  kUsPerSec));
    }
    std::string events;
    AppendPerfettoSpanEvents(hl->spans(), /*pid=*/1, "hlfs_inspect", &events);
    AppendPerfettoCounterEvents(hl->timeseries(), /*pid=*/1, &events);
    const std::string timeline = PerfettoTraceJson(events);
    const char* path = "TRACE_hlfs_inspect.json";
    FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fwrite(timeline.data(), 1, timeline.size(), out);
    std::fclose(out);
    std::printf("  wrote %s (%zu bytes)\n", path, timeline.size());
  }

  if (dump_metrics) {
    if (json) {
      // The full registry snapshot, spliced through the shared serializer.
      jdoc.Key("metrics");
      jdoc.Raw(hl->Metrics().ToJson(2));
    } else {
      std::printf("\n=== metrics ===\n%s\n", hl->Metrics().ToJson().c_str());
    }
  }
  if (json) {
    jdoc.EndObject();
    std::printf("%s\n", jdoc.Take().c_str());
  }
  return report.clean() ? 0 : 1;
}

// Migrator: HighLight's second cleaner (paper sections 4, 6.2, 6.7).
//
// Collects to-be-migrated file blocks into *staging segments* — LFS segments
// assembled in disk cache lines but addressed with tertiary block numbers —
// then flips the file-system pointers (lfs_migratev) and hands completed
// segments to the I/O server for copy-out. Supports:
//  * whole-file migration, including indirect blocks and the inode itself;
//  * partial (block-range) migration, where only selected blocks move and
//    the updated inode stays on disk;
//  * delayed copy-out (section 5.4 "Writing fresh tertiary segments"):
//    completed segments pile up and are copied to tertiary in one idle-time
//    batch, trading reserved disk space for the disk-arm contention the
//    immediate mode suffers;
//  * end-of-medium recovery: a segment that does not fit on its volume is
//    re-targeted at the next volume and all pointers are rebased.

#ifndef HIGHLIGHT_HIGHLIGHT_MIGRATOR_H_
#define HIGHLIGHT_HIGHLIGHT_MIGRATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "highlight/address_map.h"
#include "highlight/io_server.h"
#include "highlight/migration_policy.h"
#include "highlight/segment_cache.h"
#include "highlight/tseg_table.h"
#include "lfs/lfs.h"
#include "lfs/segment_builder.h"
#include "util/health.h"
#include "util/metrics.h"
#include "util/span.h"

namespace hl {

struct MigratorOptions {
  bool migrate_metadata = true;   // Indirect blocks move to tertiary.
  bool migrate_inode = true;      // Whole-file migration moves the inode too.
  bool delayed_copyout = false;   // Batch tertiary writes (section 5.4).
  // Every completed segment is queued on the I/O server's write-behind
  // pipeline (sections 4, 6.5); this decides only whether the migrator
  // waits. Off, it drains the queue after each segment and reports that
  // segment's copy-out errors at once. On, it stages on while tertiary
  // writes overlap, and transient failures are held until FlushStaging(),
  // which drains the pipeline and reports them (Table 6 compares the two).
  bool write_behind = false;
  // Extra copies of each tertiary segment, placed on other volumes, read
  // back via whichever copy is "closest" (section 5.4 replica variant).
  // Replicas are best-effort: they consume tertiary space but are not
  // counted as live data.
  int replicas = 0;
  // Directs this migration stream at a particular volume when it has room
  // (section 6.5: "the migrator may wish to direct several migration
  // streams to different media"). kNoSegment = default volume order.
  uint32_t preferred_volume = kNoSegment;
};

struct MigrationReport {
  uint32_t files_migrated = 0;
  uint64_t blocks_migrated = 0;
  uint64_t bytes_migrated = 0;
  uint32_t segments_completed = 0;
  uint32_t eom_retargets = 0;
  uint32_t blocks_skipped = 0;  // Unstable or already tertiary-resident.
};

class Migrator {
 public:
  Migrator(Lfs* fs, BlockDevice* blockmap_dev, SegmentCache* cache,
           IoServer* io, TsegTable* tsegs, const AddressMap* amap,
           SimClock* clock)
      : fs_(fs),
        dev_(blockmap_dev),
        cache_(cache),
        io_(io),
        tsegs_(tsegs),
        amap_(amap),
        clock_(clock) {}

  // Migrates whole files (inos).
  Result<MigrationReport> MigrateFiles(const std::vector<uint32_t>& inos,
                                       const MigratorOptions& opts);

  // Migrates selected data blocks of every (ino, lbns) entry in one pass
  // (block-range migration), so the files share staging segments. Each
  // file's inode and indirect blocks stay on disk. Holes and blocks already
  // on tertiary count as skipped and are never read.
  Result<MigrationReport> MigrateBlocks(
      const std::vector<std::pair<uint32_t, std::vector<uint32_t>>>& files,
      const MigratorOptions& opts);

  // Re-migrates blocks that already live on tertiary storage into fresh
  // staging segments — the primitive behind the tertiary cleaner and the
  // section 5.4 rearrangement policies. `refs` name tertiary-resident
  // blocks in the ordering CollectFileBlocks produces (data ascending, then
  // double-indirect children, root, single indirect); when `restage_inode`
  // is set the inode follows its blocks.
  Status ReMigrateFileBlocks(uint32_t ino, const std::vector<BlockRef>& refs,
                             bool restage_inode, const MigratorOptions& opts,
                             MigrationReport& report);

  // Section 5.4 "Rearranging tertiary segments": re-clusters the
  // tertiary-resident blocks of the given files into fresh, adjacent
  // staging segments, reflecting an observed co-access pattern. The old
  // copies become dead bytes on their volumes (reclaimable by the tertiary
  // cleaner); as the paper notes, the policy trades tertiary space for read
  // locality.
  Result<MigrationReport> ClusterFiles(const std::vector<uint32_t>& inos,
                                       const MigratorOptions& opts);

  // Volumes the allocator must skip (e.g. the volume being cleaned).
  void ExcludeVolume(uint32_t volume) { full_volumes_.insert(volume); }
  void UnexcludeVolume(uint32_t volume) { full_volumes_.erase(volume); }

  // When set, quarantined volumes join the exclusion set for every target
  // selection (fresh staging segments, retargets, replica placement).
  void SetHealth(const HealthRegistry* health) { health_ = health; }

  // Ranks files with `policy`, keeps those at or under `path` ("/" keeps
  // all), and migrates them best-first, taking candidates until their sizes
  // reach `bytes_target` (0 = every candidate). The one policy budget loop.
  Result<MigrationReport> RunPolicy(MigrationPolicy& policy,
                                    const std::string& path,
                                    uint64_t bytes_target,
                                    const MigratorOptions& opts);

  // Completes the in-progress staging segment, feeds every pending segment
  // to the I/O server pipeline, and drains it (the durability barrier).
  // Persists the tseg table and checkpoints. Errors a write-behind callback
  // deferred earlier are reported here.
  Status FlushStaging();

  // Queues one staged segment for copy-out on the write-behind pipeline
  // (no-op if it is already queued). Completion callbacks do the
  // MarkCopiedOut/replica/retarget bookkeeping.
  Status EnqueueCopyOut(uint32_t tseg);

  // Rebuilds the staged-segment ledger from staging cache lines after a
  // remount mid-delayed-copyout: parses each staged image (the tertiary
  // cleaner's technique) so a later FlushStaging — including an
  // end-of-medium retarget — can finish the interrupted migration.
  Status RecoverStaging();

  // Pending staged-but-not-copied segments (delayed mode backlog).
  uint32_t PendingSegments() const;

  // Totals of every MigrateFiles, MigrateBlocks and ClusterFiles pass; a
  // caller of ReMigrateFileBlocks (the tertiary cleaner) keeps its own.
  // segments_completed and eom_retargets count every staging segment and
  // retarget, whoever staged it.
  const MigrationReport& lifetime_report() const { return lifetime_; }

  // Re-homes counters into `registry` under "migrator.*".
  void AttachMetrics(MetricsRegistry* registry);

  // Span tracing on the "migrator" lane: ranking, per-file staging, segment
  // completion, retargets and the flush barrier each open a span, so the
  // write-behind copy-outs they enqueue stay causally attached to the
  // migration that produced them. Null disables.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

 private:
  struct StagedSegment {
    uint32_t tseg = kNoSegment;
    uint32_t disk_seg = kNoSegment;
    std::vector<Lfs::MigrationAssignment> moves;
    std::map<uint32_t, uint32_t> inode_moves;  // ino -> tertiary daddr.
    bool enqueued = false;  // Sitting on the write-behind pipeline.
    int replicas = 0;  // Extra copies requested at completion time.
  };
  // Best-effort replica writes after a successful primary copy-out, as a
  // serial chain of queued writes. A failed write excludes that volume and
  // retries the remaining count elsewhere (bounded attempts); end-of-medium
  // retires the volume like the primary path does. The primary's cache line
  // stays pinned (the replica reads it) until the chain terminates and
  // FinishCopiedSegment runs.
  void EnqueueReplicaChain(uint32_t primary, uint32_t disk_seg, int remaining,
                           int attempts_left,
                           std::shared_ptr<std::set<uint32_t>> exclude);
  // Completion callback for a queued primary copy-out.
  void OnCopyOutDone(uint32_t tseg, const Status& s);
  // Unpins the cache line and retires the staged record.
  Status FinishCopiedSegment(uint32_t tseg);
  // Persistently retires a full volume's unused segments.
  void RetireVolume(uint32_t volume);

  // Staging-segment lifecycle.
  Status EnsureStagingSegment(const MigratorOptions& opts);
  Status FinishPseg();
  Status CompleteSegment(const MigratorOptions& opts);
  // Waits out every queued copy-out (Drain) and returns, then clears, the
  // first error a completion callback deferred.
  Status DrainCopyOuts();
  // Queues every completed staged segment not yet queued and drains: the
  // loop FlushStaging runs, and the one that frees the cache lines staged
  // segments pin when a pass finds every line pinned.
  Status CopyOutStaged();
  // Moves a staged segment to a fresh tseg on another volume; returns the
  // new key.
  Result<uint32_t> RetargetSegment(uint32_t old_tseg);

  // Leaves builder_ with room for one block of `ino` (or, with `inode`, for
  // the inode itself), finishing full partials and segments on the way.
  Status ReserveStaging(uint32_t ino, bool inode, const MigratorOptions& opts);
  // First migration moves only disk-resident blocks: drops holes and blocks
  // already on tertiary from `refs`, counting each one skipped.
  void KeepDiskResident(std::vector<BlockRef>& refs,
                        MigrationReport& report) const;
  // The one block-staging loop every pass shares. Reads each of `refs`
  // (charging the read to Table 4's "I/O server" phase), skips a block
  // whose address moved since the caller selected it, and stages and flips
  // the rest. An unreadable block fails the pass, or with `skip_unreadable`
  // counts as skipped. Returns whether any block moved.
  Result<bool> StageBlocks(const std::vector<BlockRef>& refs,
                           bool skip_unreadable, const MigratorOptions& opts,
                           MigrationReport& report);
  // The stage-and-flip step: copies `bytes`, read at `ref.daddr`, into the
  // staging area, flips the file's pointer to the staged copy
  // (lfs_migratev) and records the move on its staging segment. Counts the
  // block migrated, or skipped when the file changed since the read;
  // returns whether it moved.
  Result<bool> StageAndFlip(const BlockRef& ref,
                            std::span<const uint8_t> bytes,
                            const MigratorOptions& opts,
                            MigrationReport& report);
  Status StageInode(uint32_t ino, const MigratorOptions& opts);
  Status MigrateOneFile(uint32_t ino, const MigratorOptions& opts,
                        MigrationReport& report);
  // The one pass skeleton MigrateFiles, MigrateBlocks and ClusterFiles
  // share: Sync, snapshot the lifetime totals, stage each of `items` with
  // `stage_one(item, report)`, and end through EndPass. A failed item stops
  // the loop but not the epilogue, so every staged segment is still
  // completed, stored and queued; the pass then returns the first error.
  template <typename Items, typename StageOne>
  Result<MigrationReport> RunPass(const Items& items,
                                  const MigratorOptions& opts,
                                  StageOne stage_one);
  // The one pass epilogue: completes the trailing staging segment, reports
  // the segments completed and end-of-medium retargets since `start` (the
  // lifetime totals when the pass began), persists the tseg table, syncs,
  // and folds the report into the lifetime totals.
  Result<MigrationReport> EndPass(const MigratorOptions& opts,
                                  const MigrationReport& start,
                                  MigrationReport report);

  Lfs* fs_;
  BlockDevice* dev_;
  SegmentCache* cache_;
  IoServer* io_;
  TsegTable* tsegs_;
  const AddressMap* amap_;
  SimClock* clock_;

  // Current staging state.
  uint32_t cur_tseg_ = kNoSegment;
  uint32_t cur_offset_ = 0;  // Blocks used in the staging segment.
  std::unique_ptr<SegmentBuilder> builder_;
  std::vector<uint8_t> arena_;  // builder_'s staging image arena.
  uint64_t staging_serial_ = 1;

  // Full volumes plus (when health is wired) quarantined ones — the set
  // every target selection skips.
  std::set<uint32_t> ExcludedVolumes() const;

  std::map<uint32_t, StagedSegment> staged_;  // tseg -> record (until copied).
  std::set<uint32_t> full_volumes_;
  const HealthRegistry* health_ = nullptr;
  MigrationReport lifetime_;
  Counter retargets_;
  Counter volumes_retired_;
  SpanTracer* spans_ = nullptr;
  // First error a pipeline completion callback could not return to its
  // caller; FlushStaging reports (and clears) it.
  Status pipeline_error_ = OkStatus();
};

}  // namespace hl

#endif  // HIGHLIGHT_HIGHLIGHT_MIGRATOR_H_

// Lfs: a 4.4BSD-style log-structured file system over a BlockDevice.
//
// This is the substrate HighLight extends (paper section 3). All data are
// written as partial segments appended to a threaded segmented log; the inode
// map and segment-usage table live in the ifile (inode 1); a user-level
// cleaner (lfs/cleaner.h) reclaims dirty segments; periodic checkpoints plus
// roll-forward recovery restore state after a crash.
//
// Everything HighLight needs is exposed:
//  * the cleaner system-call surface (BmapV / RewriteBlocks / segment usage),
//  * the migrator's lfs_migratev-equivalent (ApplyMigration), and
//  * hooks for tertiary-address accounting, since the block device under an
//    Lfs may be HighLight's block-map driver whose address space includes
//    tertiary segments.
//
// Threading: single-threaded by design; the simulation serializes everything
// through the SimClock.

#ifndef HIGHLIGHT_LFS_LFS_H_
#define HIGHLIGHT_LFS_LFS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blockdev/block_device.h"
#include "lfs/buffer_cache.h"
#include "lfs/format.h"
#include "lfs/segment_builder.h"
#include "sim/sim_clock.h"
#include "util/status.h"

namespace hl {

struct LfsParams {
  uint32_t seg_size_blocks = 256;  // 1 MB segments.
  uint32_t initial_max_inodes = 8192;
  uint32_t buffer_cache_blocks = 819;  // 3.2 MB, the testbed's cache size.
  // HighLight extensions (all zero for a plain LFS):
  uint32_t cache_max_segments = 0;
  uint32_t tertiary_nsegs = 0;
  uint32_t segs_per_volume = 0;
  uint32_t num_volumes = 0;
  // When the Lfs sits on HighLight's block-map driver, the device spans the
  // whole unified address space; this gives the true disk-farm size.
  uint32_t disk_blocks_override = 0;
  // CPU cost model: LFS stages outgoing blocks through a contiguous buffer
  // before issuing one large write (the paper blames its slower sequential
  // writes on these extra copies; ~2.2 ms/block reproduces the Table 2 gap
  // on the HP 9000/370-class CPU).
  SimTime cpu_copy_us_per_block = 2200;
  // Auto-flush once this many dirty bytes accumulate (0 = one segment).
  uint64_t auto_flush_bytes = 0;
  // Read-ahead cluster size in blocks (16 x 4 KB = 64 KB, matching the
  // benchmarked FFS "maximum contiguous block count" of 16).
  uint32_t cluster_blocks = 16;
};

struct StatInfo {
  uint32_t ino = kNoInode;
  FileType type = FileType::kFree;
  uint64_t size = 0;
  uint16_t nlink = 0;
  uint64_t atime = 0;
  uint64_t mtime = 0;
  uint64_t ctime = 0;
  uint32_t blocks = 0;
};

// One live-block description from a segment, as consumed by the cleaner and
// migrator (the lfs_bmapv currency).
struct BlockRef {
  uint32_t ino = kNoInode;
  uint32_t version = 0;
  uint32_t lbn = 0;
  uint32_t daddr = kNoBlock;
};

// A parsed partial segment: where it sits plus its summary.
struct ParsedPartial {
  uint32_t base_daddr = kNoBlock;
  SegSummary summary;
  uint32_t num_blocks = 0;  // Summary + data + inode blocks.
};

// Walks the partial segments of a raw segment image whose first block sits
// at address `base_daddr`. Stops at the first invalid or stale summary.
// Shared by the disk cleaner, roll-forward tooling, the tertiary cleaner and
// fsck.
std::vector<ParsedPartial> ParsePartialsFromImage(
    std::span<const uint8_t> image, uint32_t base_daddr,
    uint32_t seg_size_blocks);

class Lfs {
 public:
  // Formats `dev` and returns a mounted file system. `tseg_file` selects the
  // HighLight variant (creates the tsegfile and cache-eligible segments).
  static Result<std::unique_ptr<Lfs>> Mkfs(BlockDevice* dev, SimClock* clock,
                                           const LfsParams& params);

  // Mounts an existing file system, rolling the log forward from the last
  // checkpoint.
  static Result<std::unique_ptr<Lfs>> Mount(BlockDevice* dev, SimClock* clock,
                                            const LfsParams& params);

  ~Lfs() = default;
  Lfs(const Lfs&) = delete;
  Lfs& operator=(const Lfs&) = delete;

  // --- Namespace operations --------------------------------------------------

  Result<uint32_t> Create(std::string_view path);
  Result<uint32_t> Mkdir(std::string_view path);
  // Hard link: `to` becomes another name for the file at `from`.
  Status Link(std::string_view from, std::string_view to);
  Status Unlink(std::string_view path);
  Status Rmdir(std::string_view path);
  Status Rename(std::string_view from, std::string_view to);
  Result<uint32_t> LookupPath(std::string_view path);
  Result<std::vector<DirEntry>> ReadDir(uint32_t dir_ino);
  Result<StatInfo> Stat(uint32_t ino);
  Result<StatInfo> StatPath(std::string_view path);

  // --- File I/O ----------------------------------------------------------------

  // Reads up to out.size() bytes at `offset`; returns bytes read (0 at EOF).
  Result<size_t> Read(uint32_t ino, uint64_t offset, std::span<uint8_t> out);
  Status Write(uint32_t ino, uint64_t offset, std::span<const uint8_t> data);
  Status Truncate(uint32_t ino, uint64_t new_size);

  // Forces all dirty data into the log (no checkpoint).
  Status Sync();
  // Sync + write the checkpoint region (mount recovers instantly to here).
  Status Checkpoint();

  // Drops the clean-block buffer cache (the benchmarks' per-phase flush).
  void FlushBufferCache() { buffer_cache_.Flush(); }

  // --- Cleaner / migrator interface (the LFS-specific syscalls) ---------------

  uint32_t NumSegments() const { return sb_.nsegs; }
  const Superblock& superblock() const { return sb_; }
  const SegUsage& GetSegUsage(uint32_t seg) const { return seguse_[seg]; }
  const CleanerInfo& cleaner_info() const { return cinfo_; }
  uint32_t cur_seg() const { return cur_seg_; }
  uint32_t cur_offset() const { return cur_offset_; }
  uint32_t next_seg() const { return next_seg_; }

  // Parses the partial segments of a (disk) segment. Stops at the first
  // invalid summary. The segment is read once, into an image buffer reused
  // across calls.
  Result<std::vector<ParsedPartial>> ParseSegment(uint32_t seg);

  // lfs_bmapv: current disk address of each (ino, lbn); kNoBlock when the
  // block is no longer reachable (deleted/superseded).
  std::vector<uint32_t> BmapV(const std::vector<BlockRef>& refs);

  // True if `ref` (as found in a segment summary) is still the live copy.
  bool IsLive(const BlockRef& ref);

  // lfs_markv: relocate still-live blocks by re-appending them to the log.
  // Skips any block whose current address no longer matches `ref.daddr`
  // (superseded while the cleaner worked). Does not touch mtimes. Each
  // queued block's buffer moves into the dirty map. Returns the number of
  // blocks actually queued.
  Result<size_t> RewriteBlocks(const std::vector<BlockRef>& refs,
                               std::vector<std::vector<uint8_t>> data);

  // Relocates an inode whose block lives in a segment being cleaned: if the
  // inode map still points into `expected_daddr`, the in-core inode is
  // marked dirty so the next flush re-homes it. Returns whether it did.
  Result<bool> RelocateInode(uint32_t ino, uint32_t expected_daddr);

  // Marks a segment clean (cleaner, after relocating its live data).
  Status MarkSegmentClean(uint32_t seg);
  // Marks a segment's usage entry (HighLight cache bookkeeping).
  Status SetSegFlags(uint32_t seg, uint16_t set, uint16_t clear);
  Status SetSegCacheTag(uint32_t seg, uint32_t tseg);

  // --- On-line reconfiguration (sections 6.4 and 10) ---------------------------

  // Incorporates freshly added disk capacity: the device now extends to
  // `new_disk_blocks`; new segments join the clean pool and the superblock
  // and ifile are updated. Fails if the new range would collide with the
  // tertiary address range.
  Status ExtendDisk(uint32_t new_disk_blocks);

  // Removes a (clean) segment from service — the disk-removal path: clean
  // all segments of the departing disk first, then retire them.
  Status RetireSegment(uint32_t seg);

  // Dynamic cache sizing support: converts a clean log segment into a
  // cache-eligible one (returns which), or a cache-eligible segment back to
  // the log pool.
  Result<uint32_t> ClaimCacheSegment();
  Status ReleaseCacheSegment(uint32_t seg);

  // --- Migration support (lfs_migratev side) ----------------------------------

  Result<DInode> GetInode(uint32_t ino);
  // Current media address of the inode itself (disk or tertiary).
  Result<uint32_t> InodeDaddr(uint32_t ino) const;
  // Reads one block (data or metadata lbn) of a file, returning its bytes
  // and current address. Reads through the block device (and hence through
  // HighLight's cache when migrated).
  Result<std::pair<std::vector<uint8_t>, uint32_t>> ReadFileBlock(
      uint32_t ino, uint32_t lbn);
  // All allocated blocks of a file: data lbns plus metadata lbns.
  Result<std::vector<BlockRef>> CollectFileBlocks(uint32_t ino);

  struct MigrationAssignment {
    uint32_t ino;
    uint32_t lbn;
    uint32_t old_daddr;
    uint32_t new_daddr;  // Tertiary address inside the staging segment.
  };
  // Applies one address reassignment after the migrator has copied the
  // block into a staging segment (the lfs_migratev flip). A data block
  // modified since the migrator read it is skipped (returns false); a
  // metadata block is always applied and its in-memory dirty copy retired,
  // since the staged copy is current.
  Result<bool> ApplyMigration(const MigrationAssignment& move);
  // Points the inode map at an inode's staged (tertiary) location. The inode
  // itself was placed in the staging segment by the migrator.
  Status ApplyInodeMigration(uint32_t ino, uint32_t tertiary_daddr);

  // Called with (daddr, delta_bytes) whenever accounting touches a tertiary
  // address, one call per delta in generation order; HighLight points this
  // at the tsegfile table.
  void SetTertiaryAccounting(std::function<void(uint32_t, int64_t)> fn) {
    tertiary_accounting_ = std::move(fn);
  }

  // Read-path observation hook: called with (ino, first_lbn, block_count)
  // for every regular-file data read — the in-kernel support the section
  // 5.2 access-range tracking requires.
  void SetReadObserver(
      std::function<void(uint32_t, uint32_t, uint32_t)> fn) {
    read_observer_ = std::move(fn);
  }

  // --- Introspection / statistics ----------------------------------------------

  struct Stats {
    uint64_t psegs_written = 0;
    uint64_t blocks_written = 0;
    uint64_t inode_blocks_written = 0;
    uint64_t summary_bytes_used = 0;    // Occupied bytes across summaries.
    uint64_t summary_blocks_written = 0;
    uint64_t reads_clustered = 0;
    uint64_t segments_consumed = 0;
  };
  const Stats& stats() const { return stats_; }
  BufferCache& buffer_cache() { return buffer_cache_; }
  uint32_t CleanSegmentCount() const;
  uint64_t DirtyBytes() const { return dirty_bytes_; }

  BlockDevice* device() { return dev_; }
  SimClock* clock() { return clock_; }

 private:
  Lfs(BlockDevice* dev, SimClock* clock, const LfsParams& params);

  // --- Setup -----------------------------------------------------------------
  Status InitFresh();
  Status LoadFromDevice();
  Status RollForward();

  // --- Inode management --------------------------------------------------------
  Result<DInode*> GetInodeRef(uint32_t ino);
  Result<DInode> ReadInodeFromDevice(uint32_t ino);
  Result<uint32_t> AllocInode(FileType type);
  Status FreeInode(uint32_t ino);
  void MarkInodeDirty(uint32_t ino) { dirty_inodes_.insert(ino); }

  // --- Block mapping ------------------------------------------------------------
  // Current address of a data or metadata lbn, kNoBlock if unallocated.
  // Indirect pointers are read where they lie: in the dirty block, or in
  // the buffer cache's copy.
  Result<uint32_t> Bmap(const DInode& inode, uint32_t lbn);
  // The current address of `ref`'s block, kNoBlock when it is unreachable.
  uint32_t CurrentAddress(const BlockRef& ref);
  // Points (ino, lbn) at new_daddr, loading/dirtying indirect blocks as
  // needed and adjusting segment usage for the old address.
  Status SetBmap(uint32_t ino, uint32_t lbn, uint32_t new_daddr);
  // Pointer `index` of metadata block `meta_lbn`: its dirty copy if there is
  // one, else the block at `daddr` (kNoBlock when unallocated). A cache miss
  // reads and caches the block.
  Result<uint32_t> ReadMetaPtr(uint32_t ino, uint32_t meta_lbn,
                               uint32_t daddr, uint32_t index);
  // Ensures a metadata block is present in the dirty map (loading or creating
  // it) and returns a pointer to its bytes.
  Result<std::vector<uint8_t>*> LoadMetaDirty(uint32_t ino, uint32_t meta_lbn);
  // Frees all blocks of a file at or above `from_lbn` (Truncate/FreeInode).
  Status FreeFileBlocks(uint32_t ino, uint32_t from_lbn);

  // --- Read path ------------------------------------------------------------------
  Status ReadBlockThroughCache(uint32_t daddr, std::span<uint8_t> out);
  // Clustered read of a file data block with read-ahead.
  Status ReadFileDataBlock(DInode& inode, uint32_t lbn,
                           std::span<uint8_t> out);

  // --- Write path -------------------------------------------------------------------
  std::vector<uint8_t>* FindDirtyBlock(uint32_t ino, uint32_t lbn);
  void PutDirtyBlock(uint32_t ino, uint32_t lbn, std::vector<uint8_t> data);
  // Removes a dirty block from the dirty map and returns its buffer.
  std::vector<uint8_t> TakeDirtyBlock(uint32_t ino, uint32_t lbn);
  Status FlushAll(bool for_checkpoint);
  // Appends the files' dirty blocks and inodes to the log
  // (AppendInodeSet); on any error, requeues the unwritten partial.
  Status FlushInodeSet(const std::vector<uint32_t>& inos, uint16_t ss_flags);
  Status AppendInodeSet(const std::vector<uint32_t>& inos, uint16_t ss_flags);
  Result<uint32_t> PickCleanSegment(uint32_t after) const;
  Status AdvanceSegment();
  Status WritePartial(SegmentBuilder& builder);
  // Hands the unwritten partial's buffers back to the dirty map and
  // re-dirties every inode it held.
  void RequeuePartial();
  // Adds `delta` live bytes to the segment holding `daddr`: a disk
  // segment's usage entry, or through the tertiary-accounting hook.
  void AccountAddress(uint32_t daddr, int64_t delta);

  // --- Directories -------------------------------------------------------------------
  Result<uint32_t> DirLookup(uint32_t dir_ino, std::string_view name);
  Status DirAddEntry(uint32_t dir_ino, std::string_view name, uint32_t ino);
  Status DirRemoveEntry(uint32_t dir_ino, std::string_view name);
  Result<bool> DirIsEmpty(uint32_t dir_ino);
  struct ResolvedPath {
    uint32_t parent = kNoInode;
    std::string leaf;
    uint32_t ino = kNoInode;  // kNoInode if the leaf does not exist.
  };
  Result<ResolvedPath> Resolve(std::string_view path);

  // --- Ifile (tables) -------------------------------------------------------------------
  uint32_t IfileSegUsageBlocks() const {
    return (sb_.nsegs + kSegUsagePerBlock - 1) / kSegUsagePerBlock;
  }
  uint32_t IfileImapBlocks() const {
    return (sb_.max_inodes + kInodeMapPerBlock - 1) / kInodeMapPerBlock;
  }
  // Serializes cleaner info + segment usage + inode map into ifile blocks.
  Status SerializeIfile();
  Status LoadIfile(const DInode& ifile_inode);

  uint64_t NowSeconds() const { return clock_->Now() / kUsPerSec; }

  // --- Members ------------------------------------------------------------------------
  BlockDevice* dev_;
  SimClock* clock_;
  LfsParams params_;
  Superblock sb_;
  CheckpointRegion cp_;
  bool checkpoint_slot_a_ = true;  // Which region the NEXT checkpoint uses.

  std::vector<SegUsage> seguse_;
  std::vector<InodeMapEntry> imap_;
  CleanerInfo cinfo_;

  std::unordered_map<uint32_t, DInode> inode_cache_;
  std::set<uint32_t> dirty_inodes_;
  // dirty_blocks_[ino][lbn] = block contents (data and metadata lbns).
  std::unordered_map<uint32_t, std::map<uint32_t, std::vector<uint8_t>>>
      dirty_blocks_;
  uint64_t dirty_bytes_ = 0;

  // The partial segment being assembled: dirty buffers that left the dirty
  // map for it (in builder order) and the inodes it holds. Written partials
  // hand the buffers to the buffer cache; unwritten ones hand them back.
  struct HeldBlock {
    uint32_t ino;
    uint32_t lbn;
    std::vector<uint8_t> bytes;
  };
  std::vector<HeldBlock> held_blocks_;
  std::vector<uint32_t> held_inodes_;
  std::vector<uint8_t> seg_arena_;    // The segment writer's image arena.
  std::vector<uint8_t> parse_image_;  // ParseSegment's reused read buffer.

  BufferCache buffer_cache_;
  // Per-file sequential-read detector: ino -> next expected lbn.
  std::unordered_map<uint32_t, uint32_t> readahead_state_;

  uint32_t cur_seg_ = 0;
  uint32_t cur_offset_ = 0;  // Blocks already used in cur_seg_.
  uint32_t next_seg_ = kNoSegment;
  uint64_t pseg_serial_ = 1;
  bool in_flush_ = false;

  std::function<void(uint32_t, int64_t)> tertiary_accounting_;
  std::function<void(uint32_t, uint32_t, uint32_t)> read_observer_;

  Stats stats_;

  friend class LfsTestPeer;
};

// Splits a path into components (used by Resolve and tests).
std::vector<std::string> SplitPath(std::string_view path);

}  // namespace hl

#endif  // HIGHLIGHT_LFS_LFS_H_

// Core lifecycle: mkfs, mount, ifile (de)serialization, checkpointing and
// roll-forward recovery. File I/O lives in lfs_io.cc, inode/bmap machinery in
// lfs_inode.cc, namespace operations in lfs_dir.cc and the cleaner/migrator
// surface in lfs_cleanerapi.cc.

#include "lfs/lfs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/crc32.h"
#include "util/logging.h"

namespace hl {

Lfs::Lfs(BlockDevice* dev, SimClock* clock, const LfsParams& params)
    : dev_(dev),
      clock_(clock),
      params_(params),
      buffer_cache_(params.buffer_cache_blocks) {
  if (params_.auto_flush_bytes == 0) {
    params_.auto_flush_bytes =
        static_cast<uint64_t>(params_.seg_size_blocks) * kBlockSize;
  }
}

Result<std::unique_ptr<Lfs>> Lfs::Mkfs(BlockDevice* dev, SimClock* clock,
                                       const LfsParams& params) {
  auto fs = std::unique_ptr<Lfs>(new Lfs(dev, clock, params));
  RETURN_IF_ERROR(fs->InitFresh());
  return fs;
}

Result<std::unique_ptr<Lfs>> Lfs::Mount(BlockDevice* dev, SimClock* clock,
                                        const LfsParams& params) {
  auto fs = std::unique_ptr<Lfs>(new Lfs(dev, clock, params));
  RETURN_IF_ERROR(fs->LoadFromDevice());
  return fs;
}

Status Lfs::InitFresh() {
  uint32_t disk_blocks = params_.disk_blocks_override != 0
                             ? params_.disk_blocks_override
                             : dev_->NumBlocks();
  if (disk_blocks < kDefaultReservedBlocks + 2 * params_.seg_size_blocks) {
    return InvalidArgument("device too small for an LFS");
  }
  sb_ = Superblock{};
  sb_.seg_size_blocks = params_.seg_size_blocks;
  sb_.reserved_blocks = kDefaultReservedBlocks;
  sb_.disk_blocks = disk_blocks;
  sb_.nsegs = (disk_blocks - sb_.reserved_blocks) / sb_.seg_size_blocks;
  sb_.max_inodes = params_.initial_max_inodes;
  sb_.cache_max_segments = params_.cache_max_segments;
  sb_.tertiary_nsegs = params_.tertiary_nsegs;
  sb_.segs_per_volume = params_.segs_per_volume;
  sb_.num_volumes = params_.num_volumes;
  sb_.created = clock_->Now();
  if (params_.tertiary_nsegs > 0) {
    // Tertiary addresses hang from the top of the 32-bit space: the last
    // tertiary block is kNoBlock - 1 (one segment of address space is
    // sacrificed to the unassigned sentinel and the boot-block shift).
    uint64_t span = static_cast<uint64_t>(params_.tertiary_nsegs) *
                    sb_.seg_size_blocks;
    uint64_t base = static_cast<uint64_t>(kNoBlock) - span;
    if (base <= disk_blocks) {
      return InvalidArgument("tertiary address range collides with disk");
    }
    sb_.tertiary_base = static_cast<uint32_t>(base);
    sb_.tseg_ino = kTsegInode;
    if (params_.cache_max_segments + 2 > sb_.nsegs) {
      return InvalidArgument("cache reservation leaves no log segments");
    }
  }

  seguse_.assign(sb_.nsegs, SegUsage{});
  for (auto& u : seguse_) {
    u.flags = kSegClean;
    u.avail_bytes = sb_.SegByteSize();
  }
  // Cache-eligible segments sit at the top of the disk address space so that
  // a second spindle appended via the concat driver naturally hosts the
  // cache/staging area (the Table 6 two-disk configurations).
  for (uint32_t i = 0; i < sb_.cache_max_segments; ++i) {
    seguse_[sb_.nsegs - 1 - i].flags |= kSegCacheEligible;
  }

  imap_.assign(sb_.max_inodes, InodeMapEntry{});
  cinfo_ = CleanerInfo{};
  cinfo_.max_inodes = sb_.max_inodes;
  // Free list: every inode above the reserved ones, ascending.
  cinfo_.free_inode_head = kFirstFileInode;
  for (uint32_t ino = kFirstFileInode; ino < sb_.max_inodes; ++ino) {
    imap_[ino].free_link =
        (ino + 1 < sb_.max_inodes) ? ino + 1 : kNoInode;
  }

  uint32_t eligible = sb_.nsegs - sb_.cache_max_segments;
  cinfo_.clean_segs = eligible;
  cinfo_.dirty_segs = 0;

  // Activate segment 0.
  cur_seg_ = 0;
  cur_offset_ = 0;
  seguse_[0].flags = kSegDirty | kSegActive;
  seguse_[0].write_time = clock_->Now();
  cinfo_.clean_segs--;
  cinfo_.dirty_segs++;
  ASSIGN_OR_RETURN(next_seg_, PickCleanSegment(0));

  // Write the superblock now; the geometry never changes afterwards.
  std::vector<uint8_t> block(kBlockSize, 0);
  sb_.Serialize(block);
  RETURN_IF_ERROR(dev_->WriteBlocks(kSuperblockBlock, 1, block));

  // Ifile inode (contents are materialized at checkpoint time).
  DInode ifile;
  ifile.ino = kIfileInode;
  ifile.type = FileType::kRegular;
  ifile.nlink = 1;
  ifile.ctime = ifile.mtime = clock_->Now();
  inode_cache_[kIfileInode] = ifile;
  MarkInodeDirty(kIfileInode);

  // Root directory.
  DInode root;
  root.ino = kRootInode;
  root.type = FileType::kDirectory;
  root.nlink = 2;
  root.ctime = root.mtime = clock_->Now();
  inode_cache_[kRootInode] = root;
  MarkInodeDirty(kRootInode);
  RETURN_IF_ERROR(DirAddEntry(kRootInode, ".", kRootInode));
  RETURN_IF_ERROR(DirAddEntry(kRootInode, "..", kRootInode));

  // Tsegfile: tertiary segment usage table (HighLight only).
  if (sb_.tseg_ino != 0) {
    DInode tseg;
    tseg.ino = kTsegInode;
    tseg.type = FileType::kRegular;
    tseg.nlink = 1;
    tseg.ctime = tseg.mtime = clock_->Now();
    inode_cache_[kTsegInode] = tseg;
    MarkInodeDirty(kTsegInode);
    std::vector<uint8_t> entries(
        static_cast<size_t>(sb_.tertiary_nsegs) * SegUsage::kEncodedSize, 0);
    SegUsage fresh;
    fresh.flags = kSegClean;
    fresh.avail_bytes = sb_.SegByteSize();
    for (uint32_t t = 0; t < sb_.tertiary_nsegs; ++t) {
      fresh.Serialize(std::span<uint8_t>(
          entries.data() + static_cast<size_t>(t) * SegUsage::kEncodedSize,
          SegUsage::kEncodedSize));
    }
    RETURN_IF_ERROR(Write(kTsegInode, 0, entries));
  }

  return Checkpoint();
}

Status Lfs::LoadFromDevice() {
  std::vector<uint8_t> block(kBlockSize);
  RETURN_IF_ERROR(dev_->ReadBlocks(kSuperblockBlock, 1, block));
  ASSIGN_OR_RETURN(sb_, Superblock::Deserialize(block));
  if (sb_.seg_size_blocks != params_.seg_size_blocks) {
    params_.seg_size_blocks = sb_.seg_size_blocks;
  }

  // Pick the newer valid checkpoint.
  CheckpointRegion best{};
  bool have_cp = false;
  bool best_is_a = true;
  for (uint32_t addr : {kCheckpointBlockA, kCheckpointBlockB}) {
    RETURN_IF_ERROR(dev_->ReadBlocks(addr, 1, block));
    Result<CheckpointRegion> cp = CheckpointRegion::Deserialize(block);
    if (cp.ok() && (!have_cp || cp->serial > best.serial)) {
      best = *cp;
      best_is_a = addr == kCheckpointBlockA;
      have_cp = true;
    }
  }
  if (!have_cp) {
    return Corruption("no valid checkpoint region");
  }
  cp_ = best;
  // The next checkpoint goes to the other slot.
  checkpoint_slot_a_ = !best_is_a;

  // Load the ifile via the checkpointed inode address.
  RETURN_IF_ERROR(dev_->ReadBlocks(cp_.ifile_inode_daddr, 1, block));
  DInode ifile_inode;
  bool found = false;
  for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
    Result<DInode> d = DInode::Deserialize(std::span<const uint8_t>(
        block.data() + slot * kInodeSize, kInodeSize));
    if (d.ok() && d->ino == kIfileInode) {
      ifile_inode = *d;
      found = true;
      break;
    }
  }
  if (!found) {
    return Corruption("ifile inode not at checkpointed address");
  }
  RETURN_IF_ERROR(LoadIfile(ifile_inode));
  inode_cache_[kIfileInode] = ifile_inode;
  imap_[kIfileInode].daddr = cp_.ifile_inode_daddr;

  cur_seg_ = cp_.cur_seg;
  cur_offset_ = cp_.cur_offset;
  next_seg_ = cp_.next_seg;
  pseg_serial_ = cp_.pseg_serial;

  RETURN_IF_ERROR(RollForward());

  // Rebuild the clean/dirty counts from the (recovered) usage table.
  cinfo_.clean_segs = 0;
  cinfo_.dirty_segs = 0;
  for (const SegUsage& u : seguse_) {
    if (u.flags & kSegClean) {
      if (!(u.flags & kSegCacheEligible)) {
        cinfo_.clean_segs++;
      }
    } else {
      cinfo_.dirty_segs++;
    }
  }
  return OkStatus();
}

Status Lfs::LoadIfile(const DInode& ifile_inode) {
  // The ifile layout: [cleaner info][segment usage][inode map].
  uint64_t size = ifile_inode.size;
  std::vector<uint8_t> content(size);
  // Read through bmap on the provided inode (cannot use Read(): the inode
  // cache is not populated yet).
  uint32_t nblocks = static_cast<uint32_t>((size + kBlockSize - 1) / kBlockSize);
  DInode inode_copy = ifile_inode;
  std::vector<uint8_t> blockbuf(kBlockSize);
  for (uint32_t lbn = 0; lbn < nblocks; ++lbn) {
    ASSIGN_OR_RETURN(uint32_t daddr, Bmap(inode_copy, lbn));
    if (daddr == kNoBlock) {
      std::memset(blockbuf.data(), 0, kBlockSize);
    } else {
      RETURN_IF_ERROR(dev_->ReadBlocks(daddr, 1, blockbuf));
    }
    size_t off = static_cast<size_t>(lbn) * kBlockSize;
    size_t take = std::min<size_t>(kBlockSize, size - off);
    std::memcpy(content.data() + off, blockbuf.data(), take);
  }

  cinfo_ = CleanerInfo::Deserialize(
      std::span<const uint8_t>(content.data(), kBlockSize));
  sb_.max_inodes = cinfo_.max_inodes;

  seguse_.assign(sb_.nsegs, SegUsage{});
  size_t off = kBlockSize;
  for (uint32_t seg = 0; seg < sb_.nsegs; ++seg) {
    size_t block_index = seg / kSegUsagePerBlock;
    size_t entry_index = seg % kSegUsagePerBlock;
    size_t pos = kBlockSize * (1 + block_index) +
                 entry_index * SegUsage::kEncodedSize;
    if (pos + SegUsage::kEncodedSize > content.size()) {
      return Corruption("ifile truncated in segment usage table");
    }
    seguse_[seg] = SegUsage::Deserialize(std::span<const uint8_t>(
        content.data() + pos, SegUsage::kEncodedSize));
  }
  off = kBlockSize * (1 + IfileSegUsageBlocks());

  imap_.assign(sb_.max_inodes, InodeMapEntry{});
  for (uint32_t ino = 0; ino < sb_.max_inodes; ++ino) {
    size_t block_index = ino / kInodeMapPerBlock;
    size_t entry_index = ino % kInodeMapPerBlock;
    size_t pos = off + kBlockSize * block_index +
                 entry_index * InodeMapEntry::kEncodedSize;
    if (pos + InodeMapEntry::kEncodedSize > content.size()) {
      return Corruption("ifile truncated in inode map");
    }
    imap_[ino] = InodeMapEntry::Deserialize(std::span<const uint8_t>(
        content.data() + pos, InodeMapEntry::kEncodedSize));
  }
  return OkStatus();
}

Status Lfs::SerializeIfile() {
  // Pessimistically mark the segments the upcoming ifile flush may consume as
  // dirty *in the serialized image only*, so a crash right after the
  // checkpoint can never hand live segments to the log writer (the in-memory
  // table stays truthful; see Checkpoint()).
  uint32_t ifile_blocks = 1 + IfileSegUsageBlocks() + IfileImapBlocks();
  uint32_t reserve = 2 + ifile_blocks / sb_.seg_size_blocks + 2;
  std::vector<uint32_t> reserved;
  reserved.push_back(cur_seg_);
  if (next_seg_ != kNoSegment) {
    reserved.push_back(next_seg_);
  }
  uint32_t scan = next_seg_ == kNoSegment ? cur_seg_ : next_seg_;
  for (uint32_t i = 0; i < reserve && reserved.size() < reserve + 2; ++i) {
    Result<uint32_t> pick = PickCleanSegment(scan);
    if (!pick.ok()) {
      break;
    }
    // PickCleanSegment scans round-robin; avoid duplicates by advancing.
    if (std::find(reserved.begin(), reserved.end(), *pick) !=
        reserved.end()) {
      break;
    }
    reserved.push_back(*pick);
    scan = *pick;
  }

  std::vector<uint8_t> content(
      static_cast<size_t>(ifile_blocks) * kBlockSize, 0);
  cinfo_.max_inodes = sb_.max_inodes;
  cinfo_.Serialize(std::span<uint8_t>(content.data(), kBlockSize));
  for (uint32_t seg = 0; seg < sb_.nsegs; ++seg) {
    SegUsage u = seguse_[seg];
    if (std::find(reserved.begin(), reserved.end(), seg) != reserved.end()) {
      u.flags = static_cast<uint16_t>((u.flags & ~kSegClean) | kSegDirty);
    }
    size_t pos = kBlockSize * (1 + seg / kSegUsagePerBlock) +
                 (seg % kSegUsagePerBlock) * SegUsage::kEncodedSize;
    u.Serialize(std::span<uint8_t>(content.data() + pos,
                                   SegUsage::kEncodedSize));
  }
  size_t imap_off = kBlockSize * (1 + IfileSegUsageBlocks());
  for (uint32_t ino = 0; ino < sb_.max_inodes; ++ino) {
    size_t pos = imap_off + kBlockSize * (ino / kInodeMapPerBlock) +
                 (ino % kInodeMapPerBlock) * InodeMapEntry::kEncodedSize;
    imap_[ino].Serialize(std::span<uint8_t>(content.data() + pos,
                                            InodeMapEntry::kEncodedSize));
  }
  // Rewrite the whole ifile; at our scales this is a handful of blocks.
  RETURN_IF_ERROR(Write(kIfileInode, 0, content));
  ASSIGN_OR_RETURN(DInode * ifile, GetInodeRef(kIfileInode));
  if (ifile->size > content.size()) {
    RETURN_IF_ERROR(Truncate(kIfileInode, content.size()));
  }
  return OkStatus();
}

Status Lfs::Sync() { return FlushAll(/*for_checkpoint=*/false); }

Status Lfs::Checkpoint() {
  // Phase 1: push all regular dirty data into the log, so the tables we are
  // about to serialize reflect final addresses.
  RETURN_IF_ERROR(FlushAll(/*for_checkpoint=*/false));
  // Phase 2: serialize tables and flush the ifile itself.
  RETURN_IF_ERROR(SerializeIfile());
  RETURN_IF_ERROR(FlushAll(/*for_checkpoint=*/true));
  // Phase 3: the checkpoint region.
  cp_.serial++;
  cp_.ifile_inode_daddr = imap_[kIfileInode].daddr;
  cp_.cur_seg = cur_seg_;
  cp_.cur_offset = cur_offset_;
  cp_.next_seg = next_seg_;
  cp_.timestamp = clock_->Now();
  cp_.pseg_serial = pseg_serial_;
  std::vector<uint8_t> block(kBlockSize, 0);
  cp_.Serialize(block);
  uint32_t addr = checkpoint_slot_a_ ? kCheckpointBlockA : kCheckpointBlockB;
  RETURN_IF_ERROR(dev_->WriteBlocks(addr, 1, block));
  checkpoint_slot_a_ = !checkpoint_slot_a_;
  return OkStatus();
}

Status Lfs::RollForward() {
  uint32_t seg = cur_seg_;
  uint32_t offset = cur_offset_;
  uint64_t expect_serial = pseg_serial_;
  uint32_t rolled = 0;
  std::vector<uint8_t> sumblock(kBlockSize);

  while (true) {
    if (offset + 2 > sb_.seg_size_blocks) {
      // Segment exhausted without a thread pointer; recovery complete.
      break;
    }
    uint32_t base = sb_.SegFirstBlock(seg) + offset;
    if (dev_->ReadBlocks(base, 1, sumblock).ok() == false) {
      break;
    }
    Result<SegSummary> sum = SegSummary::DeserializeFromBlock(sumblock);
    if (!sum.ok() || sum->serial != expect_serial) {
      break;  // Torn or stale partial segment: the log ends here.
    }
    uint32_t data_blocks = sum->TotalDataBlocks();
    uint32_t inode_blocks = static_cast<uint32_t>(sum->inode_daddrs.size());
    uint32_t total = 1 + data_blocks + inode_blocks;
    if (offset + total > sb_.seg_size_blocks) {
      break;  // Summary claims more than fits; treat as torn.
    }
    std::vector<uint8_t> body(static_cast<size_t>(total - 1) * kBlockSize);
    if (!dev_->ReadBlocks(base + 1, total - 1, body).ok()) {
      break;
    }
    // Verify the data checksum before trusting anything.
    if (Crc32(body) != sum->datasum) {
      break;
    }
    // Apply inode updates: every inode in the trailing inode blocks is newer
    // than anything the checkpointed inode map knows.
    for (uint32_t ib = 0; ib < inode_blocks; ++ib) {
      const uint8_t* blk =
          body.data() + (static_cast<size_t>(data_blocks) + ib) * kBlockSize;
      uint32_t daddr = sum->inode_daddrs[ib];
      for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
        Result<DInode> d = DInode::Deserialize(
            std::span<const uint8_t>(blk + slot * kInodeSize, kInodeSize));
        if (!d.ok() || d->ino == kNoInode) {
          continue;
        }
        if (d->ino >= imap_.size()) {
          imap_.resize(d->ino + 1);
          sb_.max_inodes = static_cast<uint32_t>(imap_.size());
        }
        if (d->version >= imap_[d->ino].version) {
          imap_[d->ino].daddr = daddr;
          imap_[d->ino].version = d->version;
        }
      }
    }
    // Account the rolled blocks as live in this segment.
    SegUsage& u = seguse_[seg];
    u.flags = static_cast<uint16_t>((u.flags & ~kSegClean) | kSegDirty);
    u.live_bytes += data_blocks * kBlockSize + inode_blocks * kBlockSize;
    u.write_time = clock_->Now();

    offset += total;
    expect_serial++;
    rolled++;
    // If this summary says the log continues in another segment and this
    // segment cannot hold another partial segment, follow the thread.
    if (offset + 2 > sb_.seg_size_blocks) {
      if (sum->next == kNoSegment || sum->next >= sb_.nsegs) {
        break;
      }
      seg = sum->next;
      offset = 0;
      // Pre-pick a fresh next for the resumed log.
      next_seg_ = kNoSegment;
    }
  }

  cur_seg_ = seg;
  cur_offset_ = offset;
  pseg_serial_ = expect_serial;
  // Only the final log-tail segment is active; roll-forward may have moved
  // past the segment that was active at checkpoint time.
  for (SegUsage& u : seguse_) {
    u.flags &= static_cast<uint16_t>(~kSegActive);
  }
  seguse_[cur_seg_].flags =
      static_cast<uint16_t>((seguse_[cur_seg_].flags & ~kSegClean) |
                            kSegDirty | kSegActive);
  if (next_seg_ == kNoSegment || next_seg_ >= sb_.nsegs ||
      !(seguse_[next_seg_].flags & kSegClean)) {
    Result<uint32_t> pick = PickCleanSegment(cur_seg_);
    next_seg_ = pick.ok() ? *pick : kNoSegment;
  }
  if (rolled > 0) {
    HL_LOG(kInfo, "lfs",
           "roll-forward recovered " + std::to_string(rolled) +
               " partial segments");
  }
  return OkStatus();
}

Result<uint32_t> Lfs::PickCleanSegment(uint32_t after) const {
  for (uint32_t i = 1; i <= sb_.nsegs; ++i) {
    uint32_t seg = (after + i) % sb_.nsegs;
    const SegUsage& u = seguse_[seg];
    if ((u.flags & kSegClean) && !(u.flags & kSegCacheEligible) &&
        !(u.flags & kSegNoStore) && seg != cur_seg_) {
      return seg;
    }
  }
  return NoSpace("no clean segments");
}

Status Lfs::AdvanceSegment() {
  seguse_[cur_seg_].flags &= static_cast<uint16_t>(~kSegActive);
  if (next_seg_ == kNoSegment) {
    ASSIGN_OR_RETURN(next_seg_, PickCleanSegment(cur_seg_));
  }
  cur_seg_ = next_seg_;
  cur_offset_ = 0;
  SegUsage& u = seguse_[cur_seg_];
  if (u.flags & kSegClean) {
    cinfo_.clean_segs--;
    cinfo_.dirty_segs++;
  }
  u.flags = kSegDirty | kSegActive;
  u.live_bytes = 0;
  u.write_time = clock_->Now();
  stats_.segments_consumed++;
  Result<uint32_t> pick = PickCleanSegment(cur_seg_);
  next_seg_ = pick.ok() ? *pick : kNoSegment;
  return OkStatus();
}

void Lfs::AccountAddress(uint32_t daddr, int64_t delta) {
  if (daddr == kNoBlock) {
    return;
  }
  if (sb_.IsTertiaryAddr(daddr)) {
    if (tertiary_accounting_) {
      tertiary_accounting_(daddr, delta);
    }
    return;
  }
  if (!sb_.IsDiskAddr(daddr) || daddr < sb_.reserved_blocks) {
    return;
  }
  uint32_t seg = sb_.BlockToSeg(daddr);
  if (seg >= seguse_.size()) {
    return;
  }
  SegUsage& u = seguse_[seg];
  if (delta < 0 && u.live_bytes < static_cast<uint64_t>(-delta)) {
    u.live_bytes = 0;
  } else {
    u.live_bytes = static_cast<uint32_t>(u.live_bytes + delta);
  }
}

Status Lfs::ExtendDisk(uint32_t new_disk_blocks) {
  if (new_disk_blocks <= sb_.disk_blocks) {
    return InvalidArgument("disk did not grow");
  }
  if (dev_->NumBlocks() < new_disk_blocks) {
    return InvalidArgument("device smaller than requested size");
  }
  if (sb_.tertiary_nsegs != 0 && new_disk_blocks >= sb_.tertiary_base) {
    return InvalidArgument("growth would collide with tertiary addresses");
  }
  uint32_t new_nsegs =
      (new_disk_blocks - sb_.reserved_blocks) / sb_.seg_size_blocks;
  if (new_nsegs <= sb_.nsegs) {
    return InvalidArgument("growth smaller than one segment");
  }
  uint32_t added = new_nsegs - sb_.nsegs;
  SegUsage fresh;
  fresh.flags = kSegClean;
  fresh.avail_bytes = sb_.SegByteSize();
  seguse_.resize(new_nsegs, fresh);
  sb_.nsegs = new_nsegs;
  sb_.disk_blocks = new_disk_blocks;
  cinfo_.clean_segs += added;
  // Persist the new geometry, then the grown ifile.
  std::vector<uint8_t> block(kBlockSize, 0);
  sb_.Serialize(block);
  RETURN_IF_ERROR(dev_->WriteBlocks(kSuperblockBlock, 1, block));
  return Checkpoint();
}

Status Lfs::RetireSegment(uint32_t seg) {
  if (seg >= sb_.nsegs) {
    return OutOfRange("no segment " + std::to_string(seg));
  }
  SegUsage& u = seguse_[seg];
  if (!(u.flags & kSegClean)) {
    return Status(ErrorCode::kBusy,
                  "segment must be cleaned before removal");
  }
  if (seg == cur_seg_ || seg == next_seg_) {
    return Status(ErrorCode::kBusy, "segment in use by the log");
  }
  bool counted = !(u.flags & kSegCacheEligible);
  u.flags = kSegNoStore;
  u.avail_bytes = 0;
  if (counted && cinfo_.clean_segs > 0) {
    cinfo_.clean_segs--;
  }
  return OkStatus();
}

Result<uint32_t> Lfs::ClaimCacheSegment() {
  for (uint32_t i = 1; i <= sb_.nsegs; ++i) {
    uint32_t seg = (cur_seg_ + i) % sb_.nsegs;
    SegUsage& u = seguse_[seg];
    if ((u.flags & kSegClean) && !(u.flags & (kSegCacheEligible |
                                              kSegNoStore)) &&
        seg != cur_seg_ && seg != next_seg_) {
      u.flags |= kSegCacheEligible;
      if (cinfo_.clean_segs > 0) {
        cinfo_.clean_segs--;
      }
      return seg;
    }
  }
  return NoSpace("no clean segment available for cache growth");
}

Status Lfs::ReleaseCacheSegment(uint32_t seg) {
  if (seg >= sb_.nsegs) {
    return OutOfRange("no segment " + std::to_string(seg));
  }
  SegUsage& u = seguse_[seg];
  if (!(u.flags & kSegCacheEligible)) {
    return InvalidArgument("segment is not cache-eligible");
  }
  if (u.flags & (kSegCached | kSegStaging)) {
    return Status(ErrorCode::kBusy, "segment holds a cache line");
  }
  u.flags = kSegClean;
  cinfo_.clean_segs++;
  return OkStatus();
}

uint32_t Lfs::CleanSegmentCount() const {
  uint32_t count = 0;
  for (const SegUsage& u : seguse_) {
    if ((u.flags & kSegClean) && !(u.flags & kSegCacheEligible) &&
        !(u.flags & kSegNoStore)) {
      ++count;
    }
  }
  return count;
}

std::vector<std::string> SplitPath(std::string_view path) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start < path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string_view::npos) {
      slash = path.size();
    }
    if (slash > start) {
      parts.emplace_back(path.substr(start, slash - start));
    }
    start = slash + 1;
  }
  return parts;
}

}  // namespace hl

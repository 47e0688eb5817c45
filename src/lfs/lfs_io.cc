// File read/write paths and the segment writer.
//
// Writes accumulate in per-inode dirty-block maps and are assembled into
// partial segments by FlushInodeSet(), which is shared by Sync, Checkpoint
// and the auto-flush that fires when a segment's worth of dirty data exists.
// The flush order per file is: data blocks, double-indirect children, the
// double-indirect root, the single indirect, then the inode — which
// guarantees every partial segment is self-describing (an inode in a partial
// segment points only at blocks in the same or earlier partial segments),
// the property roll-forward recovery relies on.
//
// Each block is copied three times on its way to the log: caller -> dirty
// buffer, dirty buffer -> segment arena (fused with the datasum CRC), arena
// -> device. A buffer leaves the dirty map as it enters the builder; once
// the partial is written the buffer itself moves into the buffer cache.

#include <algorithm>
#include <cassert>
#include <cstring>

#include "lfs/lfs.h"
#include "util/logging.h"

namespace hl {

std::vector<uint8_t>* Lfs::FindDirtyBlock(uint32_t ino, uint32_t lbn) {
  auto it = dirty_blocks_.find(ino);
  if (it == dirty_blocks_.end()) {
    return nullptr;
  }
  auto bit = it->second.find(lbn);
  if (bit == it->second.end()) {
    return nullptr;
  }
  return &bit->second;
}

void Lfs::PutDirtyBlock(uint32_t ino, uint32_t lbn,
                        std::vector<uint8_t> data) {
  assert(data.size() == kBlockSize);
  auto& per_file = dirty_blocks_[ino];
  auto it = per_file.find(lbn);
  if (it == per_file.end()) {
    per_file.emplace(lbn, std::move(data));
    dirty_bytes_ += kBlockSize;
  } else {
    it->second = std::move(data);
  }
}

std::vector<uint8_t> Lfs::TakeDirtyBlock(uint32_t ino, uint32_t lbn) {
  auto it = dirty_blocks_.find(ino);
  assert(it != dirty_blocks_.end());
  auto node = it->second.extract(lbn);
  assert(!node.empty());
  dirty_bytes_ -= kBlockSize;
  if (it->second.empty()) {
    dirty_blocks_.erase(it);
  }
  return std::move(node.mapped());
}

Status Lfs::ReadBlockThroughCache(uint32_t daddr, std::span<uint8_t> out) {
  if (buffer_cache_.Lookup(daddr, out)) {
    return OkStatus();
  }
  RETURN_IF_ERROR(dev_->ReadBlocks(daddr, 1, out));
  buffer_cache_.Insert(daddr, std::span<const uint8_t>(out.data(), out.size()));
  return OkStatus();
}

Status Lfs::ReadFileDataBlock(DInode& inode, uint32_t lbn,
                              std::span<uint8_t> out) {
  if (std::vector<uint8_t>* dirty = FindDirtyBlock(inode.ino, lbn)) {
    std::memcpy(out.data(), dirty->data(), kBlockSize);
    return OkStatus();
  }
  ASSIGN_OR_RETURN(uint32_t daddr, Bmap(inode, lbn));
  if (daddr == kNoBlock) {
    std::memset(out.data(), 0, out.size());
    return OkStatus();
  }
  if (buffer_cache_.Lookup(daddr, out)) {
    return OkStatus();
  }

  // Sequential-streak detector: after two consecutive sequential accesses
  // the read path clusters up to cluster_blocks contiguous blocks in one
  // device operation (the read-clustering both FFS and 4.4BSD LFS share).
  uint32_t& streak_next = readahead_state_[inode.ino];
  bool sequential = lbn != 0 && lbn == streak_next;
  streak_next = lbn + 1;

  uint32_t cluster = 1;
  if (sequential && params_.cluster_blocks > 1) {
    // Extend while logical blocks map to physically contiguous addresses.
    while (cluster < params_.cluster_blocks) {
      uint32_t next_lbn = lbn + cluster;
      if (FindDirtyBlock(inode.ino, next_lbn) != nullptr) {
        break;
      }
      Result<uint32_t> next = Bmap(inode, next_lbn);
      if (!next.ok() || *next != daddr + cluster) {
        break;
      }
      ++cluster;
    }
  }
  if (cluster == 1) {
    RETURN_IF_ERROR(dev_->ReadBlocks(daddr, 1, out));
    buffer_cache_.Insert(daddr,
                         std::span<const uint8_t>(out.data(), out.size()));
    return OkStatus();
  }
  std::vector<uint8_t> buf(static_cast<size_t>(cluster) * kBlockSize);
  RETURN_IF_ERROR(dev_->ReadBlocks(daddr, cluster, buf));
  stats_.reads_clustered++;
  for (uint32_t i = 0; i < cluster; ++i) {
    buffer_cache_.Insert(daddr + i,
                         std::span<const uint8_t>(
                             buf.data() + static_cast<size_t>(i) * kBlockSize,
                             kBlockSize));
  }
  std::memcpy(out.data(), buf.data(), kBlockSize);
  return OkStatus();
}

Result<size_t> Lfs::Read(uint32_t ino, uint64_t offset,
                         std::span<uint8_t> out) {
  ASSIGN_OR_RETURN(DInode * inode_ref, GetInodeRef(ino));
  if (offset >= inode_ref->size) {
    return static_cast<size_t>(0);
  }
  size_t want = static_cast<size_t>(
      std::min<uint64_t>(out.size(), inode_ref->size - offset));
  size_t done = 0;
  std::vector<uint8_t> blockbuf(kBlockSize);
  while (done < want) {
    uint64_t pos = offset + done;
    uint32_t lbn = static_cast<uint32_t>(pos / kBlockSize);
    uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
    size_t take = std::min<size_t>(kBlockSize - in_block, want - done);
    // Re-fetch the inode ref: block reads can shuffle the inode cache.
    ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
    RETURN_IF_ERROR(ReadFileDataBlock(*inode, lbn, blockbuf));
    std::memcpy(out.data() + done, blockbuf.data() + in_block, take);
    done += take;
  }
  // Access-time maintenance (the migrator's STP policy feeds on this). The
  // ifile and tsegfile are exempt (internal bookkeeping), as are directories:
  // BSD does not update directory access times on normal directory accesses,
  // which is what lets the migrator walk the tree without disturbing the very
  // signal it ranks by (paper section 5.3).
  if (ino != kIfileInode && ino != kTsegInode) {
    ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
    if (inode->type == FileType::kRegular) {
      inode->atime = clock_->Now();
      MarkInodeDirty(ino);
      if (read_observer_ && done > 0) {
        uint32_t first_lbn = static_cast<uint32_t>(offset / kBlockSize);
        uint32_t last_lbn =
            static_cast<uint32_t>((offset + done - 1) / kBlockSize);
        read_observer_(ino, first_lbn, last_lbn - first_lbn + 1);
      }
    }
  }
  return done;
}

Status Lfs::Write(uint32_t ino, uint64_t offset,
                  std::span<const uint8_t> data) {
  if (data.empty()) {
    return OkStatus();
  }
  {
    ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
    uint64_t end = offset + data.size();
    if ((end + kBlockSize - 1) / kBlockSize > kMaxFileBlocks) {
      return Status(ErrorCode::kFileTooLarge, "write beyond max file size");
    }
    (void)inode;
  }
  size_t done = 0;
  while (done < data.size()) {
    uint64_t pos = offset + done;
    uint32_t lbn = static_cast<uint32_t>(pos / kBlockSize);
    uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
    size_t take = std::min<size_t>(kBlockSize - in_block, data.size() - done);

    std::vector<uint8_t>* dirty = FindDirtyBlock(ino, lbn);
    if (dirty == nullptr && take == kBlockSize) {
      // A whole block: the fresh dirty buffer is filled straight from the
      // caller's bytes.
      const uint8_t* src = data.data() + done;
      PutDirtyBlock(ino, lbn, std::vector<uint8_t>(src, src + kBlockSize));
      done += take;
      continue;
    }
    if (dirty == nullptr) {
      std::vector<uint8_t> block(kBlockSize, 0);
      // Partial block: read-modify-write against the current contents.
      ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
      uint64_t blk_start = static_cast<uint64_t>(lbn) * kBlockSize;
      if (blk_start < inode->size) {
        RETURN_IF_ERROR(ReadFileDataBlock(*inode, lbn, block));
      }
      PutDirtyBlock(ino, lbn, std::move(block));
      dirty = FindDirtyBlock(ino, lbn);
    }
    std::memcpy(dirty->data() + in_block, data.data() + done, take);
    done += take;
  }
  ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
  uint64_t end = offset + data.size();
  if (end > inode->size) {
    inode->size = end;
  }
  inode->mtime = inode->ctime = clock_->Now();
  MarkInodeDirty(ino);

  if (!in_flush_ && dirty_bytes_ >= params_.auto_flush_bytes) {
    RETURN_IF_ERROR(FlushAll(/*for_checkpoint=*/false));
  }
  return OkStatus();
}

Status Lfs::FlushAll(bool for_checkpoint) {
  if (in_flush_) {
    return OkStatus();
  }
  in_flush_ = true;
  std::set<uint32_t> inos(dirty_inodes_);
  for (const auto& [ino, blocks] : dirty_blocks_) {
    if (!blocks.empty()) {
      inos.insert(ino);
    }
  }
  std::vector<uint32_t> ordered(inos.begin(), inos.end());
  Status status = FlushInodeSet(
      ordered, for_checkpoint ? kSsFlagCheckpoint : static_cast<uint16_t>(0));
  in_flush_ = false;
  return status;
}

Status Lfs::WritePartial(SegmentBuilder& builder) {
  // Serials are assigned at write time so an abandoned builder never leaves
  // a gap (roll-forward requires a contiguous serial chain).
  builder.set_serial(pseg_serial_);
  ASSIGN_OR_RETURN(SegmentBuilder::Image image, builder.Finish());
  // On failure FlushInodeSet hands the held buffers back to the dirty map.
  RETURN_IF_ERROR(
      dev_->WriteBlocks(image.base_daddr, image.num_blocks, image.bytes));
  pseg_serial_++;  // Only a written partial segment consumes a serial.
  // The extra staging copies LFS performs before issuing one large write
  // (the paper's explanation for LFS sequential-write overhead).
  clock_->Advance(params_.cpu_copy_us_per_block * image.num_blocks);

  // Inode-map updates: exact addresses are known only now.
  for (const auto& ia : image.inodes) {
    uint32_t old_daddr = imap_[ia.ino].daddr;
    AccountAddress(old_daddr, -static_cast<int64_t>(kInodeSize));
    imap_[ia.ino].daddr = ia.daddr;
    AccountAddress(ia.daddr, static_cast<int64_t>(kInodeSize));
  }
  // Freshly written blocks stay hot in the buffer cache under their new
  // addresses, as they would in the 4.4BSD buffer cache, inserted in address
  // order: the data buffers move in, the inode blocks are copied from the
  // image.
  assert(held_blocks_.size() == image.blocks.size());
  for (size_t i = 0; i < image.blocks.size(); ++i) {
    buffer_cache_.Adopt(image.blocks[i].daddr,
                        std::move(held_blocks_[i].bytes));
  }
  for (uint32_t i = 1 + static_cast<uint32_t>(image.blocks.size());
       i < image.num_blocks; ++i) {
    buffer_cache_.Insert(image.base_daddr + i,
                         image.bytes.subspan(
                             static_cast<size_t>(i) * kBlockSize, kBlockSize));
  }
  held_blocks_.clear();
  held_inodes_.clear();
  cur_offset_ += image.num_blocks;
  stats_.psegs_written++;
  stats_.summary_blocks_written++;
  stats_.summary_bytes_used += image.summary_bytes;
  stats_.blocks_written += image.blocks.size();
  stats_.inode_blocks_written +=
      image.num_blocks - 1 - static_cast<uint32_t>(image.blocks.size());
  return OkStatus();
}

void Lfs::RequeuePartial() {
  // The blocks were unhooked from the dirty map and re-pointed at addresses
  // that were never written; the stale pointers are overwritten when a
  // later flush re-homes them. A dirty copy made since is newer: keep it.
  for (HeldBlock& held : held_blocks_) {
    if (dirty_blocks_[held.ino].try_emplace(held.lbn, std::move(held.bytes))
            .second) {
      dirty_bytes_ += kBlockSize;
    }
    MarkInodeDirty(held.ino);
  }
  for (uint32_t ino : held_inodes_) {
    MarkInodeDirty(ino);  // The inode map was not updated; just retry.
  }
  held_blocks_.clear();
  held_inodes_.clear();
}

Status Lfs::FlushInodeSet(const std::vector<uint32_t>& inos,
                          uint16_t ss_flags) {
  Status status = AppendInodeSet(inos, ss_flags);
  if (!status.ok()) {
    RequeuePartial();
  }
  return status;
}

Status Lfs::AppendInodeSet(const std::vector<uint32_t>& inos,
                           uint16_t ss_flags) {
  std::unique_ptr<SegmentBuilder> builder;

  auto ensure_builder = [&]() -> Status {
    if (builder != nullptr) {
      return OkStatus();
    }
    if (cur_offset_ + 2 > sb_.seg_size_blocks) {
      RETURN_IF_ERROR(AdvanceSegment());
    }
    builder = std::make_unique<SegmentBuilder>(
        &seg_arena_, sb_.SegFirstBlock(cur_seg_) + cur_offset_,
        sb_.seg_size_blocks - cur_offset_, next_seg_,
        static_cast<uint32_t>(NowSeconds()), /*serial=*/0, ss_flags);
    return OkStatus();
  };
  auto rotate = [&]() -> Status {
    if (builder != nullptr && !builder->empty()) {
      Status s = WritePartial(*builder);
      builder.reset();
      RETURN_IF_ERROR(s);
    } else {
      builder.reset();
      // An empty builder could not fit anything: move to the next segment.
      RETURN_IF_ERROR(AdvanceSegment());
    }
    return ensure_builder();
  };
  // Moves dirty block (ino, lbn) into the partial and points the file at
  // its new address.
  auto append_block = [&](uint32_t ino, uint32_t lbn) -> Status {
    RETURN_IF_ERROR(ensure_builder());
    if (FindDirtyBlock(ino, lbn) == nullptr) {
      return OkStatus();
    }
    while (!builder->CanAddBlock(ino)) {
      RETURN_IF_ERROR(rotate());
    }
    ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
    ASSIGN_OR_RETURN(uint32_t daddr,
                     builder->AddBlock(ino, inode->version, lbn,
                                       *FindDirtyBlock(ino, lbn)));
    held_blocks_.push_back(HeldBlock{ino, lbn, TakeDirtyBlock(ino, lbn)});
    return SetBmap(ino, lbn, daddr);
  };

  for (uint32_t ino : inos) {
    Result<DInode*> inode_or = GetInodeRef(ino);
    if (!inode_or.ok()) {
      // Freed while queued; skip.
      dirty_inodes_.erase(ino);
      continue;
    }

    // Snapshot the dirty lbns now; SetBmap inserts metadata lbns during the
    // data phase which we re-collect for the meta phase.
    std::vector<uint32_t> data_lbns;
    if (auto it = dirty_blocks_.find(ino); it != dirty_blocks_.end()) {
      for (const auto& [lbn, bytes] : it->second) {
        if (!IsMetaLbn(lbn)) {
          data_lbns.push_back(lbn);
        }
      }
    }

    // Phase A: data blocks.
    for (uint32_t lbn : data_lbns) {
      RETURN_IF_ERROR(append_block(ino, lbn));
    }

    // Phase B: metadata blocks, ascending = double-indirect children first,
    // then the double-indirect root, then the single indirect. Relocating a
    // double-indirect child dirties the root, so loop until nothing new
    // appears (at most two rounds).
    std::set<uint32_t> meta_written;
    while (true) {
      std::vector<uint32_t> meta_lbns;
      if (auto it = dirty_blocks_.find(ino); it != dirty_blocks_.end()) {
        for (const auto& [lbn, bytes] : it->second) {
          if (IsMetaLbn(lbn) && meta_written.count(lbn) == 0) {
            meta_lbns.push_back(lbn);
          }
        }
      }
      if (meta_lbns.empty()) {
        break;
      }
      std::sort(meta_lbns.begin(), meta_lbns.end());
      for (uint32_t lbn : meta_lbns) {
        RETURN_IF_ERROR(append_block(ino, lbn));
        meta_written.insert(lbn);
      }
    }

    // Phase C: the inode itself.
    RETURN_IF_ERROR(ensure_builder());
    while (!builder->CanAddInode()) {
      RETURN_IF_ERROR(rotate());
    }
    ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
    RETURN_IF_ERROR(builder->AddInode(*inode).status());
    held_inodes_.push_back(ino);
    dirty_inodes_.erase(ino);
  }

  if (builder != nullptr && !builder->empty()) {
    RETURN_IF_ERROR(WritePartial(*builder));
  }
  return OkStatus();
}

}  // namespace hl

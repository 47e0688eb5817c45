// Inode management and block mapping (bmap) for the LFS.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "lfs/lfs.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace hl {

namespace {

// Reads a 32-bit little-endian pointer out of an indirect block.
uint32_t GetPtr(std::span<const uint8_t> block, uint32_t index) {
  Reader r(block.subspan(index * 4, 4));
  return r.GetU32();
}

void SetPtr(std::vector<uint8_t>& block, uint32_t index, uint32_t value) {
  Writer w(std::span<uint8_t>(block.data() + index * 4, 4));
  w.PutU32(value);
}

}  // namespace

Result<DInode*> Lfs::GetInodeRef(uint32_t ino) {
  auto it = inode_cache_.find(ino);
  if (it != inode_cache_.end()) {
    return &it->second;
  }
  ASSIGN_OR_RETURN(DInode inode, ReadInodeFromDevice(ino));
  auto [pos, inserted] = inode_cache_.emplace(ino, inode);
  (void)inserted;
  return &pos->second;
}

Result<DInode> Lfs::ReadInodeFromDevice(uint32_t ino) {
  if (ino == kNoInode || ino >= imap_.size()) {
    return NotFound("no inode " + std::to_string(ino));
  }
  uint32_t daddr = imap_[ino].daddr;
  if (daddr == kNoBlock) {
    return NotFound("inode " + std::to_string(ino) + " is free");
  }
  std::vector<uint8_t> block(kBlockSize);
  RETURN_IF_ERROR(ReadBlockThroughCache(daddr, block));
  for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
    Result<DInode> d = DInode::Deserialize(std::span<const uint8_t>(
        block.data() + slot * kInodeSize, kInodeSize));
    if (d.ok() && d->ino == ino && d->version == imap_[ino].version) {
      return *d;
    }
  }
  return Corruption("inode " + std::to_string(ino) +
                    " not found in its mapped block");
}

Result<uint32_t> Lfs::AllocInode(FileType type) {
  if (cinfo_.free_inode_head == kNoInode) {
    // Grow the inode map; the ifile stretches at the next checkpoint.
    uint32_t old_max = sb_.max_inodes;
    uint32_t new_max = old_max + kInodeMapPerBlock;
    imap_.resize(new_max);
    cinfo_.free_inode_head = old_max;
    for (uint32_t ino = old_max; ino < new_max; ++ino) {
      imap_[ino].free_link = ino + 1 < new_max ? ino + 1 : kNoInode;
    }
    sb_.max_inodes = new_max;
    cinfo_.max_inodes = new_max;
  }
  uint32_t ino = cinfo_.free_inode_head;
  cinfo_.free_inode_head = imap_[ino].free_link;
  imap_[ino].free_link = kNoInode;

  DInode inode;
  inode.ino = ino;
  inode.type = type;
  inode.nlink = type == FileType::kDirectory ? 2 : 1;
  inode.version = imap_[ino].version;
  inode.ctime = inode.mtime = inode.atime = clock_->Now();
  inode_cache_[ino] = inode;
  MarkInodeDirty(ino);
  return ino;
}

Status Lfs::FreeInode(uint32_t ino) {
  ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
  RETURN_IF_ERROR(FreeFileBlocks(ino, 0));
  // Release the inode's own bytes from its segment.
  AccountAddress(imap_[ino].daddr, -static_cast<int64_t>(kInodeSize));
  (void)inode;
  imap_[ino].daddr = kNoBlock;
  imap_[ino].version++;
  imap_[ino].free_link = cinfo_.free_inode_head;
  cinfo_.free_inode_head = ino;
  inode_cache_.erase(ino);
  dirty_inodes_.erase(ino);
  auto it = dirty_blocks_.find(ino);
  if (it != dirty_blocks_.end()) {
    dirty_bytes_ -= static_cast<uint64_t>(it->second.size()) * kBlockSize;
    dirty_blocks_.erase(it);
  }
  readahead_state_.erase(ino);
  return OkStatus();
}

Result<uint32_t> Lfs::Bmap(const DInode& inode, uint32_t lbn) {
  // Metadata lbns.
  if (lbn == kLbnSingleIndirect) {
    return inode.indirect;
  }
  if (lbn == kLbnDoubleIndirect) {
    return inode.dindirect;
  }
  if (IsMetaLbn(lbn)) {
    uint32_t child = lbn - kLbnDindChildBase;
    if (child >= kPtrsPerBlock) {
      return static_cast<uint32_t>(kNoBlock);
    }
    return ReadMetaPtr(inode.ino, kLbnDoubleIndirect, inode.dindirect, child);
  }
  // Data lbns.
  if (lbn < kNumDirect) {
    return inode.direct[lbn];
  }
  if (lbn < kNumDirect + kPtrsPerBlock) {
    return ReadMetaPtr(inode.ino, kLbnSingleIndirect, inode.indirect,
                       lbn - kNumDirect);
  }
  uint64_t beyond = static_cast<uint64_t>(lbn) - kNumDirect - kPtrsPerBlock;
  if (beyond >= static_cast<uint64_t>(kPtrsPerBlock) * kPtrsPerBlock) {
    return OutOfRange("lbn beyond double-indirect reach");
  }
  uint32_t child_index = static_cast<uint32_t>(beyond / kPtrsPerBlock);
  uint32_t entry = static_cast<uint32_t>(beyond % kPtrsPerBlock);
  ASSIGN_OR_RETURN(uint32_t child_daddr,
                   ReadMetaPtr(inode.ino, kLbnDoubleIndirect, inode.dindirect,
                               child_index));
  return ReadMetaPtr(inode.ino, DindChildLbn(child_index), child_daddr, entry);
}

Result<uint32_t> Lfs::ReadMetaPtr(uint32_t ino, uint32_t meta_lbn,
                                  uint32_t daddr, uint32_t index) {
  // A dirty copy is current even when the block has no address yet: a flush
  // that failed part-way can leave written blocks whose only pointers are
  // in a never-written indirect block.
  if (std::vector<uint8_t>* dirty = FindDirtyBlock(ino, meta_lbn)) {
    return GetPtr(*dirty, index);
  }
  if (daddr == kNoBlock) {
    return static_cast<uint32_t>(kNoBlock);
  }
  if (std::span<const uint8_t> cached = buffer_cache_.Find(daddr);
      !cached.empty()) {
    return GetPtr(cached, index);
  }
  std::array<uint8_t, kBlockSize> block{};
  RETURN_IF_ERROR(dev_->ReadBlocks(daddr, 1, block));
  buffer_cache_.Insert(daddr, block);
  return GetPtr(block, index);
}

Result<std::vector<uint8_t>*> Lfs::LoadMetaDirty(uint32_t ino,
                                                 uint32_t meta_lbn) {
  if (std::vector<uint8_t>* dirty = FindDirtyBlock(ino, meta_lbn)) {
    return dirty;
  }
  ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
  ASSIGN_OR_RETURN(uint32_t daddr, Bmap(*inode, meta_lbn));
  std::vector<uint8_t> content;
  if (daddr == kNoBlock) {
    content.assign(kBlockSize, 0xFF);  // All pointers = kNoBlock.
    inode->blocks++;
  } else {
    content.assign(kBlockSize, 0);
    RETURN_IF_ERROR(ReadBlockThroughCache(daddr, content));
  }
  PutDirtyBlock(ino, meta_lbn, std::move(content));
  return FindDirtyBlock(ino, meta_lbn);
}

Status Lfs::SetBmap(uint32_t ino, uint32_t lbn, uint32_t new_daddr) {
  ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
  uint32_t old_daddr = kNoBlock;

  if (lbn == kLbnSingleIndirect) {
    old_daddr = inode->indirect;
    inode->indirect = new_daddr;
  } else if (lbn == kLbnDoubleIndirect) {
    old_daddr = inode->dindirect;
    inode->dindirect = new_daddr;
  } else if (IsMetaLbn(lbn)) {
    uint32_t child = lbn - kLbnDindChildBase;
    ASSIGN_OR_RETURN(std::vector<uint8_t>* root,
                     LoadMetaDirty(ino, kLbnDoubleIndirect));
    old_daddr = GetPtr(*root, child);
    SetPtr(*root, child, new_daddr);
  } else if (lbn < kNumDirect) {
    old_daddr = inode->direct[lbn];
    inode->direct[lbn] = new_daddr;
  } else if (lbn < kNumDirect + kPtrsPerBlock) {
    ASSIGN_OR_RETURN(std::vector<uint8_t>* ind,
                     LoadMetaDirty(ino, kLbnSingleIndirect));
    old_daddr = GetPtr(*ind, lbn - kNumDirect);
    SetPtr(*ind, lbn - kNumDirect, new_daddr);
  } else {
    uint64_t beyond = static_cast<uint64_t>(lbn) - kNumDirect - kPtrsPerBlock;
    if (beyond >= static_cast<uint64_t>(kPtrsPerBlock) * kPtrsPerBlock) {
      return Status(ErrorCode::kFileTooLarge, "lbn beyond max file size");
    }
    uint32_t child_index = static_cast<uint32_t>(beyond / kPtrsPerBlock);
    uint32_t entry = static_cast<uint32_t>(beyond % kPtrsPerBlock);
    ASSIGN_OR_RETURN(std::vector<uint8_t>* child,
                     LoadMetaDirty(ino, DindChildLbn(child_index)));
    old_daddr = GetPtr(*child, entry);
    SetPtr(*child, entry, new_daddr);
  }

  if (!IsMetaLbn(lbn)) {
    if (old_daddr == kNoBlock && new_daddr != kNoBlock) {
      inode->blocks++;
    } else if (old_daddr != kNoBlock && new_daddr == kNoBlock) {
      if (inode->blocks > 0) {
        inode->blocks--;
      }
    }
  }
  AccountAddress(old_daddr, -static_cast<int64_t>(kBlockSize));
  AccountAddress(new_daddr, static_cast<int64_t>(kBlockSize));
  MarkInodeDirty(ino);
  return OkStatus();
}

Status Lfs::FreeFileBlocks(uint32_t ino, uint32_t from_lbn) {
  ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
  uint32_t max_lbn = static_cast<uint32_t>(
      std::min<uint64_t>((inode->size + kBlockSize - 1) / kBlockSize,
                         kMaxFileBlocks));
  // Release data blocks (also drops any pending dirty copies).
  for (uint32_t lbn = from_lbn; lbn < max_lbn; ++lbn) {
    ASSIGN_OR_RETURN(uint32_t daddr, Bmap(*inode, lbn));
    auto dirty_it = dirty_blocks_.find(ino);
    if (dirty_it != dirty_blocks_.end() && dirty_it->second.erase(lbn) > 0) {
      dirty_bytes_ -= kBlockSize;
    }
    if (daddr != kNoBlock) {
      RETURN_IF_ERROR(SetBmap(ino, lbn, kNoBlock));
    }
  }
  // Release metadata blocks that are now entirely beyond the file.
  auto drop_meta = [&](uint32_t meta_lbn, uint32_t* parent_field) -> Status {
    uint32_t daddr = *parent_field;
    auto dirty_it = dirty_blocks_.find(ino);
    if (dirty_it != dirty_blocks_.end() &&
        dirty_it->second.erase(meta_lbn) > 0) {
      dirty_bytes_ -= kBlockSize;
    }
    if (daddr != kNoBlock) {
      AccountAddress(daddr, -static_cast<int64_t>(kBlockSize));
      *parent_field = kNoBlock;
      if (inode->blocks > 0) {
        inode->blocks--;
      }
    } else if (dirty_it != dirty_blocks_.end()) {
      // Created in memory but never written: blocks count was bumped at
      // LoadMetaDirty time.
      if (inode->blocks > 0) {
        inode->blocks--;
      }
    }
    return OkStatus();
  };

  if (from_lbn <= kNumDirect) {
    // Whole indirect tree may go.
    RETURN_IF_ERROR(drop_meta(kLbnSingleIndirect, &inode->indirect));
  }
  if (from_lbn <= kNumDirect + kPtrsPerBlock) {
    // All double-indirect children then the root.
    if (inode->dindirect != kNoBlock ||
        FindDirtyBlock(ino, kLbnDoubleIndirect) != nullptr) {
      for (uint32_t child = 0; child < kPtrsPerBlock; ++child) {
        uint32_t child_lbn = DindChildLbn(child);
        ASSIGN_OR_RETURN(uint32_t cd, Bmap(*inode, child_lbn));
        auto dirty_it = dirty_blocks_.find(ino);
        bool has_dirty =
            dirty_it != dirty_blocks_.end() &&
            dirty_it->second.count(child_lbn) > 0;
        if (cd == kNoBlock && !has_dirty) {
          continue;
        }
        if (has_dirty) {
          dirty_it->second.erase(child_lbn);
          dirty_bytes_ -= kBlockSize;
        }
        if (cd != kNoBlock) {
          AccountAddress(cd, -static_cast<int64_t>(kBlockSize));
        }
        if (inode->blocks > 0) {
          inode->blocks--;
        }
      }
      RETURN_IF_ERROR(drop_meta(kLbnDoubleIndirect, &inode->dindirect));
    }
  }
  MarkInodeDirty(ino);
  return OkStatus();
}

Status Lfs::Truncate(uint32_t ino, uint64_t new_size) {
  ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
  if (new_size >= inode->size) {
    inode->size = new_size;  // Growing truncate: a hole appears.
    inode->mtime = inode->ctime = clock_->Now();
    MarkInodeDirty(ino);
    return OkStatus();
  }
  uint32_t keep_blocks =
      static_cast<uint32_t>((new_size + kBlockSize - 1) / kBlockSize);
  RETURN_IF_ERROR(FreeFileBlocks(ino, keep_blocks));
  // Zero the tail of a now-partial final block: if the file later grows past
  // this point, the bytes between the new EOF and the block end must read as
  // zero, not as stale pre-truncate data.
  uint32_t tail = static_cast<uint32_t>(new_size % kBlockSize);
  if (tail != 0) {
    uint32_t last_lbn = keep_blocks - 1;
    ASSIGN_OR_RETURN(DInode * cur, GetInodeRef(ino));
    ASSIGN_OR_RETURN(uint32_t daddr, Bmap(*cur, last_lbn));
    std::vector<uint8_t>* dirty = FindDirtyBlock(ino, last_lbn);
    if (dirty != nullptr) {
      std::memset(dirty->data() + tail, 0, kBlockSize - tail);
    } else if (daddr != kNoBlock) {
      std::vector<uint8_t> block(kBlockSize);
      RETURN_IF_ERROR(ReadBlockThroughCache(daddr, block));
      std::memset(block.data() + tail, 0, kBlockSize - tail);
      PutDirtyBlock(ino, last_lbn, std::move(block));
    }
  }
  ASSIGN_OR_RETURN(inode, GetInodeRef(ino));
  inode->size = new_size;
  inode->mtime = inode->ctime = clock_->Now();
  MarkInodeDirty(ino);
  return OkStatus();
}

Result<StatInfo> Lfs::Stat(uint32_t ino) {
  ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
  StatInfo s;
  s.ino = ino;
  s.type = inode->type;
  s.size = inode->size;
  s.nlink = inode->nlink;
  s.atime = inode->atime;
  s.mtime = inode->mtime;
  s.ctime = inode->ctime;
  s.blocks = inode->blocks;
  return s;
}

Result<StatInfo> Lfs::StatPath(std::string_view path) {
  ASSIGN_OR_RETURN(uint32_t ino, LookupPath(path));
  return Stat(ino);
}

}  // namespace hl

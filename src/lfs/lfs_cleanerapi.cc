// The LFS-specific "system call" surface used by the user-level cleaner and
// by HighLight's migrator: segment parsing, liveness queries (lfs_bmapv),
// block relocation (lfs_markv) and migration pointer flips (lfs_migratev).

#include <algorithm>
#include <cstring>

#include "lfs/lfs.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace hl {

std::vector<ParsedPartial> ParsePartialsFromImage(
    std::span<const uint8_t> image, uint32_t base_daddr,
    uint32_t seg_size_blocks) {
  std::vector<ParsedPartial> out;
  uint32_t offset = 0;
  uint64_t last_serial = 0;
  while (offset + 1 <= seg_size_blocks) {
    std::span<const uint8_t> sumblock(
        image.data() + static_cast<size_t>(offset) * kBlockSize, kBlockSize);
    Result<SegSummary> sum = SegSummary::DeserializeFromBlock(sumblock);
    if (!sum.ok()) {
      break;
    }
    // Stale partial segments from a previous use of this segment have lower
    // serials than the fresh chain; stop there.
    if (!out.empty() && sum->serial <= last_serial) {
      break;
    }
    uint32_t total = 1 + sum->TotalDataBlocks() +
                     static_cast<uint32_t>(sum->inode_daddrs.size());
    if (offset + total > seg_size_blocks) {
      break;
    }
    std::span<const uint8_t> body(
        image.data() + (static_cast<size_t>(offset) + 1) * kBlockSize,
        static_cast<size_t>(total - 1) * kBlockSize);
    if (Crc32(body) != sum->datasum) {
      break;
    }
    last_serial = sum->serial;
    ParsedPartial p;
    p.base_daddr = base_daddr + offset;
    p.num_blocks = total;
    p.summary = std::move(*sum);
    out.push_back(std::move(p));
    offset += total;
  }
  return out;
}

Result<std::vector<ParsedPartial>> Lfs::ParseSegment(uint32_t seg) {
  if (seg >= sb_.nsegs) {
    return OutOfRange("no segment " + std::to_string(seg));
  }
  // One sequential read of the whole segment (how the real cleaner amortizes
  // its I/O), then parse in memory.
  parse_image_.resize(static_cast<size_t>(sb_.seg_size_blocks) * kBlockSize);
  RETURN_IF_ERROR(dev_->ReadBlocks(sb_.SegFirstBlock(seg),
                                   sb_.seg_size_blocks, parse_image_));
  return ParsePartialsFromImage(parse_image_, sb_.SegFirstBlock(seg),
                                sb_.seg_size_blocks);
}

uint32_t Lfs::CurrentAddress(const BlockRef& ref) {
  if (ref.ino >= imap_.size() || imap_[ref.ino].daddr == kNoBlock ||
      imap_[ref.ino].version != ref.version) {
    return kNoBlock;
  }
  Result<DInode*> inode = GetInodeRef(ref.ino);
  if (!inode.ok()) {
    return kNoBlock;
  }
  Result<uint32_t> daddr = Bmap(**inode, ref.lbn);
  return daddr.ok() ? *daddr : kNoBlock;
}

std::vector<uint32_t> Lfs::BmapV(const std::vector<BlockRef>& refs) {
  std::vector<uint32_t> out;
  out.reserve(refs.size());
  for (const BlockRef& ref : refs) {
    out.push_back(CurrentAddress(ref));
  }
  return out;
}

bool Lfs::IsLive(const BlockRef& ref) {
  uint32_t cur = CurrentAddress(ref);
  return cur != kNoBlock && cur == ref.daddr;
}

Result<size_t> Lfs::RewriteBlocks(const std::vector<BlockRef>& refs,
                                  std::vector<std::vector<uint8_t>> data) {
  if (refs.size() != data.size()) {
    return InvalidArgument("RewriteBlocks: refs/data size mismatch");
  }
  size_t queued = 0;
  for (size_t i = 0; i < refs.size(); ++i) {
    const BlockRef& ref = refs[i];
    // A dirty in-memory copy is newer than anything the cleaner read.
    if (FindDirtyBlock(ref.ino, ref.lbn) != nullptr) {
      continue;
    }
    if (!IsLive(ref)) {
      continue;
    }
    PutDirtyBlock(ref.ino, ref.lbn, std::move(data[i]));
    MarkInodeDirty(ref.ino);
    ++queued;
  }
  return queued;
}

Result<bool> Lfs::RelocateInode(uint32_t ino, uint32_t expected_daddr) {
  if (ino >= imap_.size() || imap_[ino].daddr != expected_daddr) {
    return false;
  }
  RETURN_IF_ERROR(GetInodeRef(ino).status());
  MarkInodeDirty(ino);
  return true;
}

Status Lfs::MarkSegmentClean(uint32_t seg) {
  if (seg >= sb_.nsegs) {
    return OutOfRange("no segment " + std::to_string(seg));
  }
  if (seg == cur_seg_ || seg == next_seg_) {
    return Status(ErrorCode::kBusy, "segment is in use by the log");
  }
  SegUsage& u = seguse_[seg];
  if (u.flags & kSegClean) {
    return OkStatus();
  }
  bool counts = !(u.flags & kSegCacheEligible);
  u.flags = static_cast<uint16_t>(
      (u.flags & kSegCacheEligible) | kSegClean);
  u.live_bytes = 0;
  u.cache_tseg = kNoSegment;
  if (counts) {
    cinfo_.clean_segs++;
    if (cinfo_.dirty_segs > 0) {
      cinfo_.dirty_segs--;
    }
  }
  return OkStatus();
}

Status Lfs::SetSegFlags(uint32_t seg, uint16_t set, uint16_t clear) {
  if (seg >= sb_.nsegs) {
    return OutOfRange("no segment " + std::to_string(seg));
  }
  seguse_[seg].flags = static_cast<uint16_t>(
      (seguse_[seg].flags & ~clear) | set);
  return OkStatus();
}

Status Lfs::SetSegCacheTag(uint32_t seg, uint32_t tseg) {
  if (seg >= sb_.nsegs) {
    return OutOfRange("no segment " + std::to_string(seg));
  }
  seguse_[seg].cache_tseg = tseg;
  return OkStatus();
}

Result<uint32_t> Lfs::InodeDaddr(uint32_t ino) const {
  if (ino == kNoInode || ino >= imap_.size() ||
      imap_[ino].daddr == kNoBlock) {
    return NotFound("no inode " + std::to_string(ino));
  }
  return imap_[ino].daddr;
}

Result<DInode> Lfs::GetInode(uint32_t ino) {
  ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
  return *inode;
}

Result<std::pair<std::vector<uint8_t>, uint32_t>> Lfs::ReadFileBlock(
    uint32_t ino, uint32_t lbn) {
  ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
  if (std::vector<uint8_t>* dirty = FindDirtyBlock(ino, lbn)) {
    std::vector<uint8_t> copy = *dirty;
    ASSIGN_OR_RETURN(uint32_t daddr, Bmap(*inode, lbn));
    return std::make_pair(std::move(copy), daddr);
  }
  ASSIGN_OR_RETURN(uint32_t daddr, Bmap(*inode, lbn));
  if (daddr == kNoBlock) {
    return NotFound("block not allocated");
  }
  std::vector<uint8_t> block(kBlockSize);
  RETURN_IF_ERROR(ReadBlockThroughCache(daddr, block));
  return std::make_pair(std::move(block), daddr);
}

Result<std::vector<BlockRef>> Lfs::CollectFileBlocks(uint32_t ino) {
  ASSIGN_OR_RETURN(DInode * inode, GetInodeRef(ino));
  std::vector<BlockRef> out;
  uint32_t version = inode->version;
  uint32_t nblocks = static_cast<uint32_t>(
      std::min<uint64_t>((inode->size + kBlockSize - 1) / kBlockSize,
                         kMaxFileBlocks));
  for (uint32_t lbn = 0; lbn < nblocks; ++lbn) {
    ASSIGN_OR_RETURN(DInode * cur, GetInodeRef(ino));
    ASSIGN_OR_RETURN(uint32_t daddr, Bmap(*cur, lbn));
    if (daddr != kNoBlock || FindDirtyBlock(ino, lbn) != nullptr) {
      out.push_back(BlockRef{ino, version, lbn, daddr});
    }
  }
  // Metadata blocks: double-indirect children first, then roots, mirroring
  // the order the migrator must stage them in.
  ASSIGN_OR_RETURN(DInode * cur, GetInodeRef(ino));
  if (cur->dindirect != kNoBlock ||
      FindDirtyBlock(ino, kLbnDoubleIndirect) != nullptr) {
    for (uint32_t child = 0; child < kPtrsPerBlock; ++child) {
      ASSIGN_OR_RETURN(DInode * c2, GetInodeRef(ino));
      ASSIGN_OR_RETURN(uint32_t daddr, Bmap(*c2, DindChildLbn(child)));
      if (daddr != kNoBlock ||
          FindDirtyBlock(ino, DindChildLbn(child)) != nullptr) {
        out.push_back(BlockRef{ino, version, DindChildLbn(child), daddr});
      }
    }
    ASSIGN_OR_RETURN(DInode * c3, GetInodeRef(ino));
    out.push_back(
        BlockRef{ino, version, kLbnDoubleIndirect, c3->dindirect});
  }
  ASSIGN_OR_RETURN(DInode * c4, GetInodeRef(ino));
  if (c4->indirect != kNoBlock ||
      FindDirtyBlock(ino, kLbnSingleIndirect) != nullptr) {
    out.push_back(BlockRef{ino, version, kLbnSingleIndirect, c4->indirect});
  }
  return out;
}

Result<bool> Lfs::ApplyMigration(const MigrationAssignment& m) {
  if (!IsMetaLbn(m.lbn)) {
    // Unstable data blocks (modified since the migrator read them) are
    // skipped; the migration policy is expected to avoid them anyway.
    if (FindDirtyBlock(m.ino, m.lbn) != nullptr) {
      return false;
    }
    Result<DInode*> inode = GetInodeRef(m.ino);
    if (!inode.ok()) {
      return false;
    }
    Result<uint32_t> cur = Bmap(**inode, m.lbn);
    if (!cur.ok() || *cur != m.old_daddr) {
      return false;
    }
  } else {
    // Metadata content was staged *after* the data moves were applied, so
    // the staged copy is current; retire any in-memory dirty copy.
    auto it = dirty_blocks_.find(m.ino);
    if (it != dirty_blocks_.end() && it->second.erase(m.lbn) > 0) {
      dirty_bytes_ -= kBlockSize;
      if (it->second.empty()) {
        dirty_blocks_.erase(it);
      }
    }
  }
  RETURN_IF_ERROR(SetBmap(m.ino, m.lbn, m.new_daddr));
  return true;
}

Status Lfs::ApplyInodeMigration(uint32_t ino, uint32_t tertiary_daddr) {
  if (ino >= imap_.size() || imap_[ino].daddr == kNoBlock) {
    return NotFound("inode " + std::to_string(ino));
  }
  AccountAddress(imap_[ino].daddr, -static_cast<int64_t>(kInodeSize));
  imap_[ino].daddr = tertiary_daddr;
  AccountAddress(tertiary_daddr, static_cast<int64_t>(kInodeSize));
  // The staged inode is the current one; nothing left to flush for it.
  dirty_inodes_.erase(ino);
  return OkStatus();
}

}  // namespace hl

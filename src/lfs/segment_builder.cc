#include "lfs/segment_builder.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/crc32.h"

namespace hl {

namespace {
// Header bytes in a serialized summary (must match format.cc).
constexpr size_t kSummaryHeaderSize = 4 + 4 + 4 + 4 + 2 + 2 + 2 + 2 + 8 + 2;
}  // namespace

SegmentBuilder::SegmentBuilder(std::vector<uint8_t>* arena,
                               uint32_t base_daddr, uint32_t max_blocks,
                               uint32_t next_seg, uint32_t create_time,
                               uint64_t serial, uint16_t flags)
    : arena_(arena), base_daddr_(base_daddr), max_blocks_(max_blocks) {
  summary_.next = next_seg;
  summary_.create = create_time;
  summary_.serial = serial;
  summary_.flags = flags;
}

size_t SegmentBuilder::SummaryBytesWith(uint32_t ino) const {
  size_t bytes = kSummaryHeaderSize;
  bool found = false;
  for (const FInfo& f : summary_.finfos) {
    bytes += 12 + 4 * f.lbns.size();
    if (f.ino == ino) {
      found = true;
    }
  }
  bytes += 4;  // The new block's lbn entry.
  if (!found && ino != kNoInode) {
    bytes += 12;  // A new FINFO record.
  }
  // Worst-case inode block addresses: current inodes plus one more block.
  bytes += 4 * (NumInodeBlocks() + 1);
  return bytes;
}

uint32_t SegmentBuilder::BlocksUsed() const {
  return 1 + static_cast<uint32_t>(blocks_.size()) + NumInodeBlocks();
}

std::span<uint8_t> SegmentBuilder::ArenaBlocks(uint32_t first,
                                               uint32_t count) {
  size_t end = static_cast<size_t>(first + count) * kBlockSize;
  if (arena_->size() < end) {
    // Capacity doubles (never past this partial's bound), so growth costs
    // amortized O(1) per block; the size, and so the bytes ever touched,
    // stops at the largest partial built.
    if (arena_->capacity() < end) {
      size_t bound = static_cast<size_t>(max_blocks_) * kBlockSize;
      arena_->reserve(std::max(end, std::min(2 * arena_->capacity(), bound)));
    }
    arena_->resize(end);
  }
  return std::span<uint8_t>(
      arena_->data() + static_cast<size_t>(first) * kBlockSize,
      static_cast<size_t>(count) * kBlockSize);
}

bool SegmentBuilder::CanAddBlock(uint32_t ino) const {
  if (finished_) {
    return false;
  }
  if (BlocksUsed() + 1 > max_blocks_) {
    return false;
  }
  return SummaryBytesWith(ino) <= kBlockSize;
}

bool SegmentBuilder::CanAddInode() const {
  if (finished_) {
    return false;
  }
  // A new inode may need a fresh inode block (and its summary entry).
  bool needs_new_block = inodes_.size() % kInodesPerBlock == 0;
  if (needs_new_block && BlocksUsed() + 1 > max_blocks_) {
    return false;
  }
  return SummaryBytesWith(kNoInode) <= kBlockSize;
}

Result<uint32_t> SegmentBuilder::AddBlock(uint32_t ino, uint32_t version,
                                          uint32_t lbn,
                                          std::span<const uint8_t> block) {
  if (block.size() != kBlockSize) {
    return InvalidArgument("AddBlock requires a full block");
  }
  if (!CanAddBlock(ino)) {
    return NoSpace("partial segment full");
  }
  FInfo* finfo = nullptr;
  for (FInfo& f : summary_.finfos) {
    if (f.ino == ino) {
      finfo = &f;
      break;
    }
  }
  if (finfo == nullptr) {
    summary_.finfos.push_back(FInfo{ino, version, {}});
    finfo = &summary_.finfos.back();
  }
  finfo->lbns.push_back(lbn);
  uint32_t index = 1 + static_cast<uint32_t>(blocks_.size());
  datasum_ = Crc32Copy(ArenaBlocks(index, 1), block, datasum_);
  blocks_.push_back(BlockAssignment{ino, lbn, base_daddr_ + index});
  return base_daddr_ + index;
}

Result<uint32_t> SegmentBuilder::AddInode(const DInode& inode) {
  if (!CanAddInode()) {
    return NoSpace("partial segment full (inodes)");
  }
  uint32_t block_index = static_cast<uint32_t>(inodes_.size()) /
                         kInodesPerBlock;
  inodes_.push_back(inode);
  // Inode blocks land after all data blocks. Data count can still grow, so
  // the actual address is resolved in Finish(); we return a *predicted*
  // address that is corrected there. Callers use the Image assignments, so
  // record the block index for now.
  return base_daddr_ + 1 + static_cast<uint32_t>(blocks_.size()) +
         block_index;
}

Result<SegmentBuilder::Image> SegmentBuilder::Finish() {
  if (finished_) {
    return Internal("SegmentBuilder reused after Finish");
  }
  finished_ = true;
  Image image;
  image.base_daddr = base_daddr_;
  uint32_t ndata = static_cast<uint32_t>(blocks_.size());
  uint32_t ninode_blocks = NumInodeBlocks();
  uint32_t total_blocks = 1 + ndata + ninode_blocks;
  assert(total_blocks <= max_blocks_);
  image.num_blocks = total_blocks;

  // Inode blocks: zeroed (an unused slot reads as kNoInode), filled, and
  // folded into the datasum after the data blocks. 32 slots of 128 bytes
  // fill a block, so inode i sits at byte i * kInodeSize.
  uint32_t first_inode_block = base_daddr_ + 1 + ndata;
  std::span<uint8_t> inode_bytes = ArenaBlocks(1 + ndata, ninode_blocks);
  std::memset(inode_bytes.data(), 0, inode_bytes.size());
  for (size_t i = 0; i < inodes_.size(); ++i) {
    inodes_[i].Serialize(inode_bytes.subspan(i * kInodeSize, kInodeSize));
    image.inodes.push_back(InodeAssignment{
        inodes_[i].ino,
        first_inode_block + static_cast<uint32_t>(i / kInodesPerBlock)});
  }
  datasum_ = Crc32(inode_bytes, datasum_);
  for (uint32_t b = 0; b < ninode_blocks; ++b) {
    summary_.inode_daddrs.push_back(first_inode_block + b);
  }

  image.summary_bytes = static_cast<uint32_t>(summary_.EncodedSize());
  summary_.datasum = datasum_;
  RETURN_IF_ERROR(summary_.SerializeToBlock(ArenaBlocks(0, 1)));
  image.bytes = std::span<const uint8_t>(
      arena_->data(), static_cast<size_t>(total_blocks) * kBlockSize);
  image.blocks = std::move(blocks_);
  return image;
}

}  // namespace hl

// SegmentBuilder: assembles a partial segment image in memory.
//
// Both writers of the log format use this class:
//  * the LFS segment writer, appending dirty blocks to the active on-disk
//    segment, and
//  * HighLight's migrator, assembling a *staging segment* whose blocks carry
//    tertiary block addresses (the paper's lfs_migratev mechanism, section
//    6.7) inside a disk cache line.
//
// A partial segment is: [summary block][data blocks, FINFO order][inode
// blocks]. The builder assigns each added block the next address after `base`
// and refuses additions that would overflow either the remaining segment
// blocks or the one-block summary (HighLight's 4 KB summary block can in
// principle fill up — section 6.3 — and the builder is where that limit is
// enforced).
//
// Each writer owns one arena, a byte buffer reused for every partial it
// builds. AddBlock copies the block straight to its final place in the
// arena and folds it into ss_datasum in the same pass (Crc32Copy); Finish
// lays out only the inode blocks and the summary. The arena grows only as
// far as the partials built in it need.

#ifndef HIGHLIGHT_LFS_SEGMENT_BUILDER_H_
#define HIGHLIGHT_LFS_SEGMENT_BUILDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "lfs/format.h"
#include "util/status.h"

namespace hl {

class SegmentBuilder {
 public:
  // `arena` is the writer's image buffer; it must outlive the builder and
  // every Image it returns. `base_daddr` is the block address the summary
  // block will occupy; `max_blocks` bounds the whole partial segment
  // (summary included).
  SegmentBuilder(std::vector<uint8_t>* arena, uint32_t base_daddr,
                 uint32_t max_blocks, uint32_t next_seg, uint32_t create_time,
                 uint64_t serial, uint16_t flags = 0);

  // True if a data block for (ino possibly new in this pseg) still fits.
  bool CanAddBlock(uint32_t ino) const;
  bool CanAddInode() const;

  // Appends one data/metadata block for file `ino`, copying it into the
  // arena; returns the address it will occupy. `lbn` may be a metadata
  // encoding (indirect blocks).
  Result<uint32_t> AddBlock(uint32_t ino, uint32_t version, uint32_t lbn,
                            std::span<const uint8_t> block);

  // Appends an inode; inode blocks are materialized at Finish(). Returns the
  // address of the inode block that will hold it.
  Result<uint32_t> AddInode(const DInode& inode);

  bool empty() const { return blocks_.empty() && inodes_.empty(); }
  void set_serial(uint64_t serial) { summary_.serial = serial; }
  uint32_t BlocksUsed() const;  // Summary + data + inode blocks.
  uint32_t base_daddr() const { return base_daddr_; }

  struct BlockAssignment {
    uint32_t ino;
    uint32_t lbn;
    uint32_t daddr;
  };
  struct InodeAssignment {
    uint32_t ino;
    uint32_t daddr;
  };
  struct Image {
    uint32_t base_daddr;
    // Whole partial segment, summary first: a view of the arena, valid until
    // the writer starts its next partial.
    std::span<const uint8_t> bytes;
    std::vector<BlockAssignment> blocks;
    std::vector<InodeAssignment> inodes;
    uint32_t num_blocks;  // bytes.size() / kBlockSize.
    uint32_t summary_bytes = 0;  // Occupied bytes of the 4 KB summary block.
  };

  // Seals the partial segment: lays out inode blocks, computes checksums,
  // serializes the summary. The builder must not be reused afterwards.
  Result<Image> Finish();

 private:
  uint32_t NumInodeBlocks() const {
    return static_cast<uint32_t>((inodes_.size() + kInodesPerBlock - 1) /
                                 kInodesPerBlock);
  }
  size_t SummaryBytesWith(uint32_t ino) const;
  // Blocks [first, first + count) of the arena, growing it if needed.
  std::span<uint8_t> ArenaBlocks(uint32_t first, uint32_t count);

  std::vector<uint8_t>* arena_;
  uint32_t base_daddr_;
  uint32_t max_blocks_;
  SegSummary summary_;
  std::vector<BlockAssignment> blocks_;  // Data blocks, in address order.
  std::vector<DInode> inodes_;
  uint32_t datasum_ = 0;  // CRC of the data blocks added so far.
  bool finished_ = false;
};

}  // namespace hl

#endif  // HIGHLIGHT_LFS_SEGMENT_BUILDER_H_

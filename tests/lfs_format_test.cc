// Round-trip and validation tests for the on-media structures (Table 1 and
// friends), plus the SegmentBuilder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "lfs/format.h"
#include "lfs/segment_builder.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace hl {
namespace {

TEST(DInodeFormatTest, RoundTrip) {
  DInode in;
  in.ino = 42;
  in.type = FileType::kRegular;
  in.nlink = 3;
  in.size = 123456789;
  in.atime = 111;
  in.mtime = 222;
  in.ctime = 333;
  in.version = 7;
  in.blocks = 55;
  in.direct[0] = 1000;
  in.direct[11] = 1011;
  in.indirect = 2000;
  in.dindirect = 3000;

  std::vector<uint8_t> buf(kInodeSize);
  in.Serialize(buf);
  Result<DInode> out = DInode::Deserialize(buf);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->ino, 42u);
  EXPECT_EQ(out->type, FileType::kRegular);
  EXPECT_EQ(out->size, 123456789u);
  EXPECT_EQ(out->direct[0], 1000u);
  EXPECT_EQ(out->direct[11], 1011u);
  EXPECT_EQ(out->indirect, 2000u);
  EXPECT_EQ(out->dindirect, 3000u);
  EXPECT_EQ(out->version, 7u);
}

TEST(DInodeFormatTest, ThirtyTwoPerBlock) {
  EXPECT_EQ(kInodesPerBlock, 32u);
}

TEST(SegSummaryFormatTest, RoundTripWithChecksum) {
  SegSummary s;
  s.next = 17;
  s.create = 99;
  s.serial = 12345;
  s.flags = kSsFlagCheckpoint;
  s.finfos.push_back(FInfo{5, 1, {0, 1, 2, kLbnSingleIndirect}});
  s.finfos.push_back(FInfo{9, 3, {7}});
  s.inode_daddrs = {400, 401};
  s.datasum = 0xABCD;

  std::vector<uint8_t> block(kBlockSize);
  ASSERT_TRUE(s.SerializeToBlock(block).ok());
  Result<SegSummary> out = SegSummary::DeserializeFromBlock(block);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->next, 17u);
  EXPECT_EQ(out->serial, 12345u);
  EXPECT_EQ(out->flags, kSsFlagCheckpoint);
  ASSERT_EQ(out->finfos.size(), 2u);
  EXPECT_EQ(out->finfos[0].ino, 5u);
  EXPECT_EQ(out->finfos[0].lbns.size(), 4u);
  EXPECT_EQ(out->finfos[0].lbns[3], kLbnSingleIndirect);
  EXPECT_EQ(out->inode_daddrs, (std::vector<uint32_t>{400, 401}));
  EXPECT_EQ(out->TotalDataBlocks(), 5u);
}

TEST(SegSummaryFormatTest, CorruptionDetected) {
  SegSummary s;
  s.finfos.push_back(FInfo{5, 1, {0}});
  std::vector<uint8_t> block(kBlockSize);
  ASSERT_TRUE(s.SerializeToBlock(block).ok());
  block[100] ^= 0x40;
  EXPECT_EQ(SegSummary::DeserializeFromBlock(block).status().code(),
            ErrorCode::kCorruption);
}

TEST(SegSummaryFormatTest, GarbageBlockRejected) {
  std::vector<uint8_t> block(kBlockSize, 0xC3);
  EXPECT_FALSE(SegSummary::DeserializeFromBlock(block).ok());
}

TEST(SegSummaryFormatTest, EncodedSizeMatchesTable1Rates) {
  // Table 1: 12 bytes per distinct file plus 4 per file block.
  SegSummary s;
  size_t base = s.EncodedSize();
  s.finfos.push_back(FInfo{1, 0, {}});
  EXPECT_EQ(s.EncodedSize(), base + 12);
  s.finfos[0].lbns.push_back(0);
  EXPECT_EQ(s.EncodedSize(), base + 16);
  s.inode_daddrs.push_back(7);
  EXPECT_EQ(s.EncodedSize(), base + 20);
}

TEST(SegUsageFormatTest, RoundTrip) {
  SegUsage u;
  u.live_bytes = 777;
  u.flags = kSegDirty | kSegCached;
  u.avail_bytes = 1 << 20;
  u.cache_tseg = 55;
  u.write_time = 999999;
  std::vector<uint8_t> buf(SegUsage::kEncodedSize);
  u.Serialize(buf);
  SegUsage out = SegUsage::Deserialize(buf);
  EXPECT_EQ(out.live_bytes, 777u);
  EXPECT_EQ(out.flags, kSegDirty | kSegCached);
  EXPECT_EQ(out.cache_tseg, 55u);
  EXPECT_EQ(out.write_time, 999999u);
}

TEST(InodeMapFormatTest, PaperQuotes341EntriesPerBlock) {
  EXPECT_EQ(kInodeMapPerBlock, 341u);
}

TEST(SuperblockFormatTest, RoundTripAndAddressHelpers) {
  Superblock sb;
  sb.disk_blocks = 100000;
  sb.nsegs = 390;
  sb.seg_size_blocks = 256;
  sb.reserved_blocks = 16;
  sb.tertiary_nsegs = 1000;
  sb.tertiary_base = kNoBlock - 1000u * 256;
  sb.segs_per_volume = 40;
  sb.num_volumes = 25;
  std::vector<uint8_t> block(kBlockSize);
  sb.Serialize(block);
  Result<Superblock> out = Superblock::Deserialize(block);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->nsegs, 390u);
  EXPECT_EQ(out->tertiary_base, sb.tertiary_base);

  EXPECT_TRUE(out->IsDiskAddr(0));
  EXPECT_TRUE(out->IsDiskAddr(99999));
  EXPECT_FALSE(out->IsDiskAddr(100000));
  EXPECT_FALSE(out->IsTertiaryAddr(100000));  // Dead zone.
  EXPECT_TRUE(out->IsTertiaryAddr(sb.tertiary_base));
  EXPECT_TRUE(out->IsTertiaryAddr(kNoBlock - 1));
  EXPECT_EQ(out->TertiarySegOf(sb.tertiary_base + 256 * 3 + 5), 3u);
  EXPECT_EQ(out->SegFirstBlock(2), 16u + 512);
  EXPECT_EQ(out->BlockToSeg(16 + 512 + 100), 2u);
}

TEST(SuperblockFormatTest, BadMagicRejected) {
  std::vector<uint8_t> block(kBlockSize, 0);
  EXPECT_FALSE(Superblock::Deserialize(block).ok());
}

TEST(CheckpointFormatTest, RoundTripAndTornDetection) {
  CheckpointRegion cp;
  cp.serial = 9;
  cp.ifile_inode_daddr = 1234;
  cp.cur_seg = 3;
  cp.cur_offset = 77;
  cp.next_seg = 4;
  cp.pseg_serial = 555;
  std::vector<uint8_t> block(kBlockSize);
  cp.Serialize(block);
  Result<CheckpointRegion> out = CheckpointRegion::Deserialize(block);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->serial, 9u);
  EXPECT_EQ(out->cur_offset, 77u);
  EXPECT_EQ(out->pseg_serial, 555u);
  block[8] ^= 1;  // Torn write.
  EXPECT_EQ(CheckpointRegion::Deserialize(block).status().code(),
            ErrorCode::kCorruption);
}

TEST(DirEntryFormatTest, RoundTrip) {
  DirEntry e{42, "satellite-image.dat"};
  std::vector<uint8_t> buf(kDirEntrySize);
  e.Serialize(buf);
  DirEntry out = DirEntry::Deserialize(buf);
  EXPECT_EQ(out.ino, 42u);
  EXPECT_EQ(out.name, "satellite-image.dat");
}

// --- SegmentBuilder ----------------------------------------------------------

TEST(SegmentBuilderTest, BuildsSelfDescribingPartial) {
  std::vector<uint8_t> arena;
  SegmentBuilder b(&arena, 1000, 256, /*next_seg=*/7, /*create=*/1,
                   /*serial=*/3);
  std::vector<uint8_t> blk(kBlockSize, 0x5A);
  Result<uint32_t> a0 = b.AddBlock(5, 1, 0, blk);
  Result<uint32_t> a1 = b.AddBlock(5, 1, 1, blk);
  ASSERT_TRUE(a0.ok());
  EXPECT_EQ(*a0, 1001u);
  EXPECT_EQ(*a1, 1002u);
  DInode inode;
  inode.ino = 5;
  ASSERT_TRUE(b.AddInode(inode).ok());
  Result<SegmentBuilder::Image> img = b.Finish();
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img->num_blocks, 4u);  // Summary + 2 data + 1 inode block.
  ASSERT_EQ(img->inodes.size(), 1u);
  EXPECT_EQ(img->inodes[0].daddr, 1003u);

  // The image must parse back as a valid partial segment.
  Result<SegSummary> sum = SegSummary::DeserializeFromBlock(
      std::span<const uint8_t>(img->bytes.data(), kBlockSize));
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->serial, 3u);
  EXPECT_EQ(sum->next, 7u);
  EXPECT_EQ(sum->TotalDataBlocks(), 2u);
  EXPECT_EQ(sum->inode_daddrs.size(), 1u);
}

TEST(SegmentBuilderTest, RespectsBlockBudget) {
  std::vector<uint8_t> arena;
  SegmentBuilder b(&arena, 0, 3, kNoSegment, 0, 0);  // Summary + 2 blocks.
  std::vector<uint8_t> blk(kBlockSize, 1);
  EXPECT_TRUE(b.AddBlock(1, 0, 0, blk).ok());
  EXPECT_TRUE(b.CanAddBlock(1));
  EXPECT_TRUE(b.AddBlock(1, 0, 1, blk).ok());
  EXPECT_FALSE(b.CanAddBlock(1));
  EXPECT_EQ(b.AddBlock(1, 0, 2, blk).status().code(), ErrorCode::kNoSpace);
}

TEST(SegmentBuilderTest, InodesPackIntoBlocks) {
  std::vector<uint8_t> arena;
  SegmentBuilder b(&arena, 0, 256, kNoSegment, 0, 0);
  DInode inode;
  for (uint32_t i = 0; i < kInodesPerBlock + 1; ++i) {
    inode.ino = 100 + i;
    ASSERT_TRUE(b.AddInode(inode).ok());
  }
  Result<SegmentBuilder::Image> img = b.Finish();
  ASSERT_TRUE(img.ok());
  // 33 inodes need two inode blocks.
  EXPECT_EQ(img->num_blocks, 3u);
  EXPECT_EQ(img->inodes[0].daddr, 1u);
  EXPECT_EQ(img->inodes[kInodesPerBlock].daddr, 2u);
}

TEST(SegmentBuilderTest, SummaryBlockLimitEnforced) {
  // Each distinct file costs 16 bytes of summary; with one block per file the
  // builder must stop before the 4 KB summary overflows, even though the
  // segment has room for more data blocks.
  std::vector<uint8_t> arena;
  SegmentBuilder b(&arena, 0, 2000, kNoSegment, 0, 0);
  std::vector<uint8_t> blk(kBlockSize, 2);
  uint32_t added = 0;
  for (uint32_t ino = 1; ino <= 400; ++ino) {
    if (!b.CanAddBlock(ino)) {
      break;
    }
    ASSERT_TRUE(b.AddBlock(ino, 0, 0, blk).ok());
    ++added;
  }
  EXPECT_LT(added, 400u);   // The summary filled before 400 files fit.
  EXPECT_GT(added, 150u);   // But it held a healthy number.
}

// The builder assembles each partial in place in a reused arena. The
// reference below is the assembly it replaced: a zero-filled image, each
// data block copied in, inodes serialized into their blocks, then one CRC
// over the body for ss_datasum.
struct RefBlock {
  uint32_t ino;
  uint32_t version;
  uint32_t lbn;
  std::vector<uint8_t> bytes;
};

std::vector<uint8_t> ReferenceImage(uint32_t base, uint32_t next_seg,
                                    uint32_t create, uint64_t serial,
                                    const std::vector<RefBlock>& blocks,
                                    const std::vector<DInode>& inodes,
                                    uint32_t* datasum) {
  uint32_t ninode_blocks = static_cast<uint32_t>(
      (inodes.size() + kInodesPerBlock - 1) / kInodesPerBlock);
  size_t total = 1 + blocks.size() + ninode_blocks;
  std::vector<uint8_t> image(total * kBlockSize, 0);
  SegSummary sum;
  sum.next = next_seg;
  sum.create = create;
  sum.serial = serial;
  for (size_t i = 0; i < blocks.size(); ++i) {
    std::memcpy(image.data() + (1 + i) * kBlockSize, blocks[i].bytes.data(),
                kBlockSize);
    FInfo* finfo = nullptr;
    for (FInfo& f : sum.finfos) {
      if (f.ino == blocks[i].ino) {
        finfo = &f;
      }
    }
    if (finfo == nullptr) {
      sum.finfos.push_back(FInfo{blocks[i].ino, blocks[i].version, {}});
      finfo = &sum.finfos.back();
    }
    finfo->lbns.push_back(blocks[i].lbn);
  }
  for (size_t i = 0; i < inodes.size(); ++i) {
    size_t block = 1 + blocks.size() + i / kInodesPerBlock;
    inodes[i].Serialize(std::span<uint8_t>(
        image.data() + block * kBlockSize + (i % kInodesPerBlock) * kInodeSize,
        kInodeSize));
  }
  for (uint32_t b = 0; b < ninode_blocks; ++b) {
    sum.inode_daddrs.push_back(
        base + 1 + static_cast<uint32_t>(blocks.size()) + b);
  }
  sum.datasum = Crc32(std::span<const uint8_t>(image.data() + kBlockSize,
                                               image.size() - kBlockSize));
  *datasum = sum.datasum;
  EXPECT_TRUE(
      sum.SerializeToBlock(std::span<uint8_t>(image.data(), kBlockSize)).ok());
  return image;
}

TEST(SegmentBuilderTest, ArenaPartialsMatchReferenceAssembly) {
  std::vector<uint8_t> arena;
  Rng rng(17);
  size_t largest = 0;
  for (int partial = 0; partial < 40; ++partial) {
    // A near-full segment first, so every later partial reuses an arena
    // holding stale bytes; every fifth partial has room for more blocks
    // than its summary can describe and fills until the summary refuses.
    const bool summary_bound = partial % 5 == 4;
    const uint32_t max_blocks =
        partial == 0 ? 256
                     : (summary_bound ? 2000
                                      : 2 + static_cast<uint32_t>(
                                                rng.Below(120)));
    const uint32_t base = 1000 + static_cast<uint32_t>(rng.Below(100000));
    const uint32_t next_seg = static_cast<uint32_t>(rng.Below(64));
    const uint32_t create = static_cast<uint32_t>(rng.Next());
    const uint64_t serial = rng.Next();
    SegmentBuilder builder(&arena, base, max_blocks, next_seg, create, serial);
    std::vector<RefBlock> blocks;
    std::vector<DInode> inodes;
    uint32_t ino = 2;
    while (true) {
      // Runs of blocks per file (one block per file when filling the
      // summary), with an inode now and then: inode blocks end partly full.
      if (summary_bound || rng.Below(4) == 0) {
        ++ino;
      }
      if (rng.Below(6) == 0 && builder.CanAddInode()) {
        DInode inode;
        inode.ino = ino;
        inode.type = FileType::kRegular;
        inode.size = rng.Next();
        inode.version = static_cast<uint32_t>(rng.Below(5));
        ASSERT_TRUE(builder.AddInode(inode).ok());
        inodes.push_back(inode);
      }
      if (!builder.CanAddBlock(ino)) {
        break;
      }
      RefBlock block{ino, 1, static_cast<uint32_t>(rng.Below(5000)),
                     std::vector<uint8_t>(kBlockSize)};
      for (size_t i = 0; i < kBlockSize; i += 8) {
        uint64_t v = rng.Next();
        std::memcpy(block.bytes.data() + i, &v, 8);
      }
      Result<uint32_t> daddr =
          builder.AddBlock(block.ino, block.version, block.lbn, block.bytes);
      ASSERT_TRUE(daddr.ok());
      EXPECT_EQ(*daddr, base + 1 + blocks.size());
      blocks.push_back(std::move(block));
    }
    if (summary_bound) {
      EXPECT_LT(builder.BlocksUsed(), max_blocks);  // The summary filled.
    }
    Result<SegmentBuilder::Image> image = builder.Finish();
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    uint32_t datasum = 0;
    std::vector<uint8_t> want =
        ReferenceImage(base, next_seg, create, serial, blocks, inodes, &datasum);
    ASSERT_EQ(image->num_blocks * kBlockSize, want.size());
    ASSERT_TRUE(std::equal(image->bytes.begin(), image->bytes.end(),
                           want.begin(), want.end()))
        << "partial " << partial;
    Result<SegSummary> sum = SegSummary::DeserializeFromBlock(
        image->bytes.subspan(0, kBlockSize));
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(sum->datasum, datasum);
    ASSERT_EQ(image->blocks.size(), blocks.size());
    ASSERT_EQ(image->inodes.size(), inodes.size());
    largest = std::max(largest, want.size());
  }
  // The arena grew only as far as the largest partial built in it.
  EXPECT_EQ(arena.size(), largest);
}

}  // namespace
}  // namespace hl

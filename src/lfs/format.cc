#include "lfs/format.h"

#include <cstring>

#include "util/crc32.h"
#include "util/serialize.h"

namespace hl {

// --- DInode -----------------------------------------------------------------

void DInode::Serialize(std::span<uint8_t> out) const {
  Writer w(out.subspan(0, kInodeSize));
  w.PutU32(ino);
  w.PutU16(static_cast<uint16_t>(type));
  w.PutU16(nlink);
  w.PutU32(flags);
  w.PutU64(size);
  w.PutU64(atime);
  w.PutU64(mtime);
  w.PutU64(ctime);
  w.PutU32(version);
  w.PutU32(generation);
  w.PutU32(blocks);
  for (uint32_t d : direct) {
    w.PutU32(d);
  }
  w.PutU32(indirect);
  w.PutU32(dindirect);
  w.Skip(w.remaining());
}

Result<DInode> DInode::Deserialize(std::span<const uint8_t> in) {
  if (in.size() < kInodeSize) {
    return Corruption("short inode");
  }
  Reader r(in.subspan(0, kInodeSize));
  DInode d;
  d.ino = r.GetU32();
  d.type = static_cast<FileType>(r.GetU16());
  d.nlink = r.GetU16();
  d.flags = r.GetU32();
  d.size = r.GetU64();
  d.atime = r.GetU64();
  d.mtime = r.GetU64();
  d.ctime = r.GetU64();
  d.version = r.GetU32();
  d.generation = r.GetU32();
  d.blocks = r.GetU32();
  for (uint32_t& ptr : d.direct) {
    ptr = r.GetU32();
  }
  d.indirect = r.GetU32();
  d.dindirect = r.GetU32();
  RETURN_IF_ERROR(r.ToStatus("inode"));
  return d;
}

// --- SegSummary ---------------------------------------------------------------

namespace {
constexpr size_t kSummaryHeaderSize = 4 + 4 + 4 + 4 + 2 + 2 + 2 + 2 + 8 + 2;
}  // namespace

size_t SegSummary::EncodedSize() const {
  size_t size = kSummaryHeaderSize;
  for (const FInfo& f : finfos) {
    size += 12 + 4 * f.lbns.size();  // Table 1: 12/file + 4/block.
  }
  size += 4 * inode_daddrs.size();   // Table 1: 4 per inode block.
  return size;
}

Status SegSummary::SerializeToBlock(std::span<uint8_t> block) const {
  if (block.size() != kBlockSize) {
    return InvalidArgument("summary buffer must be one block");
  }
  if (EncodedSize() > kBlockSize) {
    return InvalidArgument("partial segment summary overflows summary block");
  }
  std::memset(block.data(), 0, block.size());
  Writer w(block);
  w.PutU32(0);  // sumsum placeholder.
  w.PutU32(datasum);
  w.PutU32(next);
  w.PutU32(create);
  w.PutU16(static_cast<uint16_t>(finfos.size()));
  uint32_t ninos = 0;
  for (const FInfo& f : finfos) {
    (void)f;
  }
  // ss_ninos counts inode *slots* in the trailing inode blocks. We recover it
  // at read time by scanning the inode blocks; the field records the count of
  // inode block addresses for framing.
  ninos = static_cast<uint32_t>(inode_daddrs.size());
  w.PutU16(static_cast<uint16_t>(ninos));
  w.PutU16(flags);
  w.PutU16(0);  // ss_pad.
  w.PutU64(serial);
  w.PutU16(0);  // Alignment spare.
  for (const FInfo& f : finfos) {
    w.PutU32(f.ino);
    w.PutU32(f.version);
    w.PutU32(static_cast<uint32_t>(f.lbns.size()));
    for (uint32_t lbn : f.lbns) {
      w.PutU32(lbn);
    }
  }
  for (uint32_t daddr : inode_daddrs) {
    w.PutU32(daddr);
  }
  // Compute sumsum over the block with the checksum field zeroed.
  uint32_t crc = Crc32(std::span<const uint8_t>(block.data(), block.size()));
  Writer cw(block.subspan(0, 4));
  cw.PutU32(crc);
  return OkStatus();
}

Result<SegSummary> SegSummary::DeserializeFromBlock(
    std::span<const uint8_t> block) {
  if (block.size() != kBlockSize) {
    return InvalidArgument("summary buffer must be one block");
  }
  Reader r(block);
  SegSummary s;
  s.sumsum = r.GetU32();
  // Verify the checksum first. sumsum covers the block with its own field
  // zeroed, so chain the CRC over four zero bytes and then the rest.
  constexpr uint8_t kZeroSumsum[4] = {};
  if (Crc32(block.subspan(4), Crc32(kZeroSumsum)) != s.sumsum) {
    return Corruption("segment summary checksum mismatch");
  }
  s.datasum = r.GetU32();
  s.next = r.GetU32();
  s.create = r.GetU32();
  uint16_t nfinfo = r.GetU16();
  uint16_t ninoblocks = r.GetU16();
  s.flags = r.GetU16();
  r.GetU16();  // ss_pad.
  s.serial = r.GetU64();
  r.GetU16();  // Alignment spare.
  s.finfos.reserve(nfinfo);
  for (uint16_t i = 0; i < nfinfo; ++i) {
    FInfo f;
    f.ino = r.GetU32();
    f.version = r.GetU32();
    uint32_t nblocks = r.GetU32();
    if (nblocks > kBlockSize) {
      return Corruption("FINFO block count implausible");
    }
    f.lbns.reserve(nblocks);
    for (uint32_t b = 0; b < nblocks; ++b) {
      f.lbns.push_back(r.GetU32());
    }
    s.finfos.push_back(std::move(f));
  }
  s.inode_daddrs.reserve(ninoblocks);
  for (uint16_t i = 0; i < ninoblocks; ++i) {
    s.inode_daddrs.push_back(r.GetU32());
  }
  RETURN_IF_ERROR(r.ToStatus("segment summary"));
  return s;
}

// --- SegUsage -----------------------------------------------------------------

void SegUsage::Serialize(std::span<uint8_t> out) const {
  Writer w(out.subspan(0, kEncodedSize));
  w.PutU32(live_bytes);
  w.PutU16(flags);
  w.PutU16(pad);
  w.PutU32(avail_bytes);
  w.PutU32(cache_tseg);
  w.PutU64(write_time);
}

SegUsage SegUsage::Deserialize(std::span<const uint8_t> in) {
  Reader r(in.subspan(0, kEncodedSize));
  SegUsage u;
  u.live_bytes = r.GetU32();
  u.flags = r.GetU16();
  u.pad = r.GetU16();
  u.avail_bytes = r.GetU32();
  u.cache_tseg = r.GetU32();
  u.write_time = r.GetU64();
  return u;
}

// --- InodeMapEntry --------------------------------------------------------------

void InodeMapEntry::Serialize(std::span<uint8_t> out) const {
  Writer w(out.subspan(0, kEncodedSize));
  w.PutU32(daddr);
  w.PutU32(version);
  w.PutU32(free_link);
}

InodeMapEntry InodeMapEntry::Deserialize(std::span<const uint8_t> in) {
  Reader r(in.subspan(0, kEncodedSize));
  InodeMapEntry e;
  e.daddr = r.GetU32();
  e.version = r.GetU32();
  e.free_link = r.GetU32();
  return e;
}

// --- CleanerInfo -----------------------------------------------------------------

void CleanerInfo::Serialize(std::span<uint8_t> out) const {
  Writer w(out);
  w.PutU32(clean_segs);
  w.PutU32(dirty_segs);
  w.PutU32(free_inode_head);
  w.PutU32(max_inodes);
  w.Skip(w.remaining());
}

CleanerInfo CleanerInfo::Deserialize(std::span<const uint8_t> in) {
  Reader r(in);
  CleanerInfo c;
  c.clean_segs = r.GetU32();
  c.dirty_segs = r.GetU32();
  c.free_inode_head = r.GetU32();
  c.max_inodes = r.GetU32();
  return c;
}

// --- Superblock --------------------------------------------------------------------

void Superblock::Serialize(std::span<uint8_t> block) const {
  std::memset(block.data(), 0, block.size());
  Writer w(block);
  w.PutU64(magic);
  w.PutU32(version);
  w.PutU32(block_size);
  w.PutU32(seg_size_blocks);
  w.PutU32(reserved_blocks);
  w.PutU32(disk_blocks);
  w.PutU32(nsegs);
  w.PutU32(max_inodes);
  w.PutU32(cache_max_segments);
  w.PutU32(tertiary_nsegs);
  w.PutU32(segs_per_volume);
  w.PutU32(num_volumes);
  w.PutU32(tertiary_base);
  w.PutU32(tseg_ino);
  w.PutU64(created);
  // Trailing CRC over the populated prefix.
  size_t payload = w.offset();
  uint32_t crc = Crc32(std::span<const uint8_t>(block.data(), payload));
  Writer cw(block.subspan(payload, 4));
  cw.PutU32(crc);
}

Result<Superblock> Superblock::Deserialize(std::span<const uint8_t> block) {
  Reader r(block);
  Superblock sb;
  sb.magic = r.GetU64();
  if (sb.magic != kLfsMagic) {
    return Corruption("bad superblock magic");
  }
  sb.version = r.GetU32();
  sb.block_size = r.GetU32();
  sb.seg_size_blocks = r.GetU32();
  sb.reserved_blocks = r.GetU32();
  sb.disk_blocks = r.GetU32();
  sb.nsegs = r.GetU32();
  sb.max_inodes = r.GetU32();
  sb.cache_max_segments = r.GetU32();
  sb.tertiary_nsegs = r.GetU32();
  sb.segs_per_volume = r.GetU32();
  sb.num_volumes = r.GetU32();
  sb.tertiary_base = r.GetU32();
  sb.tseg_ino = r.GetU32();
  sb.created = r.GetU64();
  size_t payload = r.offset();
  uint32_t stored = r.GetU32();
  RETURN_IF_ERROR(r.ToStatus("superblock"));
  if (Crc32(std::span<const uint8_t>(block.data(), payload)) != stored) {
    return Corruption("superblock checksum mismatch");
  }
  if (sb.block_size != kBlockSize) {
    return Corruption("unsupported block size");
  }
  return sb;
}

// --- Checkpoint ---------------------------------------------------------------------

void CheckpointRegion::Serialize(std::span<uint8_t> block) const {
  std::memset(block.data(), 0, block.size());
  Writer w(block);
  w.PutU64(serial);
  w.PutU32(ifile_inode_daddr);
  w.PutU32(cur_seg);
  w.PutU32(cur_offset);
  w.PutU32(next_seg);
  w.PutU64(timestamp);
  w.PutU64(pseg_serial);
  size_t payload = w.offset();
  uint32_t crc = Crc32(std::span<const uint8_t>(block.data(), payload));
  Writer cw(block.subspan(payload, 4));
  cw.PutU32(crc);
}

Result<CheckpointRegion> CheckpointRegion::Deserialize(std::span<const uint8_t> block) {
  Reader r(block);
  CheckpointRegion cp;
  cp.serial = r.GetU64();
  cp.ifile_inode_daddr = r.GetU32();
  cp.cur_seg = r.GetU32();
  cp.cur_offset = r.GetU32();
  cp.next_seg = r.GetU32();
  cp.timestamp = r.GetU64();
  cp.pseg_serial = r.GetU64();
  size_t payload = r.offset();
  uint32_t stored = r.GetU32();
  RETURN_IF_ERROR(r.ToStatus("checkpoint"));
  if (Crc32(std::span<const uint8_t>(block.data(), payload)) != stored) {
    return Corruption("checkpoint checksum mismatch");
  }
  return cp;
}

// --- DirEntry -----------------------------------------------------------------------

void DirEntry::Serialize(std::span<uint8_t> out) const {
  Writer w(out.subspan(0, kDirEntrySize));
  w.PutU32(ino);
  w.PutU8(static_cast<uint8_t>(name.size()));
  w.PutStringField(name, kMaxNameLen);
  w.Skip(w.remaining());
}

DirEntry DirEntry::Deserialize(std::span<const uint8_t> in) {
  Reader r(in.subspan(0, kDirEntrySize));
  DirEntry e;
  e.ino = r.GetU32();
  uint8_t len = r.GetU8();
  e.name = r.GetStringField(kMaxNameLen);
  e.name.resize(std::min<size_t>(len, e.name.size()));
  return e;
}

}  // namespace hl

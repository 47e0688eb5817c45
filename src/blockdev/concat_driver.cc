#include "blockdev/concat_driver.h"

#include <cassert>

namespace hl {

ConcatDriver::ConcatDriver(std::string name,
                           std::vector<BlockDevice*> components)
    : name_(std::move(name)), components_(std::move(components)) {
  assert(!components_.empty());
  bases_.reserve(components_.size());
  for (BlockDevice* dev : components_) {
    bases_.push_back(total_blocks_);
    total_blocks_ += dev->NumBlocks();
  }
}

void ConcatDriver::AddComponent(BlockDevice* dev) {
  bases_.push_back(total_blocks_);
  components_.push_back(dev);
  total_blocks_ += dev->NumBlocks();
}

Result<std::vector<ConcatDriver::Extent>> ConcatDriver::Split(
    uint32_t block, uint32_t count) const {
  if (count == 0) {
    return InvalidArgument(name_ + ": zero-length I/O");
  }
  if (block >= total_blocks_ || count > total_blocks_ - block) {
    return OutOfRange(name_ + ": I/O beyond concatenated device end");
  }
  std::vector<Extent> extents;
  uint32_t remaining = count;
  uint32_t cur = block;
  while (remaining > 0) {
    size_t i = 0;
    while (i + 1 < bases_.size() && bases_[i + 1] <= cur) {
      ++i;
    }
    uint32_t local = cur - bases_[i];
    uint32_t room = components_[i]->NumBlocks() - local;
    uint32_t take = remaining < room ? remaining : room;
    extents.push_back(Extent{i, local, take});
    cur += take;
    remaining -= take;
  }
  return extents;
}

Status ConcatDriver::ReadBlocks(uint32_t block, uint32_t count,
                                std::span<uint8_t> out) {
  if (out.size() != static_cast<size_t>(count) * kBlockSize) {
    return InvalidArgument(name_ + ": read buffer size mismatch");
  }
  ASSIGN_OR_RETURN(std::vector<Extent> extents, Split(block, count));
  size_t offset = 0;
  for (const Extent& e : extents) {
    size_t bytes = static_cast<size_t>(e.count) * kBlockSize;
    RETURN_IF_ERROR(components_[e.component]->ReadBlocks(
        e.local_block, e.count, out.subspan(offset, bytes)));
    offset += bytes;
  }
  return OkStatus();
}

Status ConcatDriver::WriteBlocks(uint32_t block, uint32_t count,
                                 std::span<const uint8_t> data) {
  if (data.size() != static_cast<size_t>(count) * kBlockSize) {
    return InvalidArgument(name_ + ": write buffer size mismatch");
  }
  ASSIGN_OR_RETURN(std::vector<Extent> extents, Split(block, count));
  size_t offset = 0;
  for (const Extent& e : extents) {
    size_t bytes = static_cast<size_t>(e.count) * kBlockSize;
    RETURN_IF_ERROR(components_[e.component]->WriteBlocks(
        e.local_block, e.count, data.subspan(offset, bytes)));
    offset += bytes;
  }
  return OkStatus();
}

Status ConcatDriver::WriteShared(uint32_t block, uint32_t count,
                                 std::span<const ChunkRef> chunks) {
  ASSIGN_OR_RETURN(std::vector<Extent> extents, Split(block, count));
  if (extents.size() != 1) {
    return BlockDevice::WriteShared(block, count, chunks);
  }
  const Extent& e = extents.front();
  return components_[e.component]->WriteShared(e.local_block, e.count, chunks);
}

Status ConcatDriver::Flush() {
  for (BlockDevice* dev : components_) {
    RETURN_IF_ERROR(dev->Flush());
  }
  return OkStatus();
}

}  // namespace hl

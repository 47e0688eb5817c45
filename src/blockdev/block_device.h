// Abstract block device interface shared by disks, the concatenation
// pseudo-driver, and HighLight's block-map driver.
//
// All HighLight media use 4 KB blocks (the paper's block size; pointers are
// 32-bit block numbers addressing 4 KB units, giving the 16 TB ceiling).
//
// Bytes move between devices either copied (ReadBlocks/WriteBlocks) or as
// 64 KB chunk references (WriteShared), which the I/O server uses to
// install a tertiary image into a cache line; a device that cannot hold a
// range by reference copies it in.

#ifndef HIGHLIGHT_BLOCKDEV_BLOCK_DEVICE_H_
#define HIGHLIGHT_BLOCKDEV_BLOCK_DEVICE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/chunk.h"
#include "util/status.h"

namespace hl {

constexpr uint32_t kBlockSize = 4096;
constexpr uint32_t kBlockShift = 12;

// Out-of-band block number meaning "unassigned" (the paper's -1 sentinel).
constexpr uint32_t kNoBlock = 0xFFFFFFFFu;

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint32_t NumBlocks() const = 0;
  virtual const std::string& Name() const = 0;

  // Reads `count` consecutive blocks starting at `block`. `out` must be
  // exactly count * kBlockSize bytes.
  virtual Status ReadBlocks(uint32_t block, uint32_t count,
                            std::span<uint8_t> out) = 0;

  // Writes `count` consecutive blocks starting at `block`.
  virtual Status WriteBlocks(uint32_t block, uint32_t count,
                             std::span<const uint8_t> data) = 0;

  // Writes `count` blocks whose bytes are `chunks`, in order, sharing them
  // where the device can hold references. `chunks` must be exactly the
  // chunks the `count` blocks need; the last one may be partly used.
  // SimDisk installs the chunks themselves as that range of its chunk store
  // when the range is whole chunks on its chunk grid, so the bytes never
  // move. In every other respect it is WriteBlocks of the same bytes: range
  // check, fault draw, service time, counters, and a failed write leaves
  // the range as it was. This default, for ranges a device cannot hold by
  // reference, copies the chunks into one buffer (CopyChunks) and calls
  // WriteBlocks.
  virtual Status WriteShared(uint32_t block, uint32_t count,
                             std::span<const ChunkRef> chunks) {
    const uint64_t bytes = uint64_t{count} * kBlockSize;
    if (chunks.size() != (bytes + Chunk::kBytes - 1) / Chunk::kBytes) {
      return InvalidArgument(Name() + ": shared write chunk count mismatch");
    }
    std::vector<uint8_t> data(bytes);
    CopyChunks(chunks, data);
    return WriteBlocks(block, count, data);
  }

  // Flushes any volatile state (a no-op for the simulated devices, but part
  // of the contract mount code relies on).
  virtual Status Flush() { return OkStatus(); }
};

}  // namespace hl

#endif  // HIGHLIGHT_BLOCKDEV_BLOCK_DEVICE_H_

// Abstract block device interface shared by disks, the concatenation
// pseudo-driver, and HighLight's block-map driver.
//
// All HighLight media use 4 KB blocks (the paper's block size; pointers are
// 32-bit block numbers addressing 4 KB units, giving the 16 TB ceiling).

#ifndef HIGHLIGHT_BLOCKDEV_BLOCK_DEVICE_H_
#define HIGHLIGHT_BLOCKDEV_BLOCK_DEVICE_H_

#include <cstdint>
#include <span>
#include <string>

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

  // The device's own bytes for [block, block + count), or an empty span
  // when it has none to lend (the default, and any invalid range). A caller
  // may fill them and then commit with WriteBlocks() of that same span,
  // which moves no data but is otherwise an ordinary write: range check,
  // fault draw, service time and counters. Only that WriteBlocks counts as
  // a write; the bytes change when filled, so a failed commit leaves
  // whatever was filled in place.
  virtual std::span<uint8_t> InPlaceBytes(uint32_t block, uint32_t count) {
    (void)block;
    (void)count;
    return {};
  }

  // Flushes any volatile state (a no-op for the simulated devices, but part
  // of the contract mount code relies on).
  virtual Status Flush() { return OkStatus(); }
};

}  // namespace hl

#endif  // HIGHLIGHT_BLOCKDEV_BLOCK_DEVICE_H_

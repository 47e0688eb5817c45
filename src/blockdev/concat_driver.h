// ConcatDriver: the "concatenated disk driver" pseudo-device of Figure 5.
//
// Presents several BlockDevices as one linear block address space, splitting
// I/O that spans component boundaries. HighLight's disk farm sits behind this
// driver; placing the staging/cache segment range on a second component disk
// is how the Table 6 two-spindle experiments are expressed.

#ifndef HIGHLIGHT_BLOCKDEV_CONCAT_DRIVER_H_
#define HIGHLIGHT_BLOCKDEV_CONCAT_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "blockdev/block_device.h"

namespace hl {

class ConcatDriver : public BlockDevice {
 public:
  // Non-owning: components must outlive the driver.
  ConcatDriver(std::string name, std::vector<BlockDevice*> components);

  uint32_t NumBlocks() const override { return total_blocks_; }
  const std::string& Name() const override { return name_; }

  Status ReadBlocks(uint32_t block, uint32_t count,
                    std::span<uint8_t> out) override;
  Status WriteBlocks(uint32_t block, uint32_t count,
                     std::span<const uint8_t> data) override;
  // Forwards to the component holding the whole range; a range that
  // straddles two components has no single image and gets an empty span.
  std::span<uint8_t> InPlaceBytes(uint32_t block, uint32_t count) override;
  Status Flush() override;

  // On-line growth: appends a component at the top of the address space
  // (HighLight's incremental disk addition, paper sections 6.4 and 10).
  void AddComponent(BlockDevice* dev);

  size_t NumComponents() const { return components_.size(); }
  // First block of component `i` in the concatenated space.
  uint32_t ComponentBase(size_t i) const { return bases_[i]; }
  BlockDevice* Component(size_t i) const { return components_[i]; }

 private:
  struct Extent {
    size_t component;
    uint32_t local_block;
    uint32_t count;
  };
  // Decomposes [block, block+count) into per-component extents.
  Result<std::vector<Extent>> Split(uint32_t block, uint32_t count) const;

  std::string name_;
  std::vector<BlockDevice*> components_;
  std::vector<uint32_t> bases_;  // bases_[i] = first global block of comp i.
  uint32_t total_blocks_ = 0;
};

}  // namespace hl

#endif  // HIGHLIGHT_BLOCKDEV_CONCAT_DRIVER_H_

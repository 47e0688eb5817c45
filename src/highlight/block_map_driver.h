// BlockMapDriver: the block-map pseudo-device of Figure 5.
//
// Presents the uniform HighLight block address space as a single
// BlockDevice. Disk addresses route to the concatenated disk driver;
// tertiary addresses route through the segment cache, demand-fetching the
// containing segment on a miss (by waking the service process); dead-zone
// addresses error out. The file system above never learns where a block
// physically lives.

#ifndef HIGHLIGHT_HIGHLIGHT_BLOCK_MAP_DRIVER_H_
#define HIGHLIGHT_HIGHLIGHT_BLOCK_MAP_DRIVER_H_

#include <functional>
#include <string>

#include "blockdev/block_device.h"
#include "highlight/address_map.h"
#include "highlight/segment_cache.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/span.h"

namespace hl {

class BlockMapDriver : public BlockDevice {
 public:
  BlockMapDriver(BlockDevice* disk, const AddressMap* amap,
                 uint32_t reserved_blocks, uint32_t seg_size_blocks)
      : disk_(disk),
        amap_(amap),
        reserved_blocks_(reserved_blocks),
        seg_size_blocks_(seg_size_blocks) {}

  // Wired after construction (the cache needs the Lfs, which needs this
  // driver; see HighLightFs).
  void SetCache(SegmentCache* cache) { cache_ = cache; }
  void SetFetchHandler(std::function<Status(uint32_t tseg)> handler) {
    fetch_handler_ = std::move(handler);
  }

  uint32_t NumBlocks() const override { return kNoBlock; }
  const std::string& Name() const override { return name_; }

  Status ReadBlocks(uint32_t block, uint32_t count,
                    std::span<uint8_t> out) override;
  Status WriteBlocks(uint32_t block, uint32_t count,
                     std::span<const uint8_t> data) override;
  Status Flush() override { return disk_->Flush(); }

  struct Stats {
    Counter disk_reads;
    Counter tertiary_reads;     // Reads of tertiary addresses.
    Counter demand_faults;      // Reads that triggered a fetch.
    Counter staging_writes;     // Writes into staging lines.
    Counter dead_zone_accesses;
  };
  const Stats& stats() const { return stats_; }

  // Re-homes counters into `registry` under "blockmap.*".
  void AttachMetrics(MetricsRegistry* registry);
  // Records a demand_fault instant (tseg, daddr) on the "blockmap" track
  // per read of an uncached tertiary address. Null disables.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

 private:
  // Resolves a tertiary address to the disk address of its cached copy,
  // demand-fetching if needed.
  Result<uint32_t> ResolveTertiary(uint32_t daddr, bool for_write);

  BlockDevice* disk_;
  const AddressMap* amap_;
  uint32_t reserved_blocks_;
  uint32_t seg_size_blocks_;
  SegmentCache* cache_ = nullptr;
  std::function<Status(uint32_t)> fetch_handler_;
  std::string name_ = "highlight-blockmap";
  Stats stats_;
  SpanTracer* spans_ = nullptr;
};

}  // namespace hl

#endif  // HIGHLIGHT_HIGHLIGHT_BLOCK_MAP_DRIVER_H_

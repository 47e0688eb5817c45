#include "highlight/block_map_driver.h"

#include "util/logging.h"

namespace hl {

Result<uint32_t> BlockMapDriver::ResolveTertiary(uint32_t daddr,
                                                 bool for_write) {
  if (cache_ == nullptr) {
    return Internal("block-map driver has no segment cache attached");
  }
  uint32_t tseg = amap_->TsegOf(daddr);
  // Writes target staging lines the migrator allocated; they are not demand
  // accesses, so keep them out of the hit/miss accounting.
  uint32_t line = for_write ? cache_->Lookup(tseg)
                            : cache_->LookupForAccess(tseg);
  if (line == kNoSegment) {
    if (for_write) {
      return InvalidArgument(
          "write to uncached tertiary address " + std::to_string(daddr) +
          " (only staging lines are writable)");
    }
    stats_.demand_faults++;
    RecordInstant(spans_, "demand_fault", "blockmap", "tseg", tseg, "daddr",
                  daddr);
    if (!fetch_handler_) {
      return Internal("no demand-fetch handler installed");
    }
    RETURN_IF_ERROR(fetch_handler_(tseg));
    line = cache_->Lookup(tseg);
    if (line == kNoSegment) {
      return Internal("demand fetch did not register tseg " +
                      std::to_string(tseg));
    }
  }
  cache_->Touch(tseg);
  return reserved_blocks_ + line * seg_size_blocks_ +
         amap_->OffsetInTseg(daddr);
}

void BlockMapDriver::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  stats_.disk_reads.BindTo(*registry, "blockmap.disk_reads");
  stats_.tertiary_reads.BindTo(*registry, "blockmap.tertiary_reads");
  stats_.demand_faults.BindTo(*registry, "blockmap.demand_faults");
  stats_.staging_writes.BindTo(*registry, "blockmap.staging_writes");
  stats_.dead_zone_accesses.BindTo(*registry, "blockmap.dead_zone_accesses");
}

Status BlockMapDriver::ReadBlocks(uint32_t block, uint32_t count,
                                  std::span<uint8_t> out) {
  if (out.size() != static_cast<size_t>(count) * kBlockSize) {
    return InvalidArgument("blockmap: read buffer size mismatch");
  }
  uint32_t done = 0;
  while (done < count) {
    uint32_t cur = block + done;
    uint32_t remaining = count - done;
    std::span<uint8_t> slice(
        out.data() + static_cast<size_t>(done) * kBlockSize, 0);
    switch (amap_->Classify(cur)) {
      case AddressMap::Zone::kDisk: {
        // Clip the run at the disk/tertiary boundary.
        uint32_t take =
            std::min<uint32_t>(remaining, amap_->disk_blocks() - cur);
        slice = std::span<uint8_t>(slice.data(),
                                   static_cast<size_t>(take) * kBlockSize);
        RETURN_IF_ERROR(disk_->ReadBlocks(cur, take, slice));
        stats_.disk_reads++;
        done += take;
        break;
      }
      case AddressMap::Zone::kTertiary: {
        // Clip at the tertiary segment boundary: cache lines are per-tseg.
        uint32_t in_seg = amap_->OffsetInTseg(cur);
        uint32_t take =
            std::min<uint32_t>(remaining, seg_size_blocks_ - in_seg);
        ASSIGN_OR_RETURN(uint32_t disk_addr,
                         ResolveTertiary(cur, /*for_write=*/false));
        slice = std::span<uint8_t>(slice.data(),
                                   static_cast<size_t>(take) * kBlockSize);
        RETURN_IF_ERROR(disk_->ReadBlocks(disk_addr, take, slice));
        stats_.tertiary_reads++;
        done += take;
        break;
      }
      case AddressMap::Zone::kDead:
        stats_.dead_zone_accesses++;
        return Status(ErrorCode::kDeadZone,
                      "read of dead-zone address " + std::to_string(cur));
    }
  }
  return OkStatus();
}

Status BlockMapDriver::WriteBlocks(uint32_t block, uint32_t count,
                                   std::span<const uint8_t> data) {
  if (data.size() != static_cast<size_t>(count) * kBlockSize) {
    return InvalidArgument("blockmap: write buffer size mismatch");
  }
  uint32_t done = 0;
  while (done < count) {
    uint32_t cur = block + done;
    uint32_t remaining = count - done;
    const uint8_t* src = data.data() + static_cast<size_t>(done) * kBlockSize;
    switch (amap_->Classify(cur)) {
      case AddressMap::Zone::kDisk: {
        uint32_t take =
            std::min<uint32_t>(remaining, amap_->disk_blocks() - cur);
        RETURN_IF_ERROR(disk_->WriteBlocks(
            cur, take,
            std::span<const uint8_t>(src,
                                     static_cast<size_t>(take) * kBlockSize)));
        done += take;
        break;
      }
      case AddressMap::Zone::kTertiary: {
        uint32_t in_seg = amap_->OffsetInTseg(cur);
        uint32_t take =
            std::min<uint32_t>(remaining, seg_size_blocks_ - in_seg);
        ASSIGN_OR_RETURN(uint32_t disk_addr,
                         ResolveTertiary(cur, /*for_write=*/true));
        RETURN_IF_ERROR(disk_->WriteBlocks(
            disk_addr, take,
            std::span<const uint8_t>(src,
                                     static_cast<size_t>(take) * kBlockSize)));
        stats_.staging_writes++;
        done += take;
        break;
      }
      case AddressMap::Zone::kDead:
        stats_.dead_zone_accesses++;
        return Status(ErrorCode::kDeadZone,
                      "write to dead-zone address " + std::to_string(cur));
    }
  }
  return OkStatus();
}

}  // namespace hl

#include "highlight/tertiary_cleaner.h"

#include <algorithm>

#include "util/logging.h"

namespace hl {

void TertiaryCleaner::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  stats_.volumes_cleaned.BindTo(*registry, "tcleaner.volumes_cleaned");
  stats_.blocks_moved.BindTo(*registry, "tcleaner.blocks_moved");
  stats_.inodes_moved.BindTo(*registry, "tcleaner.inodes_moved");
  stats_.segments_reclaimed.BindTo(*registry, "tcleaner.segments_reclaimed");
}

double TertiaryCleaner::VolumeLiveFraction(uint32_t volume) const {
  uint64_t live = 0;
  uint64_t written = 0;
  uint32_t first = amap_->FirstTsegOfVolume(volume);
  for (uint32_t s = 0; s < amap_->segs_per_volume(); ++s) {
    const SegUsage& u = tsegs_->Get(first + s);
    if (!(u.flags & kSegClean)) {
      written += amap_->SegBytes();
      live += u.live_bytes;
    }
  }
  if (written == 0) {
    return 1.0;  // Nothing to reclaim.
  }
  return static_cast<double>(live) / static_cast<double>(written);
}

Result<uint64_t> TertiaryCleaner::CleanVolume(uint32_t volume) {
  if (volume >= amap_->num_volumes()) {
    return OutOfRange("no volume " + std::to_string(volume));
  }
  {
    ASSIGN_OR_RETURN(Volume * medium,
                     footprint_->GetVolume(static_cast<int>(volume)));
    if (medium->write_once()) {
      return Status(ErrorCode::kNotSupported,
                    "cannot clean a write-once volume");
    }
  }
  // Stable state only.
  RETURN_IF_ERROR(fs_->Sync());
  // Fresh segments must land on other volumes while this one is cleaned.
  migrator_->ExcludeVolume(volume);

  // Pass 1: one sequential sweep over the volume's dirty segments,
  // collecting live (ino -> refs) plus live inodes, in segment order.
  uint32_t first = amap_->FirstTsegOfVolume(volume);
  std::map<uint32_t, std::vector<BlockRef>> live_blocks;
  std::vector<uint32_t> live_inodes;
  std::vector<uint32_t> dirty_tsegs;
  uint32_t spb = fs_->superblock().seg_size_blocks;

  for (uint32_t s = 0; s < amap_->segs_per_volume(); ++s) {
    uint32_t tseg = first + s;
    const SegUsage& u = tsegs_->Get(tseg);
    if (u.flags & kSegClean) {
      continue;
    }
    dirty_tsegs.push_back(tseg);
    if (u.live_bytes == 0) {
      continue;  // Fully dead: no need to even fetch it.
    }
    // Read the segment image through the block-map driver; this demand
    // fetches it into the cache (the cleaner's working copy).
    std::vector<uint8_t> image(static_cast<size_t>(spb) * kBlockSize);
    RETURN_IF_ERROR(dev_->ReadBlocks(amap_->TsegBase(tseg), spb, image));
    for (const ParsedPartial& p :
         ParsePartialsFromImage(image, amap_->TsegBase(tseg), spb)) {
      uint32_t cursor = p.base_daddr + 1;
      for (const FInfo& f : p.summary.finfos) {
        for (uint32_t lbn : f.lbns) {
          BlockRef ref{f.ino, f.version, lbn, cursor};
          if (fs_->IsLive(ref)) {
            live_blocks[f.ino].push_back(ref);
          }
          ++cursor;
        }
      }
      for (uint32_t inode_daddr : p.summary.inode_daddrs) {
        const uint8_t* blk =
            image.data() +
            static_cast<size_t>(inode_daddr - amap_->TsegBase(tseg)) *
                kBlockSize;
        for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
          Result<DInode> d = DInode::Deserialize(std::span<const uint8_t>(
              blk + slot * kInodeSize, kInodeSize));
          if (!d.ok() || d->ino == kNoInode) {
            continue;
          }
          Result<uint32_t> cur = fs_->InodeDaddr(d->ino);
          if (cur.ok() && *cur == inode_daddr) {
            live_inodes.push_back(d->ino);
          }
        }
      }
    }
  }

  // Pass 2: re-migrate live data per file (data first, then metadata in
  // child -> root -> single order; the BlockRef collection order from the
  // summaries is normalized by sorting).
  MigratorOptions opts;  // Immediate copy-out keeps the pipeline simple.
  MigrationReport report;
  uint64_t moved = 0;
  for (auto& [ino, refs] : live_blocks) {
    std::sort(refs.begin(), refs.end(),
              [](const BlockRef& a, const BlockRef& b) {
                return a.lbn < b.lbn;  // Data asc, then meta encodings asc.
              });
    bool restage_inode =
        std::find(live_inodes.begin(), live_inodes.end(), ino) !=
        live_inodes.end();
    RETURN_IF_ERROR(
        migrator_->ReMigrateFileBlocks(ino, refs, restage_inode, opts,
                                       report));
    moved += refs.size();
  }
  // Inodes whose blocks all died but which still live on the volume.
  for (uint32_t ino : live_inodes) {
    if (live_blocks.count(ino) > 0) {
      continue;  // Already restaged with its blocks.
    }
    RETURN_IF_ERROR(
        migrator_->ReMigrateFileBlocks(ino, {}, /*restage_inode=*/true, opts,
                                       report));
    stats_.inodes_moved++;
  }
  RETURN_IF_ERROR(migrator_->FlushStaging());

  // Pass 3: the volume is dead — eject its cache lines (their tags become
  // meaningless), erase the medium, and return its segments to the pool.
  for (uint32_t tseg : dirty_tsegs) {
    if (cache_->Lookup(tseg) != kNoSegment) {
      RETURN_IF_ERROR(cache_->Eject(tseg));
    }
    tsegs_->SetFlags(tseg, kSegClean, kSegDirty);
    tsegs_->SetAvailBytes(tseg,
                          static_cast<uint32_t>(amap_->SegBytes()));
    tsegs_->SetWriteTime(tseg, 0);
    tsegs_->ClearCrc(tseg);
    stats_.segments_reclaimed++;
  }
  // Replicas elsewhere whose primaries lived on this volume are now
  // orphans: release them too (their space was never counted as live). The
  // replica index makes this a per-primary lookup instead of a full-table
  // scan.
  for (uint32_t primary : dirty_tsegs) {
    for (uint32_t t : tsegs_->ReplicasOf(primary)) {
      tsegs_->SetFlags(t, kSegClean, kSegDirty | kSegReplica);
      tsegs_->SetAvailBytes(t, static_cast<uint32_t>(amap_->SegBytes()));
      tsegs_->ClearCrc(t);
    }
  }
  RETURN_IF_ERROR(footprint_->EraseVolume(static_cast<int>(volume)));
  // Buffered read-ahead images may alias the erased medium: drop them.
  service_->DropPendingPrefetches();
  migrator_->UnexcludeVolume(volume);
  RETURN_IF_ERROR(tsegs_->Store());
  RETURN_IF_ERROR(fs_->Checkpoint());

  stats_.volumes_cleaned++;
  stats_.blocks_moved += moved;
  RecordInstant(spans_, "clean_volume", "tcleaner", "volume", volume,
                "moved_blocks", moved);
  HL_LOG(kInfo, "tcleaner",
         "cleaned volume " + std::to_string(volume) + ": moved " +
             std::to_string(moved) + " live blocks, reclaimed " +
             std::to_string(dirty_tsegs.size()) + " segments");
  return moved;
}

Result<uint64_t> TertiaryCleaner::CleanWorstVolume(double max_live_fraction) {
  uint32_t best = kNoSegment;
  double best_fraction = max_live_fraction;
  for (uint32_t v = 0; v < amap_->num_volumes(); ++v) {
    Result<Volume*> medium = footprint_->GetVolume(static_cast<int>(v));
    if (!medium.ok() || (*medium)->write_once()) {
      continue;
    }
    double fraction = VolumeLiveFraction(v);
    // Only consider volumes that actually hold dirty segments.
    uint32_t first = amap_->FirstTsegOfVolume(v);
    bool any_dirty = false;
    for (uint32_t s = 0; s < amap_->segs_per_volume(); ++s) {
      if (!(tsegs_->Get(first + s).flags & kSegClean)) {
        any_dirty = true;
        break;
      }
    }
    if (any_dirty && fraction < best_fraction) {
      best_fraction = fraction;
      best = v;
    }
  }
  if (best == kNoSegment) {
    return NotFound("no volume below the live-fraction threshold");
  }
  return CleanVolume(best);
}

}  // namespace hl

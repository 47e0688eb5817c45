#include "lfs/cleaner.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"
#include "util/serialize.h"

namespace hl {

void Cleaner::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  stats_.segments_cleaned.BindTo(*registry, "cleaner.segments_cleaned");
  stats_.blocks_examined.BindTo(*registry, "cleaner.blocks_examined");
  stats_.blocks_live.BindTo(*registry, "cleaner.blocks_live");
  stats_.inodes_relocated.BindTo(*registry, "cleaner.inodes_relocated");
}

std::vector<uint32_t> Cleaner::RankSegments() const {
  struct Candidate {
    uint32_t seg;
    double score;
  };
  std::vector<Candidate> candidates;
  uint64_t now = fs_->clock()->Now();
  uint32_t seg_bytes = fs_->superblock().SegByteSize();
  for (uint32_t seg = 0; seg < fs_->NumSegments(); ++seg) {
    const SegUsage& u = fs_->GetSegUsage(seg);
    if ((u.flags & (kSegClean | kSegActive | kSegCacheEligible |
                    kSegNoStore)) != 0) {
      continue;
    }
    if (seg == fs_->cur_seg() || seg == fs_->next_seg()) {
      continue;
    }
    double utilization =
        std::min(1.0, static_cast<double>(u.live_bytes) / seg_bytes);
    double score;
    if (policy_ == CleanerPolicy::kGreedy) {
      score = 1.0 - utilization;
    } else {
      double age_sec =
          static_cast<double>(now - std::min<uint64_t>(u.write_time, now)) /
          kUsPerSec;
      score = (1.0 - utilization) * (1.0 + age_sec) / (1.0 + utilization);
    }
    candidates.push_back(Candidate{seg, score});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });
  std::vector<uint32_t> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    out.push_back(c.seg);
  }
  return out;
}

Status Cleaner::CleanOne(uint32_t seg) {
  ASSIGN_OR_RETURN(std::vector<ParsedPartial> partials,
                   fs_->ParseSegment(seg));

  std::vector<BlockRef> live_refs;
  std::vector<std::vector<uint8_t>> live_data;
  std::vector<uint8_t> inode_block(kBlockSize);

  for (const ParsedPartial& p : partials) {
    // Reconstruct the block layout: data blocks follow the summary in FINFO
    // order, then inode blocks.
    uint32_t cursor = p.base_daddr + 1;
    for (const FInfo& f : p.summary.finfos) {
      for (uint32_t lbn : f.lbns) {
        BlockRef ref{f.ino, f.version, lbn, cursor};
        stats_.blocks_examined++;
        if (fs_->IsLive(ref)) {
          // Read into the buffer that will become the dirty block.
          std::vector<uint8_t> block(kBlockSize);
          RETURN_IF_ERROR(fs_->device()->ReadBlocks(cursor, 1, block));
          live_refs.push_back(ref);
          live_data.push_back(std::move(block));
          stats_.blocks_live++;
        }
        ++cursor;
      }
    }
    // Inode blocks: any inode whose map entry still points here moves.
    // Only each slot's ino field is read; RelocateInode checks the map.
    for (uint32_t inode_daddr : p.summary.inode_daddrs) {
      RETURN_IF_ERROR(fs_->device()->ReadBlocks(inode_daddr, 1, inode_block));
      for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
        std::span<const uint8_t> inode(
            inode_block.data() + slot * kInodeSize, kInodeSize);
        uint32_t ino = Reader(inode).GetU32();  // A DInode's first field.
        if (ino == kNoInode) {
          continue;
        }
        ASSIGN_OR_RETURN(bool moved, fs_->RelocateInode(ino, inode_daddr));
        if (moved) {
          stats_.inodes_relocated++;
        }
      }
    }
  }

  RETURN_IF_ERROR(
      fs_->RewriteBlocks(live_refs, std::move(live_data)).status());
  // Push the relocations into the log, then retire the segment.
  RETURN_IF_ERROR(fs_->Sync());
  RETURN_IF_ERROR(fs_->MarkSegmentClean(seg));
  stats_.segments_cleaned++;
  RecordInstant(spans_, "clean_pass", "cleaner", "seg", seg, "live_blocks",
                stats_.blocks_live);
  return OkStatus();
}

Result<uint32_t> Cleaner::Clean(uint32_t max_segments) {
  std::vector<uint32_t> ranked = RankSegments();
  uint32_t done = 0;
  for (uint32_t seg : ranked) {
    if (done >= max_segments) {
      break;
    }
    RETURN_IF_ERROR(CleanOne(seg));
    ++done;
  }
  if (done > 0) {
    // Make the reclaimed state durable before the segments are reused.
    RETURN_IF_ERROR(fs_->Checkpoint());
  }
  return done;
}

Result<uint32_t> Cleaner::CleanUntil(uint32_t target_clean) {
  uint32_t total = 0;
  uint32_t prev_clean = fs_->CleanSegmentCount();
  while (fs_->CleanSegmentCount() < target_clean) {
    ASSIGN_OR_RETURN(uint32_t done, Clean(4));
    if (done == 0) {
      break;
    }
    total += done;
    // Guard against livelock on a nearly-full disk: relocating live data
    // consumes segments as fast as cleaning frees them. If a round made no
    // forward progress, further rounds will not either.
    uint32_t now_clean = fs_->CleanSegmentCount();
    if (now_clean <= prev_clean) {
      break;
    }
    prev_clean = now_clean;
  }
  return total;
}

}  // namespace hl

// O(n) linear-scan references for TsegTable's indexed queries: the
// pre-index code paths, written against the table's public size()/Get()
// surface and the AddressMap. tests/tseg_index_test.cc and
// bench/engine_ops.cc check the O(1) indices against them (agreement) and
// time them (the indexed-vs-linear speedup floor). Beside them, a recount
// of every tseg's live bytes from the file system itself, which
// tests/highlight_migration_test.cc checks the per-delta accounting
// against. Header-only: nothing in src/ links or calls them.

#ifndef HIGHLIGHT_TESTS_TSEG_REFERENCE_H_
#define HIGHLIGHT_TESTS_TSEG_REFERENCE_H_

#include <cstdint>
#include <set>
#include <vector>

#include "highlight/address_map.h"
#include "highlight/migration_policy.h"
#include "highlight/tseg_table.h"
#include "lfs/lfs.h"
#include "util/status.h"

namespace hl {

// TsegTable::NextFreshTseg by scanning every volume's slots in order.
inline uint32_t NextFreshTsegLinear(const TsegTable& table,
                                    const AddressMap& amap,
                                    const std::set<uint32_t>& full_volumes,
                                    uint32_t preferred_volume = kNoSegment) {
  auto scan_volume = [&](uint32_t volume) -> uint32_t {
    if (full_volumes.count(volume) > 0) {
      return kNoSegment;
    }
    uint32_t first = amap.FirstTsegOfVolume(volume);
    for (uint32_t s = 0; s < amap.segs_per_volume(); ++s) {
      uint32_t tseg = first + s;
      if (table.Get(tseg).flags & kSegClean) {
        return tseg;
      }
    }
    return kNoSegment;
  };
  if (preferred_volume != kNoSegment &&
      preferred_volume < amap.num_volumes()) {
    uint32_t tseg = scan_volume(preferred_volume);
    if (tseg != kNoSegment) {
      return tseg;
    }
  }
  for (uint32_t volume = 0; volume < amap.num_volumes(); ++volume) {
    uint32_t tseg = scan_volume(volume);
    if (tseg != kNoSegment) {
      return tseg;
    }
  }
  return kNoSegment;
}

// TsegTable::ReplicasOf by scanning every entry's replica link.
inline std::vector<uint32_t> ReplicasOfLinear(const TsegTable& table,
                                              uint32_t primary) {
  std::vector<uint32_t> out;
  for (uint32_t t = 0; t < table.size(); ++t) {
    const SegUsage& u = table.Get(t);
    if ((u.flags & kSegReplica) && u.cache_tseg == primary) {
      out.push_back(t);
    }
  }
  return out;
}

// TsegTable::TotalLiveBytes by summing every entry.
inline uint64_t TotalLiveBytesLinear(const TsegTable& table) {
  uint64_t total = 0;
  for (uint32_t t = 0; t < table.size(); ++t) {
    total += table.Get(t).live_bytes;
  }
  return total;
}

// TsegTable::DirtyTsegCount by counting every non-clean entry.
inline uint32_t DirtyTsegCountLinear(const TsegTable& table) {
  uint32_t n = 0;
  for (uint32_t t = 0; t < table.size(); ++t) {
    if (!(table.Get(t).flags & kSegClean)) {
      ++n;
    }
  }
  return n;
}

// Every tseg's live bytes recounted from the file system: for each inode
// reachable from the root (hard links count once), kBlockSize for every
// tertiary block CollectFileBlocks lists and kInodeSize when the inode
// itself is on tertiary. Indexed by tseg; TsegTable::Get(t).live_bytes must
// equal entry t.
inline Result<std::vector<uint64_t>> RecountTertiaryLiveBytes(
    Lfs& fs, const AddressMap& amap) {
  std::vector<uint64_t> live(amap.tertiary_nsegs(), 0);
  auto count = [&](uint32_t daddr, uint64_t bytes) {
    if (amap.Classify(daddr) == AddressMap::Zone::kTertiary &&
        amap.TsegOf(daddr) < live.size()) {
      live[amap.TsegOf(daddr)] += bytes;
    }
  };
  ASSIGN_OR_RETURN(std::vector<FileCandidate> tree,
                   WalkTree(fs, "/", /*include_dirs=*/true));
  std::set<uint32_t> inos = {kRootInode};
  for (const FileCandidate& f : tree) {
    inos.insert(f.ino);
  }
  for (uint32_t ino : inos) {
    ASSIGN_OR_RETURN(std::vector<BlockRef> refs, fs.CollectFileBlocks(ino));
    for (const BlockRef& ref : refs) {
      count(ref.daddr, kBlockSize);
    }
    ASSIGN_OR_RETURN(uint32_t inode_daddr, fs.InodeDaddr(ino));
    count(inode_daddr, kInodeSize);
  }
  return live;
}

}  // namespace hl

#endif  // HIGHLIGHT_TESTS_TSEG_REFERENCE_H_

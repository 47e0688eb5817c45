// TsegTable: the in-core view of the tsegfile, HighLight's companion to the
// ifile holding one summary entry per *tertiary* segment (paper section 6.4).
//
// Entries use the same SegUsage format as the ifile's segment usage table.
// The table receives live-byte deltas through the Lfs tertiary-accounting
// hook, tracks which tertiary segments hold data, and persists itself back
// into the tsegfile (which, like all HighLight special files, always stays
// on disk).
//
// Every per-operation query is O(1) (amortized) via indices maintained by
// the mutators (see DESIGN.md "Engine bookkeeping performance"):
//   - a per-volume clean-segment cursor + clean count behind NextFreshTseg
//     (the cursor only moves forward between clean events; a segment going
//     dirty->clean below the cursor repairs it back),
//   - a primary -> replicas multimap behind ReplicasOf, maintained by
//     SetReplicaOf and by flag clears through SetFlags,
//   - incrementally-maintained total-live-bytes / dirty-count aggregates.
// The O(n) linear-scan forms live in tests/tseg_reference.h: the property
// test and bench/engine_ops.cc check the indices against them.

#ifndef HIGHLIGHT_HIGHLIGHT_TSEG_TABLE_H_
#define HIGHLIGHT_HIGHLIGHT_TSEG_TABLE_H_

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "highlight/address_map.h"
#include "lfs/lfs.h"
#include "util/metrics.h"
#include "util/status.h"

namespace hl {

class TsegTable {
 public:
  TsegTable(Lfs* fs, const AddressMap* amap) : fs_(fs), amap_(amap) {}

  // Binds the anomaly/store counters into the registry (tseg.* namespace).
  void AttachMetrics(MetricsRegistry* registry);

  // Loads entries from the tsegfile (after mkfs or mount) and rebuilds the
  // in-core indices from scratch.
  Status Load();
  // Writes dirty entries back into the tsegfile, coalescing runs of
  // adjacent dirty tsegs into single writes (capped at one block's worth of
  // entries per write). Only dirty entries' bytes are written, so the set of
  // buffer-cache blocks touched is identical to per-entry writes.
  Status Store();

  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }
  const SegUsage& Get(uint32_t tseg) const { return entries_[tseg]; }

  // Accounting hook target: `daddr` is a tertiary block address. Deltas for
  // out-of-range tsegs are dropped (counted in tseg.accounting_dropped);
  // live-byte underflow clamps to 0 and overflow clamps to UINT32_MAX
  // (tseg.underflow_clamped / tseg.overflow_clamped) — each anomaly also
  // logs once per mount so accounting corruption is observable.
  void OnAccounting(uint32_t daddr, int64_t delta_bytes);

  void SetFlags(uint32_t tseg, uint16_t set, uint16_t clear);
  void SetAvailBytes(uint32_t tseg, uint32_t avail);
  void SetWriteTime(uint32_t tseg, uint64_t t);

  // Replica catalog (section 5.4 "closest copy" variant): `tseg` becomes a
  // replica of `primary`. Stored in the entry's cache_tseg field, so the
  // catalog survives remounts via the tsegfile.
  void SetReplicaOf(uint32_t tseg, uint32_t primary);
  bool IsReplica(uint32_t tseg) const {
    return (entries_[tseg].flags & kSegReplica) != 0;
  }
  // All replicas of a primary segment, ascending (indexed; O(1) + copy).
  std::vector<uint32_t> ReplicasOf(uint32_t primary) const;

  // Allocation cursor for the migrator: the next never-written tertiary
  // segment, consuming volumes one at a time in volume order (volume 0
  // first). Skips segments on volumes marked full. kNoSegment when tertiary
  // space is exhausted. A preferred volume, when given, is tried first —
  // the mechanism behind directing several migration streams at different
  // media (section 6.5). Amortized O(1): volumes with no clean segments are
  // skipped via their clean counts, and the in-volume scan resumes at the
  // per-volume cursor.
  uint32_t NextFreshTseg(const std::set<uint32_t>& full_volumes,
                         uint32_t preferred_volume = kNoSegment) const;

  // Clean segments remaining on one volume (index lookup).
  uint32_t CleanCount(uint32_t volume) const {
    return volume < volumes_.size() ? volumes_[volume].clean_count : 0;
  }

  // Aggregates (reporting): incrementally maintained, O(1).
  uint64_t TotalLiveBytes() const { return total_live_bytes_; }
  uint32_t DirtyTsegCount() const { return dirty_count_; }

  // In-core CRC32 catalog, stamped at copy-out and checked on every fetch.
  // Deliberately NOT persisted: the tsegfile's on-media format is frozen, so
  // after a remount the catalog starts empty and the scrubber re-stamps
  // entries from the media's own summary checksums.
  void SetCrc(uint32_t tseg, uint32_t crc) { crcs_[tseg] = crc; }
  void ClearCrc(uint32_t tseg) { crcs_.erase(tseg); }
  bool CrcOf(uint32_t tseg, uint32_t* crc) const {
    auto it = crcs_.find(tseg);
    if (it == crcs_.end()) {
      return false;
    }
    *crc = it->second;
    return true;
  }
  size_t CrcCount() const { return crcs_.size(); }

  struct Stats {
    Counter accounting_dropped;   // Deltas for tsegs outside the table.
    Counter underflow_clamped;    // live_bytes clamped at 0.
    Counter overflow_clamped;     // live_bytes clamped at UINT32_MAX.
    Counter store_writes;         // Coalesced tsegfile writes issued.
    Counter store_entries;        // Dirty entries persisted by Store().
  };
  const Stats& stats() const { return stats_; }

 private:
  // Per-volume allocation index. Invariant: every slot below `cursor` holds
  // a non-clean segment, so the first clean slot (when clean_count > 0) is
  // found by scanning forward from `cursor`. Allocation advances the
  // cursor; a segment returning to clean below it repairs it back down.
  struct VolumeCursor {
    uint32_t clean_count = 0;
    uint32_t cursor = 0;
  };

  void RebuildIndices();
  // Re-syncs all indices after entries_[tseg] changed flags or cache_tseg.
  void ReindexEntry(uint32_t tseg, uint16_t old_flags, uint32_t old_primary);
  void AddReplica(uint32_t primary, uint32_t tseg);
  void RemoveReplica(uint32_t primary, uint32_t tseg);
  // First clean tseg of `volume`, advancing its cursor past non-clean
  // slots; kNoSegment when the volume has no clean segment.
  uint32_t ScanVolume(uint32_t volume) const;

  Lfs* fs_;
  const AddressMap* amap_;
  std::vector<SegUsage> entries_;
  std::set<uint32_t> dirty_;
  std::map<uint32_t, uint32_t> crcs_;  // tseg -> whole-segment CRC32.

  // Indices (rebuilt by Load, maintained by every mutator). volumes_ is
  // mutable because NextFreshTseg is logically const: cursor advancement is
  // a cache of "slots known non-clean", not observable state.
  mutable std::vector<VolumeCursor> volumes_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> replicas_;
  uint64_t total_live_bytes_ = 0;
  uint32_t dirty_count_ = 0;

  Stats stats_;
  bool warned_dropped_ = false;
  bool warned_underflow_ = false;
  bool warned_overflow_ = false;
};

}  // namespace hl

#endif  // HIGHLIGHT_HIGHLIGHT_TSEG_TABLE_H_

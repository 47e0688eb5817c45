#include "highlight/tseg_table.h"

#include <algorithm>
#include <span>

#include "util/logging.h"

namespace hl {

void TsegTable::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  stats_.accounting_dropped.BindTo(*registry, "tseg.accounting_dropped");
  stats_.underflow_clamped.BindTo(*registry, "tseg.underflow_clamped");
  stats_.overflow_clamped.BindTo(*registry, "tseg.overflow_clamped");
  stats_.store_writes.BindTo(*registry, "tseg.store_writes");
  stats_.store_entries.BindTo(*registry, "tseg.store_entries");
}

Status TsegTable::Load() {
  uint32_t n = amap_->tertiary_nsegs();
  entries_.assign(n, SegUsage{});
  std::vector<uint8_t> raw(static_cast<size_t>(n) * SegUsage::kEncodedSize);
  ASSIGN_OR_RETURN(size_t got, fs_->Read(kTsegInode, 0, raw));
  if (got != raw.size()) {
    return Corruption("tsegfile shorter than tertiary segment count");
  }
  for (uint32_t t = 0; t < n; ++t) {
    entries_[t] = SegUsage::Deserialize(std::span<const uint8_t>(
        raw.data() + static_cast<size_t>(t) * SegUsage::kEncodedSize,
        SegUsage::kEncodedSize));
  }
  dirty_.clear();
  RebuildIndices();
  return OkStatus();
}

void TsegTable::RebuildIndices() {
  volumes_.assign(amap_->num_volumes(), VolumeCursor{});
  replicas_.clear();
  total_live_bytes_ = 0;
  dirty_count_ = 0;
  for (uint32_t t = 0; t < entries_.size(); ++t) {
    const SegUsage& u = entries_[t];
    total_live_bytes_ += u.live_bytes;
    if (u.flags & kSegClean) {
      uint32_t volume = amap_->VolumeOfTseg(t);
      if (volume < volumes_.size()) {
        volumes_[volume].clean_count++;
      }
    } else {
      dirty_count_++;
    }
    if (u.flags & kSegReplica) {
      AddReplica(u.cache_tseg, t);
    }
  }
}

void TsegTable::AddReplica(uint32_t primary, uint32_t tseg) {
  std::vector<uint32_t>& v = replicas_[primary];
  v.insert(std::upper_bound(v.begin(), v.end(), tseg), tseg);
}

void TsegTable::RemoveReplica(uint32_t primary, uint32_t tseg) {
  auto it = replicas_.find(primary);
  if (it == replicas_.end()) {
    return;
  }
  auto pos = std::lower_bound(it->second.begin(), it->second.end(), tseg);
  if (pos != it->second.end() && *pos == tseg) {
    it->second.erase(pos);
  }
  if (it->second.empty()) {
    replicas_.erase(it);
  }
}

void TsegTable::ReindexEntry(uint32_t tseg, uint16_t old_flags,
                             uint32_t old_primary) {
  const SegUsage& u = entries_[tseg];
  const bool was_clean = (old_flags & kSegClean) != 0;
  const bool is_clean = (u.flags & kSegClean) != 0;
  if (was_clean != is_clean) {
    uint32_t volume = amap_->VolumeOfTseg(tseg);
    if (is_clean) {
      dirty_count_--;
      if (volume < volumes_.size()) {
        VolumeCursor& vc = volumes_[volume];
        vc.clean_count++;
        uint32_t slot = amap_->SlotInVolume(tseg);
        if (slot < vc.cursor) {
          vc.cursor = slot;  // Repair: a clean slot reappeared below it.
        }
      }
    } else {
      dirty_count_++;
      if (volume < volumes_.size()) {
        volumes_[volume].clean_count--;
      }
    }
  }
  const bool was_replica = (old_flags & kSegReplica) != 0;
  const bool is_replica = (u.flags & kSegReplica) != 0;
  if (was_replica && (!is_replica || old_primary != u.cache_tseg)) {
    RemoveReplica(old_primary, tseg);
  }
  if (is_replica && (!was_replica || old_primary != u.cache_tseg)) {
    AddReplica(u.cache_tseg, tseg);
  }
}

Status TsegTable::Store() {
  // dirty_ is ordered, so runs of adjacent tsegs are contiguous in the
  // iteration; each run becomes one write (at most a block's worth of
  // entries). Gaps are never bridged: bridging would write bytes of clean
  // entries and could dirty buffer-cache blocks the per-entry writes never
  // touched, perturbing simulated time.
  constexpr uint32_t kMaxRunEntries = kBlockSize / SegUsage::kEncodedSize;
  std::vector<uint8_t> buf;
  auto it = dirty_.begin();
  while (it != dirty_.end()) {
    uint32_t start = *it;
    uint32_t len = 0;
    auto run_end = it;
    while (run_end != dirty_.end() && *run_end == start + len &&
           len < kMaxRunEntries) {
      ++run_end;
      ++len;
    }
    buf.resize(static_cast<size_t>(len) * SegUsage::kEncodedSize);
    for (uint32_t i = 0; i < len; ++i) {
      entries_[start + i].Serialize(std::span<uint8_t>(
          buf.data() + static_cast<size_t>(i) * SegUsage::kEncodedSize,
          SegUsage::kEncodedSize));
    }
    RETURN_IF_ERROR(fs_->Write(
        kTsegInode,
        static_cast<uint64_t>(start) * SegUsage::kEncodedSize, buf));
    stats_.store_writes.Inc();
    stats_.store_entries.Inc(len);
    it = run_end;
  }
  dirty_.clear();
  return OkStatus();
}

void TsegTable::OnAccounting(uint32_t daddr, int64_t delta_bytes) {
  uint32_t tseg = amap_->TsegOf(daddr);
  if (tseg >= entries_.size()) {
    stats_.accounting_dropped.Inc();
    if (!warned_dropped_) {
      warned_dropped_ = true;
      HL_LOG(kWarn, "tseg",
             "dropping accounting delta for out-of-range tertiary address " +
                 std::to_string(daddr) +
                 " (further drops counted in tseg.accounting_dropped)");
    }
    return;
  }
  SegUsage& u = entries_[tseg];
  int64_t next = static_cast<int64_t>(u.live_bytes) + delta_bytes;
  if (next < 0) {
    stats_.underflow_clamped.Inc();
    if (!warned_underflow_) {
      warned_underflow_ = true;
      HL_LOG(kWarn, "tseg",
             "live-byte underflow on tseg " + std::to_string(tseg) +
                 " clamped to 0 (counted in tseg.underflow_clamped)");
    }
    next = 0;
  } else if (next > static_cast<int64_t>(UINT32_MAX)) {
    stats_.overflow_clamped.Inc();
    if (!warned_overflow_) {
      warned_overflow_ = true;
      HL_LOG(kWarn, "tseg",
             "live-byte overflow on tseg " + std::to_string(tseg) +
                 " clamped to UINT32_MAX (counted in tseg.overflow_clamped)");
    }
    next = static_cast<int64_t>(UINT32_MAX);
  }
  total_live_bytes_ -= u.live_bytes;
  u.live_bytes = static_cast<uint32_t>(next);
  total_live_bytes_ += u.live_bytes;
  dirty_.insert(tseg);
}

void TsegTable::SetFlags(uint32_t tseg, uint16_t set, uint16_t clear) {
  SegUsage& u = entries_[tseg];
  uint16_t old_flags = u.flags;
  u.flags = static_cast<uint16_t>((u.flags & ~clear) | set);
  ReindexEntry(tseg, old_flags, u.cache_tseg);
  dirty_.insert(tseg);
}

void TsegTable::SetAvailBytes(uint32_t tseg, uint32_t avail) {
  entries_[tseg].avail_bytes = avail;
  dirty_.insert(tseg);
}

void TsegTable::SetWriteTime(uint32_t tseg, uint64_t t) {
  entries_[tseg].write_time = t;
  dirty_.insert(tseg);
}

void TsegTable::SetReplicaOf(uint32_t tseg, uint32_t primary) {
  SegUsage& u = entries_[tseg];
  uint16_t old_flags = u.flags;
  uint32_t old_primary = u.cache_tseg;
  u.flags = static_cast<uint16_t>((u.flags & ~kSegClean) |
                                  kSegDirty | kSegReplica);
  u.cache_tseg = primary;
  ReindexEntry(tseg, old_flags, old_primary);
  dirty_.insert(tseg);
}

std::vector<uint32_t> TsegTable::ReplicasOf(uint32_t primary) const {
  auto it = replicas_.find(primary);
  return it == replicas_.end() ? std::vector<uint32_t>{} : it->second;
}

uint32_t TsegTable::ScanVolume(uint32_t volume) const {
  VolumeCursor& vc = volumes_[volume];
  if (vc.clean_count == 0) {
    return kNoSegment;
  }
  uint32_t first = amap_->FirstTsegOfVolume(volume);
  uint32_t spv = amap_->segs_per_volume();
  while (vc.cursor < spv &&
         !(entries_[first + vc.cursor].flags & kSegClean)) {
    ++vc.cursor;
  }
  return vc.cursor < spv ? first + vc.cursor : kNoSegment;
}

uint32_t TsegTable::NextFreshTseg(const std::set<uint32_t>& full_volumes,
                                  uint32_t preferred_volume) const {
  if (preferred_volume != kNoSegment &&
      preferred_volume < volumes_.size() &&
      full_volumes.count(preferred_volume) == 0) {
    uint32_t tseg = ScanVolume(preferred_volume);
    if (tseg != kNoSegment) {
      return tseg;
    }
  }
  for (uint32_t volume = 0; volume < volumes_.size(); ++volume) {
    if (full_volumes.count(volume) > 0) {
      continue;
    }
    uint32_t tseg = ScanVolume(volume);
    if (tseg != kNoSegment) {
      return tseg;
    }
  }
  return kNoSegment;
}

}  // namespace hl

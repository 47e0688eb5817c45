#include "highlight/segment_cache.h"

#include <algorithm>

#include "util/logging.h"

namespace hl {

SegmentCache::SegmentCache(Lfs* fs, CacheReplacement policy)
    : fs_(fs), policy_(policy) {}

SegmentCache::LineInfo* SegmentCache::FindLine(uint32_t tseg) {
  auto it = directory_.find(tseg);
  return it == directory_.end() ? nullptr : &lines_[it->second];
}

const SegmentCache::LineInfo* SegmentCache::FindLine(uint32_t tseg) const {
  auto it = directory_.find(tseg);
  return it == directory_.end() ? nullptr : &lines_[it->second];
}

SegmentCache::LineInfo& SegmentCache::EmplaceLine(const LineInfo& line) {
  uint32_t slot;
  if (!line_free_.empty()) {
    slot = line_free_.back();
    line_free_.pop_back();
    lines_[slot] = line;
  } else {
    slot = static_cast<uint32_t>(lines_.size());
    lines_.push_back(line);
  }
  directory_[line.tseg] = slot;
  return lines_[slot];
}

void SegmentCache::EraseLine(uint32_t tseg) {
  auto it = directory_.find(tseg);
  if (it == directory_.end()) {
    return;
  }
  lines_[it->second].tseg = kNoSegment;
  line_free_.push_back(it->second);
  directory_.erase(it);
}

std::vector<uint32_t> SegmentCache::SortedTsegs() const {
  std::vector<uint32_t> tsegs;
  tsegs.reserve(directory_.size());
  for (const auto& [tseg, slot] : directory_) {
    tsegs.push_back(tseg);
  }
  std::sort(tsegs.begin(), tsegs.end());
  return tsegs;
}

Status SegmentCache::Init() {
  pool_.clear();
  free_.clear();
  directory_.clear();
  lines_.clear();
  line_free_.clear();
  for (uint32_t seg = 0; seg < fs_->NumSegments(); ++seg) {
    const SegUsage& u = fs_->GetSegUsage(seg);
    if (!(u.flags & kSegCacheEligible) || (u.flags & kSegNoStore)) {
      continue;
    }
    pool_.push_back(seg);
    if ((u.flags & kSegCached) && (u.flags & kSegStaging) &&
        u.cache_tseg != kNoSegment) {
      // A staging line interrupted mid-copy-out still holds the ONLY copy
      // of its segment: restore it, pinned, or eviction would lose the data.
      LineInfo line;
      line.tseg = u.cache_tseg;
      line.disk_seg = seg;
      line.fetch_time = u.write_time;
      line.last_access = u.write_time;
      line.staging = true;
      EmplaceLine(line);
      continue;
    }
    if (u.flags & kSegCached) {
      // A clean line's tag is only as new as the last checkpoint, while
      // fetches rewrite lines in place without logging: after a crash the
      // tag may name a segment whose bytes were since replaced. The
      // tertiary copy is authoritative, so drop the line instead.
      RETURN_IF_ERROR(
          fs_->SetSegFlags(seg, kSegClean, kSegCached | kSegStaging));
      RETURN_IF_ERROR(fs_->SetSegCacheTag(seg, kNoSegment));
    }
    free_.push_back(seg);
  }
  if (pool_.empty()) {
    return InvalidArgument("file system has no cache-eligible segments");
  }
  return OkStatus();
}

uint32_t SegmentCache::Lookup(uint32_t tseg) const {
  const LineInfo* line = FindLine(tseg);
  return line == nullptr ? kNoSegment : line->disk_seg;
}

uint32_t SegmentCache::LookupForAccess(uint32_t tseg) {
  LineInfo* line = FindLine(tseg);
  if (line == nullptr) {
    ++misses_;
    return kNoSegment;
  }
  CompleteIfReady(*line);
  if (line->installing) {
    // The line exists but its data is still in flight: a miss, so the
    // fault handler coalesces this request onto the existing fetch.
    ++misses_;
    return kNoSegment;
  }
  ++hits_;
  if (line->prefetched) {
    line->prefetched = false;
    ++prefetches_used_;
  }
  return line->disk_seg;
}

void SegmentCache::Touch(uint32_t tseg) {
  LineInfo* line = FindLine(tseg);
  if (line == nullptr) {
    return;
  }
  line->last_access = fs_->clock()->Now();
  line->touches++;
}

void SegmentCache::RetirePrefetchedOnDrop(const LineInfo& line) {
  if (line.prefetched) {
    ++prefetches_wasted_;
  }
}

Result<uint32_t> SegmentCache::PickVictim() {
  // Candidates: non-pinned (neither staging nor installing) lines,
  // visited in ascending tseg order so tie-breaks (first minimum wins, and
  // the random policy's candidate indexing) match the original ordered-map
  // directory exactly.
  std::vector<const LineInfo*> candidates;
  for (uint32_t tseg : SortedTsegs()) {
    LineInfo& line = lines_[directory_.at(tseg)];
    CompleteIfReady(line);
    if (!line.staging && !line.installing) {
      candidates.push_back(&line);
    }
  }
  if (candidates.empty()) {
    return Status(ErrorCode::kBusy, "all cache lines are pinned");
  }
  const LineInfo* victim = nullptr;
  switch (policy_) {
    case CacheReplacement::kLru:
      victim = *std::min_element(candidates.begin(), candidates.end(),
                                 [](const LineInfo* a, const LineInfo* b) {
                                   return a->last_access < b->last_access;
                                 });
      break;
    case CacheReplacement::kFifo:
      victim = *std::min_element(candidates.begin(), candidates.end(),
                                 [](const LineInfo* a, const LineInfo* b) {
                                   return a->fetch_time < b->fetch_time;
                                 });
      break;
    case CacheReplacement::kRandom:
      victim = candidates[rng_.Below(candidates.size())];
      break;
    case CacheReplacement::kLeastWorthyFirstTouch: {
      // Prefer once-touched newcomers (fetched but never re-referenced);
      // fall back to LRU among promoted lines.
      std::vector<const LineInfo*> newcomers;
      for (const LineInfo* line : candidates) {
        if (line->touches <= 1) {
          newcomers.push_back(line);
        }
      }
      const auto lru = [](const LineInfo* a, const LineInfo* b) {
        return a->last_access < b->last_access;
      };
      if (!newcomers.empty()) {
        victim = *std::min_element(newcomers.begin(), newcomers.end(), lru);
      } else {
        victim = *std::min_element(candidates.begin(), candidates.end(), lru);
      }
      break;
    }
  }
  return victim->tseg;
}

Result<uint32_t> SegmentCache::AllocLine(uint32_t tseg, bool staging,
                                         bool prefetched) {
  if (directory_.count(tseg) > 0) {
    return Status(ErrorCode::kExists,
                  "tseg " + std::to_string(tseg) + " already cached");
  }
  uint32_t disk_seg;
  if (!free_.empty()) {
    disk_seg = free_.back();
    free_.pop_back();
  } else {
    ASSIGN_OR_RETURN(uint32_t victim_tseg, PickVictim());
    disk_seg = FindLine(victim_tseg)->disk_seg;
    RETURN_IF_ERROR(Eject(victim_tseg));
    // Eject put the segment back on the free list; claim it.
    free_.pop_back();
    ++evictions_;
  }
  LineInfo line;
  line.tseg = tseg;
  line.disk_seg = disk_seg;
  line.fetch_time = fs_->clock()->Now();
  line.last_access = line.fetch_time;
  line.touches = staging ? 1 : 0;
  line.staging = staging;
  line.prefetched = prefetched && !staging;
  bool counted_prefetch = line.prefetched;
  EmplaceLine(line);
  if (staging) {
    ++staged_lines_;
    RecordInstant(spans_, "cache_stage", "cache", "tseg", tseg, "disk_seg",
                  disk_seg);
  }
  if (counted_prefetch) {
    ++prefetches_installed_;
  }
  // Mirror into the ifile so a remount can rebuild the directory.
  RETURN_IF_ERROR(fs_->SetSegFlags(
      disk_seg, static_cast<uint16_t>(kSegCached | (staging ? kSegStaging : 0)),
      kSegClean));
  RETURN_IF_ERROR(fs_->SetSegCacheTag(disk_seg, tseg));
  return disk_seg;
}

Status SegmentCache::MarkCopiedOut(uint32_t tseg) {
  LineInfo* line = FindLine(tseg);
  if (line == nullptr) {
    return NotFound("tseg " + std::to_string(tseg) + " not cached");
  }
  line->staging = false;
  return fs_->SetSegFlags(line->disk_seg, 0, kSegStaging);
}

Status SegmentCache::Retag(uint32_t old_tseg, uint32_t new_tseg) {
  auto it = directory_.find(old_tseg);
  if (it == directory_.end()) {
    return NotFound("tseg " + std::to_string(old_tseg) + " not cached");
  }
  uint32_t slot = it->second;
  directory_.erase(it);
  lines_[slot].tseg = new_tseg;
  directory_[new_tseg] = slot;
  return fs_->SetSegCacheTag(lines_[slot].disk_seg, new_tseg);
}

Status SegmentCache::Eject(uint32_t tseg) {
  LineInfo* line = FindLine(tseg);
  if (line == nullptr) {
    return NotFound("tseg " + std::to_string(tseg) + " not cached");
  }
  CompleteIfReady(*line);
  if (line->staging) {
    return Status(ErrorCode::kBusy, "line holds the only copy (staging)");
  }
  if (line->installing) {
    return Status(ErrorCode::kBusy, "line install still in flight");
  }
  uint32_t disk_seg = line->disk_seg;
  RetirePrefetchedOnDrop(*line);
  SpanScope span(spans_, "evict", "cache");
  span.Annotate("tseg", tseg);
  span.Annotate("disk_seg", disk_seg);
  EraseLine(tseg);
  free_.push_back(disk_seg);
  RETURN_IF_ERROR(
      fs_->SetSegFlags(disk_seg, kSegClean, kSegCached | kSegStaging));
  return fs_->SetSegCacheTag(disk_seg, kNoSegment);
}

void SegmentCache::CompleteIfReady(LineInfo& line) {
  if (line.installing && line.ready_at != 0 &&
      line.ready_at <= fs_->clock()->Now()) {
    line.installing = false;
    ++inflight_completed_;
  }
}

Result<uint32_t> SegmentCache::BeginInstall(uint32_t tseg, bool prefetched) {
  ASSIGN_OR_RETURN(uint32_t disk_seg,
                   AllocLine(tseg, /*staging=*/false, prefetched));
  LineInfo* line = FindLine(tseg);
  line->installing = true;
  line->ready_at = 0;
  ++inflight_begun_;
  return disk_seg;
}

void SegmentCache::SetInstallReady(uint32_t tseg, SimTime ready_at) {
  LineInfo* line = FindLine(tseg);
  if (line != nullptr && line->installing) {
    line->ready_at = ready_at;
  }
}

Status SegmentCache::FinishInstall(uint32_t tseg) {
  LineInfo* line = FindLine(tseg);
  if (line == nullptr) {
    return NotFound("tseg " + std::to_string(tseg) + " not cached");
  }
  if (line->installing) {
    line->installing = false;
    ++inflight_completed_;
  }
  return OkStatus();
}

Status SegmentCache::AbortInstall(uint32_t tseg) {
  LineInfo* line = FindLine(tseg);
  if (line == nullptr) {
    return NotFound("tseg " + std::to_string(tseg) + " not cached");
  }
  if (line->installing) {
    line->installing = false;
    ++inflight_aborted_;
  }
  return Eject(tseg);
}

bool SegmentCache::Installing(uint32_t tseg) {
  LineInfo* line = FindLine(tseg);
  if (line == nullptr) {
    return false;
  }
  CompleteIfReady(*line);
  return line->installing;
}

SimTime SegmentCache::InstallReadyAt(uint32_t tseg) const {
  const LineInfo* line = FindLine(tseg);
  return line == nullptr ? 0 : line->ready_at;
}

Status SegmentCache::Resize(uint32_t new_capacity) {
  // Grow: claim clean segments from the log pool.
  while (pool_.size() < new_capacity) {
    ASSIGN_OR_RETURN(uint32_t seg, fs_->ClaimCacheSegment());
    pool_.push_back(seg);
    free_.push_back(seg);
  }
  // Shrink: release free lines first, then evict clean lines.
  while (pool_.size() > new_capacity) {
    uint32_t seg;
    if (!free_.empty()) {
      seg = free_.back();
      free_.pop_back();
    } else {
      ASSIGN_OR_RETURN(uint32_t victim_tseg, PickVictim());
      seg = FindLine(victim_tseg)->disk_seg;
      RETURN_IF_ERROR(Eject(victim_tseg));
      free_.pop_back();  // Eject freed it; claim it for release.
      ++evictions_;
    }
    RETURN_IF_ERROR(fs_->ReleaseCacheSegment(seg));
    pool_.erase(std::find(pool_.begin(), pool_.end(), seg));
  }
  return OkStatus();
}

SegmentCache::Stats SegmentCache::Snapshot() const {
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.staged_lines = staged_lines_;
  s.prefetches_installed = prefetches_installed_;
  s.prefetches_used = prefetches_used_;
  s.prefetches_wasted = prefetches_wasted_;
  s.inflight_begun = inflight_begun_;
  s.inflight_waits = inflight_waits_;
  s.inflight_completed = inflight_completed_;
  s.inflight_aborted = inflight_aborted_;
  return s;
}

void SegmentCache::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  hits_.BindTo(*registry, "cache.hits");
  misses_.BindTo(*registry, "cache.misses");
  evictions_.BindTo(*registry, "cache.evictions");
  staged_lines_.BindTo(*registry, "cache.staged_lines");
  prefetches_installed_.BindTo(*registry, "cache.prefetches_installed");
  prefetches_used_.BindTo(*registry, "cache.prefetches_used");
  prefetches_wasted_.BindTo(*registry, "cache.prefetches_wasted");
  inflight_begun_.BindTo(*registry, "cache.inflight.begun");
  inflight_waits_.BindTo(*registry, "cache.inflight.waits");
  inflight_completed_.BindTo(*registry, "cache.inflight.completed");
  inflight_aborted_.BindTo(*registry, "cache.inflight.aborted");
}

std::vector<SegmentCache::LineInfo> SegmentCache::Lines() const {
  std::vector<LineInfo> out;
  out.reserve(directory_.size());
  for (uint32_t tseg : SortedTsegs()) {
    out.push_back(lines_[directory_.at(tseg)]);
  }
  return out;
}

}  // namespace hl

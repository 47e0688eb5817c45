// SegmentCache: the disk-resident cache of tertiary segments (paper
// sections 4, 6.2 and 6.4).
//
// Cache lines are whole disk segments drawn from the cache-eligible pool
// fixed at mkfs time. Lines are read-only copies of tertiary segments —
// except *staging* lines, where the migrator assembles fresh tertiary
// segments before the I/O server copies them out. Read-only lines can be
// discarded at any moment (the tertiary copy is authoritative); staging
// lines are pinned until copied.
//
// Replacement policies: LRU, random, FIFO by fetch time, and the paper's
// future-work "least-worthy" scheme (a new fetch starts at the eviction end
// and is promoted into the regular pool on its second touch — the MRU-hybrid
// of section 10).

#ifndef HIGHLIGHT_HIGHLIGHT_SEGMENT_CACHE_H_
#define HIGHLIGHT_HIGHLIGHT_SEGMENT_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "lfs/lfs.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/span.h"
#include "util/status.h"

namespace hl {

enum class CacheReplacement {
  kLru,
  kRandom,
  kFifo,
  kLeastWorthyFirstTouch,  // Section 10's MRU-hybrid.
};

class SegmentCache {
 public:
  // `fs` supplies the segment-usage table (cache tags are mirrored there so
  // the ifile stays authoritative across mounts).
  SegmentCache(Lfs* fs, CacheReplacement policy);

  // Discovers the cache-eligible disk segments (call once after mkfs/mount).
  // On mount it restores the staging lines from the ifile's cache tags and
  // frees every clean line, clearing its tag: a clean line's bytes may be
  // newer than its checkpointed tag, and its tertiary copy is authoritative.
  Status Init();

  // Cache directory lookup: disk segment caching `tseg`, or kNoSegment.
  // Pure query — no statistics are touched.
  uint32_t Lookup(uint32_t tseg) const;

  // Lookup on the demand path: same result as Lookup() but counts a hit or
  // a miss, and retires the prefetched flag on first use (prefetch-accuracy
  // accounting). A line whose install is still in flight reads as a miss so
  // the fault handler routes the request onto the existing fetch instead of
  // serving a partially-written line.
  uint32_t LookupForAccess(uint32_t tseg);

  // Async-read-pipeline install protocol. BeginInstall allocates a line
  // whose data is still in flight on the tertiary device: the line is in
  // the directory (so duplicate faults and read-aheads can find it) but
  // pinned — never an eviction victim, and Eject refuses with kBusy — until
  // the install completes. SetInstallReady stamps the sim time at which the
  // transfer lands; once that time passes, the line lazily auto-completes.
  // FinishInstall is idempotent (safe for every coalesced waiter to call);
  // AbortInstall unpins and drops the line after a failed fetch.
  Result<uint32_t> BeginInstall(uint32_t tseg, bool prefetched);
  void SetInstallReady(uint32_t tseg, SimTime ready_at);
  Status FinishInstall(uint32_t tseg);
  Status AbortInstall(uint32_t tseg);
  bool Installing(uint32_t tseg);
  SimTime InstallReadyAt(uint32_t tseg) const;
  // Counts a demand fault that coalesced onto an in-flight install.
  void NoteInflightWait() { ++inflight_waits_; }

  // Records an access for replacement bookkeeping.
  void Touch(uint32_t tseg);

  // Allocates a line for `tseg`, evicting if necessary. Fails with kBusy if
  // every line is pinned. The caller fills the line (fetch or staging).
  // `prefetched` marks speculative fetches: a prefetched line ejected before
  // its first demand access counts as a wasted prefetch.
  Result<uint32_t> AllocLine(uint32_t tseg, bool staging,
                             bool prefetched = false);

  // Staging lines become ordinary cached lines once copied to tertiary.
  Status MarkCopiedOut(uint32_t tseg);
  // Re-keys a staged line after an end-of-medium retarget.
  Status Retag(uint32_t old_tseg, uint32_t new_tseg);

  // Drops a read-only line (no I/O needed: tertiary copy is authoritative).
  Status Eject(uint32_t tseg);

  // Dynamic cache sizing (section 10): grows by claiming clean log segments
  // from the file system, shrinks by releasing free/clean lines back to it.
  // Shrinking below the pinned-line count fails with kBusy.
  Status Resize(uint32_t new_capacity);

  struct LineInfo {
    uint32_t tseg = kNoSegment;
    uint32_t disk_seg = kNoSegment;
    uint64_t fetch_time = 0;
    uint64_t last_access = 0;
    uint64_t touches = 0;
    // Assembled by the migrator and not yet on tertiary media: the line
    // holds the only copy, so it stays pinned until MarkCopiedOut.
    bool staging = false;
    bool prefetched = false;  // Speculatively fetched, not yet demand-used.
    bool installing = false;  // Data still in flight from tertiary.
    SimTime ready_at = 0;     // When the in-flight transfer lands (0: TBD).
  };
  // Lines in ascending tseg order (reporting).
  std::vector<LineInfo> Lines() const;
  uint32_t Capacity() const { return static_cast<uint32_t>(pool_.size()); }
  uint32_t Used() const { return static_cast<uint32_t>(directory_.size()); }

  // Read-only view of the counters. The cache owns all mutation: callers
  // signal accesses through LookupForAccess()/Touch(), never by bumping
  // counters directly.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t staged_lines = 0;
    uint64_t prefetches_installed = 0;
    uint64_t prefetches_used = 0;
    uint64_t prefetches_wasted = 0;
    uint64_t inflight_begun = 0;      // Installing lines registered.
    uint64_t inflight_waits = 0;      // Faults coalesced onto one fetch.
    uint64_t inflight_completed = 0;  // Installs that landed.
    uint64_t inflight_aborted = 0;    // Installs torn down after a failure.
  };
  Stats Snapshot() const;

  // Re-homes counters into `registry` under "cache.*".
  void AttachMetrics(MetricsRegistry* registry);

  // Span tracing on the "cache" lane: evictions become spans nested under
  // whoever forced them (a demand fetch or a staging alloc), and pinning a
  // staging line records a cache_stage instant. Null disables.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

 private:
  Result<uint32_t> PickVictim();
  // Eject bookkeeping shared by Eject() and the eviction paths.
  void RetirePrefetchedOnDrop(const LineInfo& line);
  // Lazily completes an installing line whose ready time has passed.
  void CompleteIfReady(LineInfo& line);
  // Directory access: &lines_[slot] for tseg, or nullptr. O(1).
  LineInfo* FindLine(uint32_t tseg);
  const LineInfo* FindLine(uint32_t tseg) const;
  // Installs `line` into a recycled or fresh slot and indexes it.
  LineInfo& EmplaceLine(const LineInfo& line);
  // Unindexes tseg and returns its slot to the free list.
  void EraseLine(uint32_t tseg);
  // Occupied tsegs in ascending order — replacement decisions and Lines()
  // iterate in the directory's historical (ordered-map) order so victim
  // tie-breaks are unchanged. Cold path: only evictions and reports sort.
  std::vector<uint32_t> SortedTsegs() const;

  Lfs* fs_;
  CacheReplacement policy_;
  Rng rng_{1};  // kRandom victim picks; a fixed seed keeps runs repeatable.
  std::vector<uint32_t> pool_;           // Cache-eligible disk segments.
  std::vector<uint32_t> free_;           // Unused pool segments.
  // Line slots (recycled through line_free_) + O(1) tseg -> slot index.
  // Hot-path lookups/touches are one hash probe; no node allocations.
  std::vector<LineInfo> lines_;
  std::vector<uint32_t> line_free_;
  std::unordered_map<uint32_t, uint32_t> directory_;  // tseg -> slot.

  Counter hits_;
  Counter misses_;
  Counter evictions_;
  Counter staged_lines_;
  Counter prefetches_installed_;
  Counter prefetches_used_;
  Counter prefetches_wasted_;
  Counter inflight_begun_;
  Counter inflight_waits_;
  Counter inflight_completed_;
  Counter inflight_aborted_;
  SpanTracer* spans_ = nullptr;
};

}  // namespace hl

#endif  // HIGHLIGHT_HIGHLIGHT_SEGMENT_CACHE_H_

// TertiaryCleaner: reclaims tertiary media (the paper's section 10 future
// work, implemented here as an extension, off by default).
//
// As the paper prescribes, it cleans *whole volumes at a time* to minimize
// media swaps and seek passes: every segment on the victim volume is fetched
// into the disk cache (one sequential pass over the medium), its live blocks
// are identified against the segment summaries (the same lfs_bmapv currency
// the disk cleaner uses) and re-migrated into fresh staging segments on
// *other* volumes; the emptied volume is then erased and its segments return
// to the clean pool. Live inodes resident on the volume move along with
// their blocks. Volumes whose media are write-once cannot be cleaned.

#ifndef HIGHLIGHT_HIGHLIGHT_TERTIARY_CLEANER_H_
#define HIGHLIGHT_HIGHLIGHT_TERTIARY_CLEANER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "highlight/address_map.h"
#include "highlight/migrator.h"
#include "highlight/segment_cache.h"
#include "highlight/service_process.h"
#include "highlight/tseg_table.h"
#include "lfs/lfs.h"
#include "tertiary/footprint.h"
#include "util/metrics.h"
#include "util/span.h"

namespace hl {

class TertiaryCleaner {
 public:
  TertiaryCleaner(Lfs* fs, BlockDevice* blockmap_dev, Migrator* migrator,
                  SegmentCache* cache, ServiceProcess* service,
                  TsegTable* tsegs, const AddressMap* amap,
                  Footprint* footprint)
      : fs_(fs),
        dev_(blockmap_dev),
        migrator_(migrator),
        cache_(cache),
        service_(service),
        tsegs_(tsegs),
        amap_(amap),
        footprint_(footprint) {}

  // Cleans one volume: relocates its live data elsewhere, erases the medium,
  // and returns its segments to the clean pool. Returns the number of live
  // blocks moved.
  Result<uint64_t> CleanVolume(uint32_t volume);

  // Picks the dirty volume with the lowest live fraction (below
  // `max_live_fraction`) and cleans it. Returns kNotFound when no volume
  // qualifies.
  Result<uint64_t> CleanWorstVolume(double max_live_fraction = 0.5);

  struct Stats {
    Counter volumes_cleaned;
    Counter blocks_moved;
    Counter inodes_moved;
    Counter segments_reclaimed;
  };
  const Stats& stats() const { return stats_; }

  // Re-homes counters into `registry` under "tcleaner.*".
  void AttachMetrics(MetricsRegistry* registry);
  // Records a clean_volume instant (volume, live blocks moved) on the
  // "tcleaner" track per volume reclaimed. Null disables.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

 private:
  // Live fraction of a volume: live bytes / written capacity.
  double VolumeLiveFraction(uint32_t volume) const;

  Lfs* fs_;
  BlockDevice* dev_;
  Migrator* migrator_;
  SegmentCache* cache_;
  ServiceProcess* service_;
  TsegTable* tsegs_;
  const AddressMap* amap_;
  Footprint* footprint_;
  Stats stats_;
  SpanTracer* spans_ = nullptr;
};

}  // namespace hl

#endif  // HIGHLIGHT_HIGHLIGHT_TERTIARY_CLEANER_H_

// Cleaner: the user-level garbage collector of 4.4BSD LFS (paper section 3).
//
// It reads the ifile state through the Lfs accessors, picks dirty segments,
// verifies per-block liveness against the segment summaries (lfs_bmapv),
// re-appends live blocks to the log tail (lfs_markv), and marks the emptied
// segments clean. Segment selection is cost-benefit: benefit/cost =
// (1 - u) * age / (1 + u), the Sprite-LFS policy, with a greedy fallback.

#ifndef HIGHLIGHT_LFS_CLEANER_H_
#define HIGHLIGHT_LFS_CLEANER_H_

#include <cstdint>
#include <vector>

#include "lfs/lfs.h"
#include "util/metrics.h"
#include "util/span.h"

namespace hl {

enum class CleanerPolicy {
  kCostBenefit,  // Sprite-LFS (1-u)*age/(1+u).
  kGreedy,       // Least live bytes first.
};

class Cleaner {
 public:
  explicit Cleaner(Lfs* fs, CleanerPolicy policy = CleanerPolicy::kCostBenefit)
      : fs_(fs), policy_(policy) {}

  // Cleans up to `max_segments` dirty segments; returns how many were
  // reclaimed. Runs a checkpoint afterwards so the reclaimed space is
  // durable before reuse.
  Result<uint32_t> Clean(uint32_t max_segments);

  // Cleans until at least `target_clean` clean segments exist (or no
  // progress can be made). Called at a water mark, this is the one
  // cleaning trigger: a log writer that runs out of clean segments returns
  // kNoSpace instead of cleaning inside its flush.
  Result<uint32_t> CleanUntil(uint32_t target_clean);

  struct Stats {
    Counter segments_cleaned;
    Counter blocks_examined;
    Counter blocks_live;
    Counter inodes_relocated;
  };
  const Stats& stats() const { return stats_; }

  // Re-homes counters into `registry` under "cleaner.*".
  void AttachMetrics(MetricsRegistry* registry);
  // Records a clean_pass instant (segment, live blocks so far) on the
  // "cleaner" track per segment cleaned. Null disables.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

 private:
  // Candidate segments ordered best-first under the active policy.
  std::vector<uint32_t> RankSegments() const;
  Status CleanOne(uint32_t seg);

  Lfs* fs_;
  CleanerPolicy policy_;
  Stats stats_;
  SpanTracer* spans_ = nullptr;
};

}  // namespace hl

#endif  // HIGHLIGHT_LFS_CLEANER_H_

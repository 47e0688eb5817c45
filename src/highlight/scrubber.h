// Scrubber: background integrity walker for tertiary segments.
//
// The paper's premise — the tertiary copy is authoritative, cache lines are
// always discardable — only holds while the tertiary copy is actually
// readable. The scrubber walks dirty tertiary segments during idle time,
// re-reads each whole-segment image (charging normal drive/robot time),
// verifies it against the in-core CRC catalog (falling back to the media's
// own summary checksums right after a remount, when the catalog is empty),
// and on corruption repairs the segment in place from a verified-good copy
// (primary or replica). Segments with no intact copy anywhere are recorded
// as unrecoverable losses — reported, never crashed on.

#ifndef HIGHLIGHT_HIGHLIGHT_SCRUBBER_H_
#define HIGHLIGHT_HIGHLIGHT_SCRUBBER_H_

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <vector>

#include "highlight/address_map.h"
#include "highlight/tseg_table.h"
#include "sim/sim_clock.h"
#include "tertiary/footprint.h"
#include "util/fault_injector.h"
#include "util/health.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace hl {

class Scrubber {
 public:
  Scrubber(Footprint* footprint, TsegTable* tsegs, const AddressMap* amap,
           SimClock* clock)
      : footprint_(footprint), tsegs_(tsegs), amap_(amap), clock_(clock) {}

  void SetHealth(HealthRegistry* health) { health_ = health; }
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  // Cross-site repair source, consulted strictly AFTER every local
  // candidate (the primary and its sibling replicas) has been tried and
  // found wanting: a multi-site deployment can hand the scrubber a hook
  // that fetches a verified-good image of `tseg` from a peer site over the
  // WAN. Keeping the ordering local-first means the expensive remote path
  // only runs when the site has truly lost all intact copies.
  using RemoteSource =
      std::function<Result<std::vector<uint8_t>>(uint32_t tseg)>;
  void SetRemoteRepairSource(RemoteSource source) {
    remote_source_ = std::move(source);
  }

  struct Report {
    uint32_t scanned = 0;        // Dirty tertiary segments examined.
    uint32_t clean = 0;          // Verified intact.
    uint32_t repaired = 0;       // Corrupted, rewritten from a good copy.
    uint32_t unrecoverable = 0;  // Corrupted with no intact copy anywhere.
    uint32_t crcs_stamped = 0;   // Catalog entries (re)created this pass.
  };

  // Scrubs every dirty tertiary segment of one volume / of the deployment.
  Result<Report> ScrubVolume(uint32_t volume);
  Result<Report> ScrubAll();
  // Idle-time increment: scrubs up to `max_segments` dirty segments from a
  // wrap-around cursor, so repeated calls cover the whole deployment.
  Result<Report> ScrubStep(uint32_t max_segments);

  // Segments recorded as unrecoverable (cleared if a later pass finds or
  // restores an intact copy).
  const std::set<uint32_t>& LostSegments() const { return lost_; }

  // kScrubRepair trace records carry this in the source slot when the
  // repair image came from a peer site instead of a local tseg.
  static constexpr uint64_t kRemoteRepairSource = ~0ull;

  struct Stats {
    Counter segments_scrubbed;
    Counter corruptions_detected;
    Counter repairs;
    Counter remote_repairs;  // Repairs sourced from a peer site's copy.
    Counter unrecoverable_losses;
    Counter crcs_restamped;  // Catalog entries rebuilt from media checksums.
  };
  const Stats& stats() const { return stats_; }

  // Binds scrub.* counters and routes scrub_repair / scrub_loss events.
  void AttachMetrics(MetricsRegistry* registry, Tracer tracer);

 private:
  enum class Outcome { kSkipped, kClean, kRepaired, kLost };

  Result<Outcome> ScrubOne(uint32_t tseg);
  void Tally(Outcome outcome, Report& report);
  // Whole-segment read with the retry policy's bounded backoff; on success
  // `crc` holds Crc32 of the bytes read (the fused value Footprint::Read
  // reports).
  Status ReadWithRetry(uint32_t tseg, std::span<uint8_t> buf, uint32_t* crc);
  // True when `crc`, the CRC of `image`, matches the recorded CRC of
  // `tseg`, or — with no CRC recorded — when the image's partial segments
  // parse cleanly against the media's own summary checksums. Callers stamp
  // the same `crc` on success instead of checksumming the image again.
  bool VerifyImage(uint32_t tseg, std::span<const uint8_t> image,
                   uint32_t crc) const;

  Footprint* footprint_;
  TsegTable* tsegs_;
  const AddressMap* amap_;
  SimClock* clock_;
  HealthRegistry* health_ = nullptr;
  RetryPolicy retry_;
  RemoteSource remote_source_;
  uint32_t cursor_ = 0;  // Next tseg ScrubStep examines.
  std::set<uint32_t> lost_;
  Stats stats_;
  Tracer tracer_;
};

}  // namespace hl

#endif  // HIGHLIGHT_HIGHLIGHT_SCRUBBER_H_

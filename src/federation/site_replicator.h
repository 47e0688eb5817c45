// SiteReplicator: cross-site volume replication with anti-entropy repair.
//
// HighLight treats the tertiary copy as authoritative — which makes a
// machine-room fire an unrecoverable event unless that copy exists twice.
// The SiteReplicator pairs two or more complete HighLight deployments
// (*sites*, each a SiteStore) over simulated WAN links and keeps their
// tertiary segment populations converged:
//
//  - **Async shipping.** After a migration pass, newly written tertiary
//    segments are enqueued (bounded queue, kBusy on overflow) and shipped
//    to every peer site in batches with retry/backoff over the WanLink.
//    In-flight corruption is caught by re-checking the CRC32 on arrival
//    and re-sending; a partitioned link defers the segment to the queue
//    tail instead of blocking the batch.
//
//  - **Durable ledger.** Each site keeps a replication ledger — per-segment
//    CRC, a bitmask of peers successfully shipped to, and the enqueue
//    timestamp — persisted as a serialized blob *inside the site's own
//    LFS* (SiteStore::PersistBlob), so it survives crash + Remount.
//    LoadLedger() re-enqueues whatever had not finished shipping.
//
//  - **Anti-entropy.** An incremental round walks the source site's
//    replicable segments, compares per-segment CRC32 catalog stamps
//    (charging a small catalog transfer to the WAN), and re-ships only
//    divergent or missing segments. The walk keeps a per-(src,dst) cursor:
//    a round interrupted by a partition resumes where it stopped and never
//    re-ships segments it already verified as synced.
//
//  - **Failover oracle.** The replicator implements
//    StagerScheduler::SiteHealthProvider: a site is available while it is
//    not quarantined and at least one of its WAN links is up. The stager
//    uses this to steer demand recalls of a dead site to its peer.
//
//  - **Last-resort repair.** FetchVerifiedImage() hands the Scrubber a
//    remote repair source: a verified-good copy of a segment fetched from
//    any reachable peer over the WAN.

#ifndef HIGHLIGHT_FEDERATION_SITE_REPLICATOR_H_
#define HIGHLIGHT_FEDERATION_SITE_REPLICATOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "highlight/fetch_backend.h"
#include "sim/sim_clock.h"
#include "util/fault_injector.h"
#include "util/metrics.h"
#include "util/span.h"
#include "util/status.h"
#include "util/wan_link.h"

#include "federation/stager.h"

namespace hl {

struct SiteReplicatorConfig {
  // Per-site pending-shipment bound; enqueues beyond it get kBusy.
  size_t max_queue = 1024;
};

class SiteReplicator : public StagerScheduler::SiteHealthProvider {
 public:
  explicit SiteReplicator(SimClock* clock, SiteReplicatorConfig config = {});

  // Registers a site; returns its id (dense, starting at 0, and the bit
  // position in every ledger shipped-mask — stable across restarts as long
  // as sites register in the same order). The store must outlive the
  // replicator.
  int AddSite(const std::string& name, SiteStore* store);
  size_t NumSites() const { return sites_.size(); }
  const std::string& SiteName(int site) const { return sites_[site].name; }

  // Wires the (duplex) WAN link between two sites and folds its wan.*
  // counters into this replicator's registry.
  void SetLink(int a, int b, WanLink* link);
  WanLink* LinkBetween(int a, int b) const;

  // Causal tracing. Point at the federation's shared tracer: each ShipImage
  // becomes a "site_ship" span (the WAN transfers nest under it), each
  // AntiEntropyRound an "antientropy_round" span parenting the per-segment
  // ships it triggers, and FetchVerifiedImage a "site_fetch_image" span
  // linking the remote-repair WAN hop into the caller's tree.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

  // Operator quarantine of a whole site (dead machine room).
  void SetSiteQuarantined(int site, bool quarantined);
  bool SiteQuarantined(int site) const;

  // StagerScheduler::SiteHealthProvider: not quarantined, and — once links
  // are wired — at least one WAN path up. A pure peek, no fault randomness.
  bool SiteAvailable(int site) const override;

  // --- Async shipping ------------------------------------------------------

  // Queues one tertiary segment of `site` for shipment to every peer.
  // Re-enqueueing a pending segment is a no-op; a changed CRC re-arms
  // shipping to peers that already had the old bytes.
  Status EnqueueSegment(int site, uint32_t tseg);
  // Post-migration hook: enqueues every replicable segment of `site` not
  // yet fully shipped per the ledger. Returns how many were enqueued.
  Result<uint32_t> EnqueueNewSegments(int site);

  // One replication round: for each site, ships up to 8 queued segments
  // to each reachable peer (retry/backoff per transfer), then
  // persists the touched ledgers. Segments whose peers are all unreachable
  // are deferred to the queue tail (counted), not dropped.
  Status Pump();
  // Pumps until a full round makes no progress (all shipped, or every
  // remaining segment is stuck behind a partition).
  Status RunUntilIdle();

  // --- Anti-entropy --------------------------------------------------------

  struct AntiEntropyStats {
    uint32_t compared = 0;        // Catalog entries examined.
    uint32_t divergent = 0;       // Missing or CRC-mismatched on dst.
    uint32_t shipped = 0;         // Divergent segments re-shipped OK.
    uint32_t skipped_synced = 0;  // Verified identical, not re-shipped.
    uint32_t failed = 0;          // Ships abandoned (partition/retry-out).
    uint64_t bytes_shipped = 0;
    SimTime elapsed_us = 0;
  };

  // One incremental anti-entropy round from `src`'s catalog onto `dst`.
  // Examines up to `max_segments` entries (0 = the full catalog) from the
  // per-(src,dst) resume cursor; stops early at the first WAN failure so a
  // partitioned round resumes — without re-comparing or re-shipping what it
  // already verified — once the link heals.
  Result<AntiEntropyStats> AntiEntropyRound(int src, int dst,
                                            uint32_t max_segments = 0);

  // Divergence count without touching the clock or the WAN — for
  // inspection tools only.
  uint32_t DivergentCountVs(int src, int dst) const;

  // --- Scrubber integration ------------------------------------------------

  // Fetches a CRC-verified image of `tseg` for `site` from any reachable
  // peer, over the WAN with retries. Wire into
  // Scrubber::SetRemoteRepairSource for cross-site last-resort repair.
  Result<std::vector<uint8_t>> FetchVerifiedImage(int site, uint32_t tseg);

  // --- Ledger --------------------------------------------------------------

  Status PersistLedger(int site);
  // Restores the ledger blob (absent blob = empty ledger, OK) and
  // re-enqueues entries not yet shipped to every peer. Call after Remount.
  Status LoadLedger(int site);

  // --- Inspection ----------------------------------------------------------

  size_t QueueDepth(int site) const { return sites_[site].queue.size(); }
  // Age of the oldest pending shipment (0 when fully drained).
  SimTime ReplicationLag(int site) const;
  size_t LedgerEntries(int site) const { return sites_[site].ledger.size(); }

  struct Stats {
    Counter segments_enqueued;
    Counter segments_shipped;
    Counter bytes_shipped;
    Counter ship_failures;     // Transfer attempts that errored.
    Counter ship_deferred;     // Requeued-at-tail (peer unreachable).
    Counter corrupt_transfers; // Arrived with a wrong CRC, re-sent.
    Counter queue_overflow;    // Enqueues refused at max_queue.
    Counter antientropy_rounds;
    Counter antientropy_compared;
    Counter antientropy_divergent;
    Counter antientropy_skipped;
    Counter ledger_persists;
    Counter ledger_loads;
  };
  const Stats& stats() const { return stats_; }

  MetricsRegistry& metrics() { return metrics_; }
  MetricsSnapshot Metrics() { return metrics_.Snapshot(); }

 private:
  struct LedgerEntry {
    uint32_t crc = 0;           // Segment content stamp when enqueued.
    uint32_t shipped_mask = 0;  // Bit i = delivered to site i.
    SimTime queued_at = 0;
  };
  struct PendingShipment {
    uint32_t tseg = 0;
    SimTime queued_at = 0;
  };
  struct Site {
    std::string name;
    SiteStore* store = nullptr;
    bool quarantined = false;
    std::deque<PendingShipment> queue;
    std::set<uint32_t> pending;  // Dedupe for `queue`.
    std::map<uint32_t, LedgerEntry> ledger;
    bool ledger_dirty = false;
  };

  // All peers `site` must ship to, as a bitmask.
  uint32_t PeerMask(int site) const;
  // Reads the source image and its authoritative CRC (catalog stamp when
  // present, else computed and stamped via the store).
  Status ReadSourceImage(Site& src, uint32_t tseg, std::vector<uint8_t>* image,
                         uint32_t* crc);
  // The one verified WAN transfer: sends `image` over `link` with
  // retry/backoff, a fresh copy per try (a corrupted delivery must not
  // poison the next), and returns the first delivery whose CRC32 equals
  // `crc`. Failed tries count site.ship_failures, corrupted deliveries
  // site.corrupt_transfers; once the tries run out, the last try's error.
  Result<std::vector<uint8_t>> TransferVerified(
      WanLink* link, const std::vector<uint8_t>& image, uint32_t crc);
  // Ships one verified image to `dst` over the pair's link and installs
  // the delivery into the destination store.
  Status ShipImage(int src, int dst, uint32_t tseg,
                   const std::vector<uint8_t>& image, uint32_t crc);
  // True when shipping src -> dst can be attempted right now.
  bool PeerReachable(int src, int dst) const;
  void UpdateQueueGauge();

  SimClock* clock_;
  SiteReplicatorConfig config_;
  SpanTracer* spans_ = nullptr;
  std::vector<Site> sites_;
  std::map<std::pair<int, int>, WanLink*> links_;  // Key: (min, max).
  std::map<std::pair<int, int>, uint32_t> ae_cursor_;  // Resume points.

  MetricsRegistry metrics_;
  Stats stats_;
  Histogram ship_us_;     // Per-segment delivery time (success only).
  Gauge queue_depth_;     // Sum of pending shipments across sites.
};

}  // namespace hl

#endif  // HIGHLIGHT_FEDERATION_SITE_REPLICATOR_H_

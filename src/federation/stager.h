// StagerScheduler: a CASTOR-style central stager for a federation of
// HighLight disk-farm shards (PAPERS.md: "CASTOR status and evolution").
//
// One scheduler owns N FetchBackend shards on a single SimClock. Clients —
// the million-user workload generator, the replayer, tests — submit work
// into a bounded admission queue in three classes, serviced strictly in
// priority order: demand recalls beat migration passes beat scrub
// increments. Within the demand class, tenants share the drive farm by
// deficit round-robin (each scheduling round a tenant may claim at most
// `fair_share_quantum` dispatches, and the round's starting tenant
// rotates), so a hot tenant cannot starve the rest. Demand recalls are
// dispatched as per-shard *batches* through FetchBackend::FetchBatch, which
// hands the whole batch to the shard's elevator/coalescing read pipeline so
// media swaps amortize across the batch.
//
// The shared jukebox drive farm is modeled by `drive_tokens`: at most that
// many shards may receive tertiary work in one round; requests for
// token-less shards wait (counted) and the tenant rotation naturally moves
// the tokens around. A shard whose site is down sends its recalls to its
// failover peer at another site (see "Multi-site failover" below).

#ifndef HIGHLIGHT_FEDERATION_STAGER_H_
#define HIGHLIGHT_FEDERATION_STAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "highlight/fetch_backend.h"
#include "sim/sim_clock.h"
#include "util/metrics.h"
#include "util/span.h"
#include "util/status.h"

namespace hl {

enum class StagerClass { kDemand = 0, kMigration = 1, kScrub = 2 };

struct StagerConfig {
  // Admission bound across all classes; submits beyond it get kBusy.
  size_t max_queue = 4096;
  // Demand recalls dispatched to one shard in one round (one FetchBatch).
  size_t max_batch = 16;
  // Demand dispatches one tenant may claim per round (deficit round-robin).
  uint64_t fair_share_quantum = 8;
  // Shards that may receive tertiary work per round — the shared drive
  // farm. 0 = unlimited (every shard has a dedicated drive set).
  size_t drive_tokens = 0;
  // Admission-priority aging: after this many consecutive demand rounds
  // with maintenance waiting, one starved migration pass (or, with none
  // queued, one scrub increment) is promoted to run alongside the demand
  // round, so sustained demand load can no longer starve maintenance
  // forever. 0 (default) = strict priority, the pre-aging behavior.
  uint64_t aging_rounds = 0;
};

class StagerScheduler {
 public:
  explicit StagerScheduler(SimClock* clock, StagerConfig config = {});

  // Registers a shard; returns its id (dense, starting at 0). The backend
  // must outlive the scheduler.
  int AddShard(FetchBackend* backend);
  size_t NumShards() const { return shards_.size(); }

  // --- Multi-site failover ---------------------------------------------------
  //
  // Shards may belong to geographic *sites* (a jukebox machine room). A
  // shard is down when the SiteHealthProvider reports its site down
  // (operator-quarantined, or unreachable over the WAN). A down shard's
  // demand recalls fail over to its designated peer: the shard at another
  // site holding a replicated copy of the same tertiary layout (shipped
  // there by the SiteReplicator). When the peer is down too, or the shard
  // has none, the recall stays home: refusing the only copy would strand
  // the data. Migration and scrub always run on the shard they name.

  // Reachability oracle, typically the SiteReplicator: a site is available
  // when it is not quarantined and some WAN path to it is up.
  class SiteHealthProvider {
   public:
    virtual ~SiteHealthProvider() = default;
    virtual bool SiteAvailable(int site) const = 0;
  };

  void SetShardSite(int shard, int site);
  // The cross-site failover target for `shard` (one direction; set both
  // ways for symmetric pairs).
  void SetFailoverPeer(int shard, int peer);
  void SetSiteHealthProvider(const SiteHealthProvider* provider) {
    site_health_ = provider;
  }
  void SetTracer(Tracer tracer) { SetSpans(tracer); }  // hlbench only.
  // Causal tracing. Point this at the federation's shared tracer (the
  // ObservabilityHub core) to get one span tree across the stager and the
  // shards it drives: SubmitFetch records a closed "stager_admit" root,
  // Pump wraps each shard batch in a "stager_dispatch" child of the batch's
  // first admit span — the shard's own fetch spans nest under it through
  // the shared implicit-context stack — and every request in the batch gets
  // a "stager_fanout" leaf under the dispatch, so a coalesced recall's
  // requests all share one parent. A recall that joins a batch on its
  // cross-site peer records one "site_failover" instant (shard, peer).
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

  // --- Admission -----------------------------------------------------------
  //
  // All three classes share one check: an unknown shard is kInvalidArgument
  // (nothing queued, nothing counted); a full queue is kBusy and counts one
  // stager.rejected.

  Status SubmitFetch(const std::string& tenant, int shard, uint32_t tseg);
  Status SubmitMigration(const std::string& tenant, int shard,
                         MigrationRequest request);
  Status SubmitScrub(int shard, uint32_t max_segments);

  // --- Service -------------------------------------------------------------

  // One scheduling round: dispatches demand batches under fair-share and
  // drive tokens; with no demand backlog, runs one migration pass; with
  // neither, one scrub increment. Advances the SimClock by whatever device
  // time the dispatched work costs. A shard whose FetchBatch fails does not
  // cut the round short: its requests count as stager.fetch_errors, the
  // other shards still dispatch, and Pump returns the first such error
  // after the round completes.
  Status Pump();
  // Pumps until the admission queue is empty.
  Status RunUntilIdle();

  size_t PendingRequests() const;
  // Demand recalls completed for `tenant` so far.
  uint64_t ServedFor(const std::string& tenant) const;
  // Tenants in first-submission order (the fair-share rotation order).
  std::vector<std::string> Tenants() const;

  // stager.* counters, queue gauges, and the fetch-delay / queue-wait
  // histograms the tail-latency reporting reads.
  MetricsRegistry& metrics() { return metrics_; }
  MetricsSnapshot Metrics() { return metrics_.Snapshot(); }

 private:
  struct DemandRequest {
    int shard = 0;
    uint32_t tseg = 0;
    SimTime submitted_at = 0;
    SpanId admit_span = kNoSpan;  // The request's "stager_admit" root span.
  };
  struct MigrationItem {
    int shard = 0;
    std::string tenant;
    MigrationRequest request;
  };
  struct ScrubItem {
    int shard = 0;
    uint32_t max_segments = 0;
  };
  struct Tenant {
    std::string name;
    std::deque<DemandRequest> fifo;
  };

  // The shard that serves a recall for `shard`: its failover peer when
  // `shard` is down and the peer is not, else `shard` itself.
  int RouteShard(int shard) const;
  size_t DemandBacklog() const;
  void UpdateQueueGauge();
  // The admission check every Submit* runs first.
  Status Admit(int shard);
  // Pops and runs one maintenance item: the head migration pass, or with
  // none queued the head scrub increment. At least one must be queued.
  Status RunMaintenance();

  // True when the SiteHealthProvider reports `shard`'s site down.
  bool ShardDown(int shard) const;

  SimClock* clock_;
  StagerConfig config_;
  std::vector<FetchBackend*> shards_;
  std::vector<int> site_of_;        // -1 = no site assigned.
  std::vector<int> failover_peer_;  // -1 = no cross-site peer.
  const SiteHealthProvider* site_health_ = nullptr;
  SpanTracer* spans_ = nullptr;
  uint64_t starved_rounds_ = 0;  // Demand rounds maintenance has waited.

  std::vector<Tenant> tenants_;                // First-submission order.
  std::map<std::string, size_t> tenant_index_;
  std::deque<MigrationItem> migrations_;
  std::deque<ScrubItem> scrubs_;
  size_t rr_tenant_ = 0;  // Round's starting tenant (rotates every round).

  std::map<std::string, uint64_t> served_;

  MetricsRegistry metrics_;
  struct Stats {
    Counter demand_admitted;
    Counter migration_admitted;
    Counter scrub_admitted;
    Counter rejected;          // Admission-bound refusals.
    Counter demand_served;
    Counter fetch_errors;
    Counter migration_runs;
    Counter scrub_steps;
    Counter batches_dispatched;
    Counter coalesced;         // Duplicate (shard, tseg) folded into a batch.
    Counter failover_fetches;  // Recalls batched onto a peer site's shard.
    Counter aging_promotions;  // Starved maintenance promoted past demand.
    Counter drive_waits;       // Requests deferred for want of a drive token.
    Counter cache_hits;        // Recalls served from a shard's segment cache.
    Gauge queue_depth;         // Pending requests; max() = high-water.
  };
  Stats stats_;
  Histogram fetch_delay_us_;  // Submit -> segment usable, per demand recall.
  Histogram queue_wait_us_;   // Submit -> batch dispatch.
};

}  // namespace hl

#endif  // HIGHLIGHT_FEDERATION_STAGER_H_

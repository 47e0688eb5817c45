// ServiceProcess: the kernel-request service daemon of section 6.7.
//
// The kernel (block-map driver) queues demand-fetch requests here; the
// service process selects a reusable cache line (ejecting one if needed),
// directs the I/O server to fetch the tertiary segment, registers the new
// line in the cache directory, and "restarts" the original I/O. It may also
// prefetch additional segments based on a pluggable policy (hints from the
// migrator or observed access patterns, section 5.4).
//
// Every demand fault takes one path: a single fault is a batch of one.
// Each request is admitted (the 2 ms kernel request, the demand count, the
// slow-access notice for an uncached segment), then served serially or,
// with the async read pipeline, through one elevator pass; its delay, from
// the call or batch handoff to the instant its segment is usable, is
// recorded once.

#ifndef HIGHLIGHT_HIGHLIGHT_SERVICE_PROCESS_H_
#define HIGHLIGHT_HIGHLIGHT_SERVICE_PROCESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "highlight/fetch_backend.h"
#include "highlight/io_server.h"
#include "highlight/segment_cache.h"
#include "sim/sim_clock.h"
#include "util/metrics.h"
#include "util/span.h"
#include "util/status.h"

namespace hl {

class ServiceProcess {
 public:
  ServiceProcess(SegmentCache* cache, IoServer* io, SimClock* clock)
      : cache_(cache), io_(io), clock_(clock) {}

  // Handles one demand fetch: serves {tseg} as a batch of one, then runs
  // the prefetch policy and read-ahead. Returns the request's delay (call
  // to segment usable), which excludes the prefetches it triggers.
  Result<SimTime> DemandFetch(uint32_t tseg);

  // Routes fetches through the I/O server's unified read queue instead of
  // the synchronous FetchSegment path (HighLightConfig::async_read_pipeline).
  void set_async_read_pipeline(bool on) { async_reads_ = on; }

  // Batched demand service: the kernel's queue of outstanding faults handed
  // over at once. With the async pipeline the whole batch is enqueued before
  // the first issue, so the elevator orders transfers per volume (K faults
  // on one unmounted volume pay one media swap), and each request resumes as
  // soon as *its* segment is usable (critical-segment-first). Without the
  // pipeline, requests are serviced strictly in order, each waiting out all
  // of its predecessors. Either way `delay_us` runs from batch arrival to
  // the instant the request's segment is usable. Prefetch policy and
  // read-ahead are not run for batch requests. The returned vector
  // parallels `tsegs`.
  Result<std::vector<FetchOutcome>> DemandFetchBatch(
      const std::vector<uint32_t>& tsegs);

  // The prefetch policy maps a demand-fetched tseg to additional tsegs to
  // bring in. Empty by default.
  using PrefetchPolicy = std::function<std::vector<uint32_t>(uint32_t)>;
  void SetPrefetchPolicy(PrefetchPolicy policy) {
    prefetch_ = std::move(policy);
  }

  // Section 10's user-notification agent: called when a request is about to
  // block on tertiary storage, with the estimated delay (a rolling average
  // of past fetches; 0 when no history exists) — the kernel "hold on"
  // message to the waiting process.
  using SlowAccessNotifier = std::function<void(uint32_t tseg,
                                                SimTime estimated_us)>;
  void SetSlowAccessNotifier(SlowAccessNotifier notifier) {
    notifier_ = std::move(notifier);
  }

  // Sequential-miss read-ahead: after a demand fetch of tseg N, schedule an
  // asynchronous tertiary read of N+1 through the I/O server. The image
  // (the volume's chunks) is held until the predicted miss arrives; that
  // miss then waits only for the remainder of the already-in-flight read
  // and installs the chunks into a cache line — no full tertiary stall.
  void set_sequential_readahead(bool on) { readahead_ = on; }
  // Gate deciding whether a tseg is worth prefetching (in range, written,
  // not a replica). Read-ahead is inert until a filter is installed.
  using ReadaheadFilter = std::function<bool(uint32_t)>;
  void SetReadaheadFilter(ReadaheadFilter filter) {
    readahead_filter_ = std::move(filter);
  }
  // Invalidates held prefetch images and cancels still-queued prefetch
  // reads (volume erase / cache drops make them stale). Dropped images were
  // fetched but never served a miss, so they count as wasted read-aheads.
  void DropPendingPrefetches();
  size_t PendingPrefetches() const { return pending_prefetch_.size(); }

  struct Stats {
    Counter demand_fetches;
    Counter prefetches;
    Counter failed_prefetches;
    Counter readaheads_issued;
    Counter readaheads_consumed;
    Counter readaheads_wasted;  // Held images invalidated before use.
  };
  const Stats& stats() const { return stats_; }

  // Re-homes counters into `registry` under "service.*" and binds the demand
  // latency histogram.
  void AttachMetrics(MetricsRegistry* registry);

  // Causal span tracing: DemandFetch opens the root "demand_fetch" span
  // (DemandFetchBatch "fetch_batch") every downstream cache/IO/device span
  // nests under; a request that rides an in-flight fetch records an
  // "inflight_wait" instant there. Null disables.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

 private:
  // The one demand-fault path under DemandFetch and DemandFetchBatch:
  // admits every request, serves it (inline, or as the owner of a queued
  // read or a waiter on one already in flight), and records each served
  // request's delay. Fails as a whole only when the read pipeline does.
  Result<std::vector<FetchOutcome>> ServeFaults(
      const std::vector<uint32_t>& tsegs);
  // The serial fetch, the held read-ahead install, and policy prefetches;
  // a cached or in-flight segment is already served.
  Status FetchIntoCache(uint32_t tseg, bool is_prefetch);
  void MaybeReadahead(uint32_t tseg);
  // Async-pipeline policy prefetch: fire-and-forget enqueue that installs
  // into its line whenever the pipeline sweeps it up.
  Status AsyncPrefetch(uint32_t tseg);

  struct PendingPrefetch {
    std::vector<ChunkRef> image;
    SimTime ready_at = 0;
  };

  SegmentCache* cache_;
  IoServer* io_;
  SimClock* clock_;
  PrefetchPolicy prefetch_;
  SlowAccessNotifier notifier_;
  bool readahead_ = false;
  bool async_reads_ = false;
  ReadaheadFilter readahead_filter_;
  std::map<uint32_t, PendingPrefetch> pending_prefetch_;
  SimTime fetch_time_total_ = 0;   // For the rolling latency estimate.
  uint64_t fetch_time_samples_ = 0;
  Stats stats_;
  Histogram demand_latency_us_;  // Each served request's delay_us.
  SpanTracer* spans_ = nullptr;
};

}  // namespace hl

#endif  // HIGHLIGHT_HIGHLIGHT_SERVICE_PROCESS_H_

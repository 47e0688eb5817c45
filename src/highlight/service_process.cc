#include "highlight/service_process.h"

#include <algorithm>

#include "util/logging.h"

namespace hl {

void ServiceProcess::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  stats_.demand_fetches.BindTo(*registry, "service.demand_fetches");
  stats_.prefetches.BindTo(*registry, "service.prefetches");
  stats_.failed_prefetches.BindTo(*registry, "service.failed_prefetches");
  stats_.readaheads_issued.BindTo(*registry, "service.readaheads_issued");
  stats_.readaheads_consumed.BindTo(*registry, "service.readaheads_consumed");
  stats_.readaheads_wasted.BindTo(*registry, "service.readaheads_wasted");
  demand_latency_us_.BindTo(*registry, "service.demand_latency_us");
}

Status ServiceProcess::FetchIntoCache(uint32_t tseg, bool is_prefetch) {
  if (cache_->Installing(tseg) || cache_->Lookup(tseg) != kNoSegment) {
    // Cached, or already being fetched (a queued prefetch install; a demand
    // fault rides such a fetch in ServeFaults before it gets here).
    return OkStatus();
  }
  auto pending = pending_prefetch_.find(tseg);
  if (pending != pending_prefetch_.end()) {
    // The sequential miss the read-ahead predicted: wait out the remainder
    // of the in-flight tertiary read, then install the held image.
    SpanScope span(spans_, "readahead_install", "service");
    span.Annotate("tseg", tseg);
    PendingPrefetch hit = std::move(pending->second);
    pending_prefetch_.erase(pending);
    if (hit.ready_at > clock_->Now()) {
      clock_->AdvanceTo(hit.ready_at);
    }
    Result<uint32_t> slot = cache_->AllocLine(tseg, /*staging=*/false);
    if (!slot.ok()) {
      // The held image dies with the pending entry already erased: the
      // read-ahead transfer was for nothing.
      stats_.readaheads_wasted++;
      return slot.status();
    }
    Status installed = io_->InstallFetched(tseg, *slot, hit.image);
    if (!installed.ok()) {
      (void)cache_->Eject(tseg);
      stats_.readaheads_wasted++;
      return installed;
    }
    stats_.readaheads_consumed++;
    if (is_prefetch) {
      stats_.prefetches++;
    }
    return OkStatus();
  }
  if (async_reads_) {
    // ServeFaults queues an async demand miss itself.
    return AsyncPrefetch(tseg);
  }
  Result<uint32_t> line =
      cache_->AllocLine(tseg, /*staging=*/false, /*prefetched=*/is_prefetch);
  if (!line.ok()) {
    return line.status();
  }
  Status fetched = io_->FetchSegment(tseg, *line);
  if (!fetched.ok()) {
    // Failed fetch: release the line so the cache stays consistent.
    (void)cache_->Eject(tseg);
    return fetched;
  }
  if (is_prefetch) {
    stats_.prefetches++;
  }
  return OkStatus();
}

Status ServiceProcess::AsyncPrefetch(uint32_t tseg) {
  ASSIGN_OR_RETURN(uint32_t line,
                   cache_->BeginInstall(tseg, /*prefetched=*/true));
  stats_.prefetches++;
  Status s = io_->EnqueuePrefetchRead(
      tseg, line,
      [this, tseg](const Status& st, SimTime ready_at,
                   std::span<const ChunkRef>) {
        if (st.ok()) {
          cache_->SetInstallReady(tseg, ready_at);
        } else {
          (void)cache_->AbortInstall(tseg);
          stats_.failed_prefetches++;
        }
      });
  if (!s.ok()) {
    (void)cache_->AbortInstall(tseg);
  }
  return s;
}

void ServiceProcess::DropPendingPrefetches() {
  stats_.readaheads_wasted += pending_prefetch_.size();
  pending_prefetch_.clear();
  // Still-queued prefetch reads are stale too; their completions run with a
  // cancellation status (install-type ones release their lines there).
  stats_.readaheads_wasted += io_->CancelQueuedPrefetchReads();
}

Result<SimTime> ServiceProcess::DemandFetch(uint32_t tseg) {
  SpanScope span(spans_, "demand_fetch", "service");
  span.Annotate("tseg", tseg);
  ASSIGN_OR_RETURN(std::vector<FetchOutcome> served, ServeFaults({tseg}));
  RETURN_IF_ERROR(served[0].status);

  if (prefetch_) {
    for (uint32_t extra : prefetch_(tseg)) {
      if (extra == tseg) {
        continue;
      }
      SpanScope pf(spans_, "prefetch", "service");
      pf.Annotate("tseg", extra);
      Status s = FetchIntoCache(extra, /*is_prefetch=*/true);
      if (!s.ok()) {
        stats_.failed_prefetches++;
        HL_LOG(kDebug, "service",
               "prefetch of tseg " + std::to_string(extra) +
                   " failed: " + s.ToString());
      }
    }
  }
  MaybeReadahead(tseg);
  return served[0].delay_us;
}

void ServiceProcess::MaybeReadahead(uint32_t tseg) {
  if (!readahead_ || !readahead_filter_) {
    return;
  }
  uint32_t next = tseg + 1;
  if (!readahead_filter_(next)) {
    return;
  }
  if (io_->ReadQueued(next) || cache_->Installing(next)) {
    // A read for this tseg is already queued or on a device; a second
    // transfer would fetch bytes nobody consumes.
    stats_.readaheads_wasted++;
    return;
  }
  if (cache_->Lookup(next) != kNoSegment ||
      pending_prefetch_.count(next) > 0) {
    return;
  }
  SpanScope span(spans_, "readahead", "service");
  span.Annotate("tseg", next);
  span.Annotate("trigger", tseg);
  // Hold the image until the predicted miss arrives. In the async pipeline
  // a demand fault on `next` may arrive first and promote the queued read,
  // which then installs straight into a cache line: no image to hold.
  IoServer::ReadDone hold = [this, next](const Status& st, SimTime ready_at,
                                         std::span<const ChunkRef> image) {
    if (st.ok() && cache_->Lookup(next) == kNoSegment) {
      pending_prefetch_[next] =
          PendingPrefetch{{image.begin(), image.end()}, ready_at};
    }
  };
  const Status s =
      async_reads_ ? io_->EnqueuePrefetchRead(next, kNoSegment, std::move(hold))
                   : io_->SchedulePrefetch(next, std::move(hold));
  if (!s.ok()) {
    stats_.failed_prefetches++;
    HL_LOG(kDebug, "service",
           "read-ahead of tseg " + std::to_string(next) +
               " failed: " + s.ToString());
    return;
  }
  stats_.readaheads_issued++;
}

Result<std::vector<FetchOutcome>> ServiceProcess::DemandFetchBatch(
    const std::vector<uint32_t>& tsegs) {
  SpanScope span(spans_, "fetch_batch", "service");
  span.Annotate("requests", tsegs.size());
  return ServeFaults(tsegs);
}

Result<std::vector<FetchOutcome>> ServiceProcess::ServeFaults(
    const std::vector<uint32_t>& tsegs) {
  const SimTime t0 = clock_->Now();
  std::vector<FetchOutcome> out(tsegs.size());
  // When each request's segment became usable (or its service failed).
  std::vector<SimTime> ready(tsegs.size(), t0);
  // kInline requests are done when admitted; the pipeline serves the owner
  // of a queued read and a waiter on a fetch already in flight.
  enum class Role { kInline, kOwner, kWaiter };
  std::vector<Role> role(tsegs.size(), Role::kInline);
  bool held = false;

  // Phase 1: admit each request in order. Serial service, a cache hit and a
  // held read-ahead are served inline; an async miss is queued under a
  // hold, taken with the first read, so the issue policy sees the whole
  // batch before the first transfer is placed. A call that queues no read
  // leaves the queue (and its lazy prefetch reads) alone.
  for (size_t i = 0; i < tsegs.size(); ++i) {
    const uint32_t tseg = tsegs[i];
    out[i].tseg = tseg;
    const SimTime q0 = clock_->Now();
    clock_->Advance(kKernelRequestUs);
    io_->phases().Add(io_->phase_queuing(), clock_->Now() - q0);
    stats_.demand_fetches++;
    if (notifier_ && cache_->Lookup(tseg) == kNoSegment) {
      notifier_(tseg, fetch_time_samples_ == 0
                          ? 0
                          : fetch_time_total_ / fetch_time_samples_);
    }
    if (cache_->Installing(tseg)) {
      // Duplicate of an earlier request, or an in-flight prefetch install:
      // ride the existing fetch instead of paying a second transfer.
      RecordInstant(spans_, "inflight_wait", "service", "tseg", tseg);
      cache_->NoteInflightWait();
      role[i] = Role::kWaiter;
      continue;
    }
    if (!async_reads_ || cache_->Lookup(tseg) != kNoSegment ||
        pending_prefetch_.count(tseg) > 0) {
      out[i].status = FetchIntoCache(tseg, /*is_prefetch=*/false);
      ready[i] = clock_->Now();
      continue;
    }
    Result<uint32_t> line = cache_->BeginInstall(tseg, /*prefetched=*/false);
    if (!line.ok()) {
      out[i].status = line.status();
      ready[i] = clock_->Now();
      continue;
    }
    if (io_->ReadQueued(tseg)) {
      // A queued read-ahead predicted this miss; the demand rides it.
      stats_.readaheads_consumed++;
    }
    if (!held) {
      io_->HoldReads();
      held = true;
    }
    // Under the hold the enqueue only queues: the completion runs when the
    // read is issued, in phase 2.
    FetchOutcome* o = &out[i];
    SimTime* at = &ready[i];
    Status queued = io_->EnqueueDemandRead(
        tseg, *line,
        [this, tseg, o, at](const Status& st, SimTime r,
                            std::span<const ChunkRef>) {
          o->status = st;
          *at = r;
          if (st.ok()) {
            cache_->SetInstallReady(tseg, r);
          }
        });
    if (!queued.ok()) {
      (void)io_->CancelQueuedRead(tseg, queued);
      (void)cache_->AbortInstall(tseg);
      out[i].status = queued;
      ready[i] = clock_->Now();
      continue;
    }
    role[i] = Role::kOwner;
  }

  // Phase 2: let the elevator sweep the queue, then force every read this
  // call waits on onto a device. Completions capture this frame by
  // pointer, so on a pipeline error the still-queued reads are neutralized
  // (and their lines released) before the frame dies.
  Status pipeline = held ? io_->ReleaseReads() : OkStatus();
  for (size_t i = 0; pipeline.ok() && i < tsegs.size(); ++i) {
    if (role[i] != Role::kInline) {
      pipeline = io_->EnsureReadIssued(tsegs[i]);
    }
  }
  if (!pipeline.ok()) {
    for (size_t i = 0; i < tsegs.size(); ++i) {
      if (role[i] == Role::kOwner) {
        (void)io_->CancelQueuedRead(tsegs[i], pipeline);
        if (!out[i].status.ok()) {
          (void)cache_->AbortInstall(tsegs[i]);
        }
      }
    }
    return pipeline;
  }

  // Phase 3: critical-segment-first resume. Requests wake in ascending
  // ready order, each charged only its own segment's completion time —
  // not the tail of the batch.
  std::vector<size_t> order;
  for (size_t i = 0; i < tsegs.size(); ++i) {
    if (role[i] == Role::kInline) {
      continue;
    }
    if (role[i] == Role::kWaiter) {
      if (cache_->Lookup(tsegs[i]) == kNoSegment) {
        // The fetch this request rode failed and was torn down.
        out[i].status = IoError("tseg " + std::to_string(tsegs[i]) +
                                ": in-flight fetch failed");
      } else {
        ready[i] = cache_->InstallReadyAt(tsegs[i]);
      }
    } else if (!out[i].status.ok()) {
      (void)cache_->AbortInstall(tsegs[i]);
    }
    if (out[i].status.ok()) {
      order.push_back(i);
    } else {
      ready[i] = clock_->Now();
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ready[a] != ready[b] ? ready[a] < ready[b] : a < b;
  });
  for (size_t i : order) {
    if (ready[i] > clock_->Now()) {
      clock_->AdvanceTo(ready[i]);
    }
    out[i].status = cache_->FinishInstall(tsegs[i]);
  }

  // One delay per request, and one latency sample per served request.
  for (size_t i = 0; i < tsegs.size(); ++i) {
    out[i].delay_us = std::max(ready[i], t0) - t0;
    if (out[i].status.ok()) {
      fetch_time_total_ += out[i].delay_us;
      fetch_time_samples_++;
      demand_latency_us_.Observe(out[i].delay_us);
    }
  }
  return out;
}

}  // namespace hl

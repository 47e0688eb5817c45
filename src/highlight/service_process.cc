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
  if (cache_->Installing(tseg)) {
    // Already being fetched (a queued prefetch install or a concurrent
    // fault): piggyback instead of paying a second transfer.
    if (is_prefetch) {
      return OkStatus();
    }
    return AwaitInflight(tseg);
  }
  if (cache_->Lookup(tseg) != kNoSegment) {
    return OkStatus();
  }
  auto pending = pending_prefetch_.find(tseg);
  if (pending != pending_prefetch_.end()) {
    // The sequential miss the read-ahead predicted: wait out the remainder
    // of the in-flight tertiary read, then install the buffered image.
    SpanScope span(spans_, "readahead_install", "service");
    span.Annotate("tseg", std::to_string(tseg));
    PendingPrefetch hit = std::move(pending->second);
    pending_prefetch_.erase(pending);
    if (hit.ready_at > clock_->Now()) {
      clock_->AdvanceTo(hit.ready_at);
    }
    Result<uint32_t> slot = cache_->AllocLine(tseg, /*staging=*/false);
    if (!slot.ok()) {
      // The buffered image dies with the pending entry already erased:
      // the read-ahead transfer was for nothing.
      stats_.readaheads_wasted++;
      return slot.status();
    }
    Status installed = io_->InstallFetched(
        tseg, *slot, IoServer::FetchedImage{{}, hit.image});
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
    return is_prefetch ? AsyncPrefetch(tseg) : AsyncDemandFetch(tseg);
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

Status ServiceProcess::AwaitInflight(uint32_t tseg) {
  SpanScope span(spans_, "inflight_wait", "service");
  span.Annotate("tseg", std::to_string(tseg));
  cache_->NoteInflightWait(tseg);
  RETURN_IF_ERROR(io_->EnsureReadIssued(tseg));
  if (cache_->Lookup(tseg) == kNoSegment) {
    // The fetch we piggybacked on failed and was torn down.
    return IoError("tseg " + std::to_string(tseg) +
                   ": in-flight fetch failed");
  }
  const SimTime ready = cache_->InstallReadyAt(tseg);
  if (ready > clock_->Now()) {
    clock_->AdvanceTo(ready);
  }
  return cache_->FinishInstall(tseg);
}

Status ServiceProcess::AsyncDemandFetch(uint32_t tseg) {
  ASSIGN_OR_RETURN(uint32_t line,
                   cache_->BeginInstall(tseg, /*prefetched=*/false));
  const bool promoted = io_->ReadQueued(tseg);
  Status result = OkStatus();
  SimTime ready = 0;
  // The completion runs at issue time, which EnsureReadIssued forces before
  // this frame returns, so capturing locals by reference is safe.
  Status pipeline = io_->EnqueueDemandRead(
      tseg, line, [this, tseg, &result, &ready](const Status& st, SimTime r) {
        result = st;
        ready = r;
        if (st.ok()) {
          cache_->SetInstallReady(tseg, r);
        }
      });
  if (pipeline.ok()) {
    pipeline = io_->EnsureReadIssued(tseg);
  }
  if (!pipeline.ok()) {
    // Neutralize the queued waiter (its captures die with this frame)
    // before releasing the line.
    (void)io_->CancelQueuedRead(tseg, pipeline);
    (void)cache_->AbortInstall(tseg);
    return pipeline;
  }
  if (promoted) {
    // A queued read-ahead predicted this miss; the demand rode it.
    stats_.readaheads_consumed++;
  }
  if (!result.ok()) {
    (void)cache_->AbortInstall(tseg);
    return result;
  }
  if (ready > clock_->Now()) {
    clock_->AdvanceTo(ready);
  }
  return cache_->FinishInstall(tseg);
}

Status ServiceProcess::AsyncPrefetch(uint32_t tseg) {
  ASSIGN_OR_RETURN(uint32_t line,
                   cache_->BeginInstall(tseg, /*prefetched=*/true));
  stats_.prefetches++;
  Status s = io_->EnqueuePrefetchRead(
      tseg, line, nullptr,
      [this, tseg](const Status& st, SimTime ready_at) {
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

Status ServiceProcess::DemandFetch(uint32_t tseg) {
  SpanScope span(spans_, "demand_fetch", "service");
  span.Annotate("tseg", std::to_string(tseg));
  SimTime t0 = clock_->Now();
  clock_->Advance(kKernelRequestUs);
  io_->phases().Add(io_->phase_queuing(), clock_->Now() - t0);

  if (notifier_ && cache_->Lookup(tseg) == kNoSegment) {
    SimTime estimate = fetch_time_samples_ == 0
                           ? 0
                           : fetch_time_total_ / fetch_time_samples_;
    notifier_(tseg, estimate);
  }
  stats_.demand_fetches++;
  SimTime fetch_start = clock_->Now();
  RETURN_IF_ERROR(FetchIntoCache(tseg, /*is_prefetch=*/false));
  fetch_time_total_ += clock_->Now() - fetch_start;
  fetch_time_samples_++;
  demand_latency_us_.Observe(clock_->Now() - fetch_start);

  if (prefetch_) {
    for (uint32_t extra : prefetch_(tseg)) {
      if (extra == tseg) {
        continue;
      }
      SpanScope pf(spans_, "prefetch", "service");
      pf.Annotate("tseg", std::to_string(extra));
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
  return OkStatus();
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
  span.Annotate("tseg", std::to_string(next));
  span.Annotate("trigger", std::to_string(tseg));
  auto image = std::make_shared<std::vector<uint8_t>>(io_->SegBytes());
  Status s;
  if (async_reads_) {
    // Queue through the unified read pipeline; if a demand fault on `next`
    // arrives first, the queued op is promoted and installs straight into a
    // cache line, so the completion must not buffer a stale duplicate.
    s = io_->EnqueuePrefetchRead(
        next, kNoSegment, image,
        [this, next, image](const Status& st, SimTime ready_at) {
          if (st.ok() && cache_->Lookup(next) == kNoSegment) {
            pending_prefetch_[next] = PendingPrefetch{image, ready_at};
          }
        });
  } else {
    s = io_->SchedulePrefetch(
        next, std::span<uint8_t>(image->data(), image->size()),
        [this, next, image](const Status& st, SimTime ready_at) {
          if (st.ok()) {
            pending_prefetch_[next] = PendingPrefetch{image, ready_at};
          }
        });
  }
  if (!s.ok()) {
    stats_.failed_prefetches++;
    HL_LOG(kDebug, "service",
           "read-ahead of tseg " + std::to_string(next) +
               " failed: " + s.ToString());
    return;
  }
  stats_.readaheads_issued++;
}

Result<std::vector<ServiceProcess::BatchFetchResult>>
ServiceProcess::DemandFetchBatch(const std::vector<uint32_t>& tsegs) {
  SpanScope span(spans_, "fetch_batch", "service");
  span.Annotate("requests", std::to_string(tsegs.size()));
  const SimTime t0 = clock_->Now();
  std::vector<BatchFetchResult> out(tsegs.size());
  for (size_t i = 0; i < tsegs.size(); ++i) {
    out[i].tseg = tsegs[i];
  }

  if (!async_reads_) {
    // Synchronous service: strictly in order, each request waiting out the
    // full transfers (and media swaps) of all of its predecessors.
    for (size_t i = 0; i < tsegs.size(); ++i) {
      SimTime q0 = clock_->Now();
      clock_->Advance(kKernelRequestUs);
      io_->phases().Add(io_->phase_queuing(), clock_->Now() - q0);
      stats_.demand_fetches++;
      SimTime start = clock_->Now();
      out[i].status = FetchIntoCache(tsegs[i], /*is_prefetch=*/false);
      out[i].delay_us = clock_->Now() - t0;
      if (out[i].status.ok()) {
        fetch_time_total_ += clock_->Now() - start;
        fetch_time_samples_++;
        demand_latency_us_.Observe(clock_->Now() - start);
      }
    }
    return out;
  }

  enum class Role { kDone, kOwner, kWaiter, kFailed };
  struct Slot {
    Role role = Role::kDone;
    Status status = OkStatus();
    SimTime ready = 0;
  };
  std::vector<Slot> slots(tsegs.size());

  // Phase 1: enqueue every miss under a hold, so the issue policy sees the
  // whole batch before the first transfer is placed.
  io_->HoldReads();
  for (size_t i = 0; i < tsegs.size(); ++i) {
    const uint32_t tseg = tsegs[i];
    Slot& slot = slots[i];
    SimTime q0 = clock_->Now();
    clock_->Advance(kKernelRequestUs);
    io_->phases().Add(io_->phase_queuing(), clock_->Now() - q0);
    stats_.demand_fetches++;
    if (cache_->Installing(tseg)) {
      // Duplicate of an earlier batch entry, or an in-flight prefetch
      // install: piggyback on the existing fetch.
      slot.role = Role::kWaiter;
      cache_->NoteInflightWait(tseg);
      continue;
    }
    if (cache_->Lookup(tseg) != kNoSegment) {
      out[i].delay_us = clock_->Now() - t0;
      continue;
    }
    if (notifier_) {
      SimTime estimate = fetch_time_samples_ == 0
                             ? 0
                             : fetch_time_total_ / fetch_time_samples_;
      notifier_(tseg, estimate);
    }
    if (pending_prefetch_.count(tseg) > 0) {
      // Buffered read-ahead image: its transfer is already under way on its
      // own schedule, so install it inline.
      slot.status = FetchIntoCache(tseg, /*is_prefetch=*/false);
      if (!slot.status.ok()) {
        slot.role = Role::kFailed;
      }
      out[i].status = slot.status;
      out[i].delay_us = clock_->Now() - t0;
      continue;
    }
    Result<uint32_t> line = cache_->BeginInstall(tseg, /*prefetched=*/false);
    if (!line.ok()) {
      slot.role = Role::kFailed;
      slot.status = line.status();
      out[i].status = slot.status;
      out[i].delay_us = clock_->Now() - t0;
      continue;
    }
    if (io_->ReadQueued(tseg)) {
      // A queued read-ahead predicted this miss; the demand rides it.
      stats_.readaheads_consumed++;
    }
    Slot* sp = &slot;
    Status enq = io_->EnqueueDemandRead(
        tseg, *line, [this, tseg, sp](const Status& st, SimTime r) {
          sp->status = st;
          sp->ready = r;
          if (st.ok()) {
            cache_->SetInstallReady(tseg, r);
          }
        });
    if (!enq.ok()) {
      (void)io_->CancelQueuedRead(tseg, enq);
      (void)cache_->AbortInstall(tseg);
      slot.role = Role::kFailed;
      slot.status = enq;
      out[i].status = enq;
      out[i].delay_us = clock_->Now() - t0;
      continue;
    }
    slot.role = Role::kOwner;
  }

  // Phase 2: let the elevator sweep the queue, then force every batch read
  // onto a device. Slot completions capture this frame by pointer, so on a
  // pipeline error the still-queued reads must be neutralized before the
  // frame dies.
  Status pipeline = io_->ReleaseReads();
  for (size_t i = 0; pipeline.ok() && i < tsegs.size(); ++i) {
    if (slots[i].role == Role::kOwner || slots[i].role == Role::kWaiter) {
      pipeline = io_->EnsureReadIssued(tsegs[i]);
    }
  }
  if (!pipeline.ok()) {
    for (size_t i = 0; i < tsegs.size(); ++i) {
      if (slots[i].role == Role::kOwner &&
          io_->CancelQueuedRead(tsegs[i], pipeline) &&
          cache_->Lookup(tsegs[i]) != kNoSegment) {
        (void)cache_->AbortInstall(tsegs[i]);
      }
    }
    return pipeline;
  }

  // Phase 3: critical-segment-first resume. Requests wake in ascending
  // ready order, each charged only its own segment's completion time —
  // not the tail of the batch.
  std::vector<size_t> order;
  for (size_t i = 0; i < tsegs.size(); ++i) {
    Slot& slot = slots[i];
    if (slot.role == Role::kWaiter) {
      if (cache_->Lookup(tsegs[i]) == kNoSegment) {
        // The fetch this request piggybacked on failed and was torn down.
        slot.role = Role::kFailed;
        slot.status = IoError("tseg " + std::to_string(tsegs[i]) +
                              ": in-flight fetch failed");
        out[i].status = slot.status;
        out[i].delay_us = clock_->Now() - t0;
        continue;
      }
      slot.ready = cache_->InstallReadyAt(tsegs[i]);
    }
    if (slot.role == Role::kOwner && !slot.status.ok()) {
      if (cache_->Lookup(tsegs[i]) != kNoSegment) {
        (void)cache_->AbortInstall(tsegs[i]);
      }
      slot.role = Role::kFailed;
      out[i].status = slot.status;
      out[i].delay_us = clock_->Now() - t0;
      continue;
    }
    if (slot.role == Role::kOwner || slot.role == Role::kWaiter) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return slots[a].ready != slots[b].ready ? slots[a].ready < slots[b].ready
                                            : a < b;
  });
  for (size_t i : order) {
    Slot& slot = slots[i];
    if (slot.ready > clock_->Now()) {
      clock_->AdvanceTo(slot.ready);
    }
    Status fin = cache_->FinishInstall(tsegs[i]);
    out[i].status = fin;
    out[i].delay_us = std::max(slot.ready, t0) - t0;
    if (fin.ok()) {
      fetch_time_total_ += out[i].delay_us;
      fetch_time_samples_++;
      demand_latency_us_.Observe(out[i].delay_us);
    }
  }
  return out;
}

}  // namespace hl

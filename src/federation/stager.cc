#include "federation/stager.h"

#include <utility>

namespace hl {

StagerScheduler::StagerScheduler(SimClock* clock, StagerConfig config)
    : clock_(clock), config_(config) {
  stats_.demand_admitted.BindTo(metrics_, "stager.demand_admitted");
  stats_.migration_admitted.BindTo(metrics_, "stager.migration_admitted");
  stats_.scrub_admitted.BindTo(metrics_, "stager.scrub_admitted");
  stats_.rejected.BindTo(metrics_, "stager.rejected");
  stats_.demand_served.BindTo(metrics_, "stager.demand_served");
  stats_.fetch_errors.BindTo(metrics_, "stager.fetch_errors");
  stats_.migration_runs.BindTo(metrics_, "stager.migration_runs");
  stats_.scrub_steps.BindTo(metrics_, "stager.scrub_steps");
  stats_.batches_dispatched.BindTo(metrics_, "stager.batches_dispatched");
  stats_.coalesced.BindTo(metrics_, "stager.coalesced");
  stats_.failover_fetches.BindTo(metrics_, "stager.failover_fetches");
  stats_.aging_promotions.BindTo(metrics_, "stager.aging_promotions");
  stats_.drive_waits.BindTo(metrics_, "stager.drive_waits");
  stats_.cache_hits.BindTo(metrics_, "stager.cache_hits");
  stats_.queue_depth.BindTo(metrics_, "stager.queue_depth");
  fetch_delay_us_.BindTo(metrics_, "stager.fetch_delay_us");
  queue_wait_us_.BindTo(metrics_, "stager.queue_wait_us");
}

int StagerScheduler::AddShard(FetchBackend* backend) {
  shards_.push_back(backend);
  site_of_.push_back(-1);
  failover_peer_.push_back(-1);
  return static_cast<int>(shards_.size()) - 1;
}

void StagerScheduler::SetShardSite(int shard, int site) {
  site_of_.at(shard) = site;
}

void StagerScheduler::SetFailoverPeer(int shard, int peer) {
  failover_peer_.at(shard) = peer;
}

bool StagerScheduler::ShardDown(int shard) const {
  const int site = site_of_[shard];
  return site >= 0 && site_health_ != nullptr &&
         !site_health_->SiteAvailable(site);
}

size_t StagerScheduler::DemandBacklog() const {
  size_t n = 0;
  for (const Tenant& t : tenants_) {
    n += t.fifo.size();
  }
  return n;
}

size_t StagerScheduler::PendingRequests() const {
  return DemandBacklog() + migrations_.size() + scrubs_.size();
}

uint64_t StagerScheduler::ServedFor(const std::string& tenant) const {
  auto it = served_.find(tenant);
  return it == served_.end() ? 0 : it->second;
}

std::vector<std::string> StagerScheduler::Tenants() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const Tenant& t : tenants_) {
    names.push_back(t.name);
  }
  return names;
}

void StagerScheduler::UpdateQueueGauge() {
  stats_.queue_depth.Set(static_cast<int64_t>(PendingRequests()));
}

Status StagerScheduler::Admit(int shard) {
  if (shard < 0 || static_cast<size_t>(shard) >= shards_.size()) {
    return Status(ErrorCode::kInvalidArgument, "stager: no such shard");
  }
  if (PendingRequests() >= config_.max_queue) {
    stats_.rejected++;
    return Status(ErrorCode::kBusy, "stager: admission queue full");
  }
  return OkStatus();
}

Status StagerScheduler::SubmitFetch(const std::string& tenant, int shard,
                                    uint32_t tseg) {
  RETURN_IF_ERROR(Admit(shard));
  auto [it, inserted] = tenant_index_.try_emplace(tenant, tenants_.size());
  if (inserted) {
    tenants_.push_back(Tenant{tenant, {}});
  }
  // Record admission as a closed root span: it anchors the request's causal
  // tree (the batch dispatch it later joins becomes its child).
  SpanId admit = kNoSpan;
  if (spans_ != nullptr) {
    admit = spans_->BeginChildOf(kNoSpan, "stager_admit", "stager");
    spans_->Annotate(admit, "tenant", tenant);
    spans_->Annotate(admit, "shard", std::to_string(shard));
    spans_->Annotate(admit, "tseg", std::to_string(tseg));
    spans_->End(admit);
  }
  tenants_[it->second].fifo.push_back(
      DemandRequest{shard, tseg, clock_->Now(), admit});
  stats_.demand_admitted++;
  UpdateQueueGauge();
  return OkStatus();
}

Status StagerScheduler::SubmitMigration(const std::string& tenant, int shard,
                                        MigrationRequest request) {
  RETURN_IF_ERROR(Admit(shard));
  migrations_.push_back(MigrationItem{shard, tenant, std::move(request)});
  stats_.migration_admitted++;
  UpdateQueueGauge();
  return OkStatus();
}

Status StagerScheduler::SubmitScrub(int shard, uint32_t max_segments) {
  RETURN_IF_ERROR(Admit(shard));
  scrubs_.push_back(ScrubItem{shard, max_segments});
  stats_.scrub_admitted++;
  UpdateQueueGauge();
  return OkStatus();
}

int StagerScheduler::RouteShard(int shard) const {
  if (!ShardDown(shard)) {
    return shard;
  }
  const int peer = failover_peer_[shard];
  if (peer < 0 || static_cast<size_t>(peer) >= shards_.size() ||
      ShardDown(peer)) {
    return shard;  // No healthy peer: the only copy still serves.
  }
  return peer;
}

Status StagerScheduler::Pump() {
  if (DemandBacklog() == 0) {
    starved_rounds_ = 0;  // An idle-of-demand round serves maintenance.
    if (migrations_.empty() && scrubs_.empty()) {
      return OkStatus();
    }
    Status status = RunMaintenance();
    UpdateQueueGauge();
    return status;
  }
  // --- Demand round: fair-share selection into per-shard batches. ---------
  struct Picked {
    DemandRequest req;
    size_t tenant = 0;      // Index into tenants_.
    bool failover = false;  // Routed to a cross-site peer.
  };
  size_t nshards = shards_.size();
  std::vector<std::vector<Picked>> batches(nshards);
  // The round's active set: shards holding one of the farm's drive tokens.
  // Filled first-come in tenant-rotation order, so the rotation moves the
  // tokens across shards round over round.
  std::vector<bool> active(nshards, false);
  size_t active_count = 0;
  size_t ntenants = tenants_.size();
  for (size_t i = 0; i < ntenants; ++i) {
    size_t tenant_idx = (rr_tenant_ + i) % ntenants;
    Tenant& tenant = tenants_[tenant_idx];
    uint64_t quantum = config_.fair_share_quantum;
    while (quantum > 0 && !tenant.fifo.empty()) {
      const int target = RouteShard(tenant.fifo.front().shard);
      if (!active[target]) {
        if (config_.drive_tokens != 0 &&
            active_count >= config_.drive_tokens) {
          // No drive available for this shard this round. Stop taking from
          // this tenant so its per-tenant FIFO order holds.
          stats_.drive_waits++;
          break;
        }
        active[target] = true;
        active_count++;
      }
      if (batches[target].size() >= config_.max_batch) {
        break;  // Shard's round batch is full; keep FIFO order.
      }
      DemandRequest req = tenant.fifo.front();
      tenant.fifo.pop_front();
      // A failover counts once, when the recall joins its peer's batch; a
      // recall that waits for a token or a batch slot is routed afresh in
      // the round that takes it.
      const bool failed_over = target != req.shard;
      if (failed_over) {
        stats_.failover_fetches++;
        if (spans_ != nullptr) {
          // The routing decision belongs to the request's own tree.
          spans_->InstantChildOf(req.admit_span, "site_failover", "stager",
                                 "shard", static_cast<uint64_t>(req.shard),
                                 "peer", static_cast<uint64_t>(target));
        }
      }
      req.shard = target;
      batches[target].push_back(Picked{req, tenant_idx, failed_over});
      quantum--;
    }
  }
  // Dispatch each shard's batch through its elevator pipeline. The round
  // has already left the tenant FIFOs, so a failed batch does not end it:
  // its requests count as fetch errors, the remaining shards still
  // dispatch, and the first batch error is returned once the round is done.
  Status first_error;
  for (size_t s = 0; s < nshards; ++s) {
    if (batches[s].empty()) {
      continue;
    }
    // Coalesce duplicate tsegs within the batch: the backend sees each
    // segment once; every request still gets an outcome.
    std::vector<uint32_t> unique;
    std::vector<size_t> slot_of(batches[s].size());
    for (size_t i = 0; i < batches[s].size(); ++i) {
      uint32_t tseg = batches[s][i].req.tseg;
      size_t slot = unique.size();
      for (size_t u = 0; u < unique.size(); ++u) {
        if (unique[u] == tseg) {
          slot = u;
          break;
        }
      }
      if (slot == unique.size()) {
        unique.push_back(tseg);
      } else {
        stats_.coalesced++;
      }
      slot_of[i] = slot;
    }
    for (uint32_t tseg : unique) {
      if (shards_[s]->SegmentCached(tseg)) {
        stats_.cache_hits++;
      }
    }
    // The dispatch span parents the whole batch: it is a child of the first
    // request's admit root, the shard's fetch spans nest under it via the
    // shared implicit-context stack (FetchBatch is synchronous), and every
    // request's fanout leaf below references it — so a coalesced recall's
    // requests all share this one parent.
    SpanScope dispatch(spans_, batches[s][0].req.admit_span,
                       "stager_dispatch", "stager");
    dispatch.Annotate("shard", std::to_string(s));
    dispatch.Annotate("requests", std::to_string(batches[s].size()));
    dispatch.Annotate("segments", std::to_string(unique.size()));
    SimTime dispatched_at = clock_->Now();
    Result<std::vector<FetchOutcome>> outcomes =
        shards_[s]->FetchBatch(unique);
    stats_.batches_dispatched++;
    if (!outcomes.ok() && first_error.ok()) {
      first_error = outcomes.status();
    }
    for (size_t i = 0; i < batches[s].size(); ++i) {
      const Picked& picked = batches[s][i];
      const Status& status =
          outcomes.ok() ? (*outcomes)[slot_of[i]].status : outcomes.status();
      if (spans_ != nullptr) {
        SpanId fan = spans_->AddComplete("stager_fanout", "stager",
                                         dispatch.id(), dispatched_at,
                                         clock_->Now());
        spans_->Annotate(fan, "tenant", tenants_[picked.tenant].name);
        spans_->Annotate(fan, "tseg", std::to_string(picked.req.tseg));
        if (picked.failover) {
          spans_->Annotate(fan, "failover", "1");
        }
        if (!status.ok()) {
          spans_->Annotate(fan, "error", status.ToString());
        }
      }
      if (!status.ok()) {
        stats_.fetch_errors++;
        continue;
      }
      SimTime wait = dispatched_at - picked.req.submitted_at;
      queue_wait_us_.Observe(wait);
      fetch_delay_us_.Observe(wait + (*outcomes)[slot_of[i]].delay_us);
      stats_.demand_served++;
      served_[tenants_[picked.tenant].name]++;
    }
  }
  rr_tenant_ = (rr_tenant_ + 1) % ntenants;
  // Admission-priority aging: maintenance that waited through enough
  // consecutive demand rounds is promoted to run within this one, so a
  // sustained demand flood can no longer starve migration and scrub
  // forever. Strict priority (aging_rounds == 0) never promotes.
  if (!migrations_.empty() || !scrubs_.empty()) {
    starved_rounds_++;
    if (config_.aging_rounds != 0 &&
        starved_rounds_ >= config_.aging_rounds) {
      starved_rounds_ = 0;
      stats_.aging_promotions++;
      Status status = RunMaintenance();
      if (first_error.ok()) {
        first_error = status;
      }
    }
  }
  UpdateQueueGauge();
  return first_error;
}

Status StagerScheduler::RunMaintenance() {
  if (!migrations_.empty()) {
    MigrationItem item = std::move(migrations_.front());
    migrations_.pop_front();
    RETURN_IF_ERROR(shards_[item.shard]->Migrate(item.request).status());
    stats_.migration_runs++;
    return OkStatus();
  }
  ScrubItem item = scrubs_.front();
  scrubs_.pop_front();
  RETURN_IF_ERROR(shards_[item.shard]->ScrubStep(item.max_segments).status());
  stats_.scrub_steps++;
  return OkStatus();
}

Status StagerScheduler::RunUntilIdle() {
  while (PendingRequests() > 0) {
    RETURN_IF_ERROR(Pump());
  }
  return OkStatus();
}

}  // namespace hl

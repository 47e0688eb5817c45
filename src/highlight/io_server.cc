#include "highlight/io_server.h"

#include <algorithm>

#include "util/crc32.h"
#include "util/logging.h"

namespace hl {
namespace {

// Failures worth retrying: device/media errors and corrupted reads. End of
// medium, WORM refusals etc. are deterministic — retrying cannot help.
bool Retryable(const Status& s) {
  return s.code() == ErrorCode::kIoError ||
         s.code() == ErrorCode::kCorruption;
}

}  // namespace

IoServer::IoServer(BlockDevice* raw_disk, Footprint* footprint,
                   const AddressMap* amap, SimClock* clock,
                   uint32_t reserved_blocks, uint32_t seg_size_blocks)
    : raw_disk_(raw_disk),
      footprint_(footprint),
      amap_(amap),
      clock_(clock),
      reserved_blocks_(reserved_blocks),
      seg_size_blocks_(seg_size_blocks) {}

void IoServer::AttachMetrics(MetricsRegistry* registry, Tracer tracer) {
  tracer_ = tracer;
  if (registry == nullptr) {
    return;
  }
  stats_.segments_fetched.BindTo(*registry, "io.segments_fetched");
  stats_.segments_copied_out.BindTo(*registry, "io.segments_copied_out");
  stats_.bytes_fetched.BindTo(*registry, "io.bytes_fetched");
  stats_.bytes_copied_out.BindTo(*registry, "io.bytes_copied_out");
  stats_.end_of_medium_events.BindTo(*registry, "io.end_of_medium_events");
  stats_.replica_reads.BindTo(*registry, "io.replica_reads");
  stats_.retries.BindTo(*registry, "io.retries");
  stats_.retry_backoff_us.BindTo(*registry, "io.retry_backoff_us");
  stats_.failovers.BindTo(*registry, "io.failovers");
  stats_.crc_mismatches.BindTo(*registry, "io.crc_mismatches");
  stats_.crc_verified.BindTo(*registry, "io.crc_verified");
  stats_.demand_reads_enqueued.BindTo(*registry, "io.read_queue.demand_enqueued");
  stats_.prefetch_reads_enqueued.BindTo(*registry,
                                        "io.read_queue.prefetch_enqueued");
  stats_.reads_coalesced.BindTo(*registry, "io.read_queue.coalesced");
  stats_.read_mounted_picks.BindTo(*registry, "io.read_queue.mounted_picks");
  stats_.read_queue_depth.BindTo(*registry, "io.read_queue.depth");
  stats_.ops_enqueued.BindTo(*registry, "io.ops_enqueued");
  stats_.ops_issued.BindTo(*registry, "io.ops_issued");
  stats_.backpressure_stalls.BindTo(*registry, "io.backpressure_stalls");
  stats_.volume_batch_picks.BindTo(*registry, "io.volume_batch_picks");
  stats_.prefetches_scheduled.BindTo(*registry, "io.prefetches_scheduled");
  stats_.drains.BindTo(*registry, "io.drains");
  stats_.queue_stall_us.BindTo(*registry, "io.queue_stall_us");
  stats_.queue_depth.BindTo(*registry, "io.queue_depth");
  fetch_latency_us_.BindTo(*registry, "io.fetch_latency_us");
  copyout_latency_us_.BindTo(*registry, "io.copyout_latency_us");
}

std::vector<uint32_t> IoServer::SourceCandidates(uint32_t tseg) {
  std::vector<uint32_t> candidates = {tseg};
  if (replica_resolver_) {
    for (uint32_t replica : replica_resolver_(tseg)) {
      candidates.push_back(replica);
    }
  }
  // "Closest" copy first: a copy on an already-mounted volume avoids the
  // media swap; quarantined volumes sink to the end but stay in the list —
  // when every healthy copy fails they are still the last line of defense.
  auto rank = [&](uint32_t candidate) {
    const uint32_t volume = amap_->VolumeOfTseg(candidate);
    Result<bool> mounted =
        footprint_->VolumeMounted(static_cast<int>(volume));
    int r = (mounted.ok() && *mounted) ? 0 : 1;
    if (health_ != nullptr &&
        health_->VolumeState(volume) == HealthState::kQuarantined) {
      r += 2;
    }
    return r;
  };
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](uint32_t a, uint32_t b) { return rank(a) < rank(b); });
  return candidates;
}

uint32_t IoServer::PickSource(uint32_t tseg) {
  uint32_t source = SourceCandidates(tseg).front();
  if (source != tseg) {
    stats_.replica_reads++;
  }
  return source;
}

Status IoServer::RetrySync(uint32_t tseg, uint32_t volume,
                           const std::function<Status()>& attempt) {
  Status s = OkStatus();
  for (int try_no = 1; try_no <= retry_.max_attempts; ++try_no) {
    SpanScope retry;  // Covers backoff + re-attempt from the second try on.
    if (try_no > 1) {
      const SimTime backoff = retry_.BackoffFor(try_no - 1);
      retry = SpanScope(spans_, "retry", "io");
      retry.Annotate("tseg", std::to_string(tseg));
      retry.Annotate("attempt", std::to_string(try_no - 1));
      retry.Annotate("backoff_us", std::to_string(backoff));
      stats_.retries++;
      stats_.retry_backoff_us += backoff;
      tracer_.Record(TraceEvent::kRetry, tseg,
                     static_cast<uint64_t>(try_no - 1));
      clock_->Advance(backoff);
    }
    s = attempt();
    if (health_ != nullptr) {
      if (s.ok()) {
        health_->RecordVolumeSuccess(volume);
      } else if (Retryable(s)) {
        health_->RecordVolumeFailure(volume);
      }
    }
    if (s.ok() || !Retryable(s)) {
      return s;
    }
  }
  return s;
}

std::shared_ptr<std::vector<uint8_t>> IoServer::TransferImage() {
  if (transfer_image_ == nullptr || transfer_image_.use_count() > 1) {
    transfer_image_ = std::make_shared<std::vector<uint8_t>>(amap_->SegBytes());
  }
  return transfer_image_;
}

std::span<uint8_t> IoServer::FetchTarget(
    uint32_t disk_seg, std::shared_ptr<std::vector<uint8_t>>* image) {
  if (disk_seg != kNoSegment) {
    std::span<uint8_t> line =
        raw_disk_->InPlaceBytes(DiskSegFirstBlock(disk_seg), seg_size_blocks_);
    if (!line.empty()) {
      return line;
    }
  }
  if (*image == nullptr) {
    *image = TransferImage();
  }
  return std::span<uint8_t>(**image);
}

Status IoServer::VerifyCrc(uint32_t source, uint32_t crc, uint32_t volume) {
  uint32_t expect = 0;
  if (!crc_lookup_ || !crc_lookup_(source, &expect)) {
    return OkStatus();
  }
  if (crc == expect) {
    stats_.crc_verified++;
    return OkStatus();
  }
  stats_.crc_mismatches++;
  tracer_.Record(TraceEvent::kCrcMismatch, source, volume);
  return Corruption("tseg " + std::to_string(source) +
                    ": CRC mismatch on fetched image");
}

Status IoServer::ReadTertiaryCopy(uint32_t source, std::span<uint8_t> buf) {
  const uint32_t volume = amap_->VolumeOfTseg(source);
  const uint64_t offset = amap_->ByteOffsetOnVolume(source);
  return RetrySync(source, volume, [&]() {
    SimTime t0 = clock_->Now();
    uint32_t crc = 0;
    Status s = footprint_->Read(static_cast<int>(volume), offset, buf, &crc);
    phases_.Add(phase_footprint_, clock_->Now() - t0);
    if (s.ok()) {
      s = VerifyCrc(source, crc, volume);
    }
    return s;
  });
}

Status IoServer::FetchSegment(uint32_t tseg, uint32_t disk_seg) {
  const uint64_t seg_bytes = amap_->SegBytes();
  std::shared_ptr<std::vector<uint8_t>> image;
  std::span<uint8_t> buf = FetchTarget(disk_seg, &image);

  SpanScope fetch(spans_, "fetch", "io");
  fetch.Annotate("tseg", std::to_string(tseg));
  const SimTime fetch_start = clock_->Now();
  std::vector<uint32_t> candidates = SourceCandidates(tseg);
  uint32_t served_from = tseg;
  Status last =
      IoError("tseg " + std::to_string(tseg) + ": no tertiary copy");
  bool got = false;
  for (size_t i = 0; i < candidates.size(); ++i) {
    SpanScope failover;  // Each extra source tried is a failover child.
    if (i > 0) {
      stats_.failovers++;
      tracer_.Record(TraceEvent::kFailover, tseg, candidates[i]);
      failover = SpanScope(spans_, "failover", "io");
      failover.Annotate("source", std::to_string(candidates[i]));
    }
    last = ReadTertiaryCopy(candidates[i], buf);
    if (last.ok()) {
      served_from = candidates[i];
      got = true;
      break;
    }
  }
  if (!got) {
    return last;
  }
  if (served_from != tseg) {
    stats_.replica_reads++;
    fetch.Annotate("served_from", std::to_string(served_from));
  }

  // The paper's extra-copies path: a memory copy (charged; on the host the
  // image already sits in the line unless the line could not be lent) and a
  // raw write to the cache line.
  SpanScope install(spans_, "install", "io");
  install.Annotate("disk_seg", std::to_string(disk_seg));
  SimTime copy = cpu_copy_us_per_mb_ * seg_bytes / (1024 * 1024);
  clock_->Advance(copy);
  SimTime t0 = clock_->Now();
  RETURN_IF_ERROR(raw_disk_->WriteBlocks(DiskSegFirstBlock(disk_seg),
                                         seg_size_blocks_, buf));
  phases_.Add(phase_ioserver_, clock_->Now() - t0 + copy);
  install = SpanScope();  // Close before the fetch-level bookkeeping.

  stats_.segments_fetched++;
  stats_.bytes_fetched += seg_bytes;
  fetch_latency_us_.Observe(clock_->Now() - fetch_start);
  tracer_.Record(TraceEvent::kSegFetch, tseg, disk_seg);
  return OkStatus();
}

Status IoServer::CopyOutSegment(uint32_t tseg, uint32_t disk_seg) {
  const uint64_t seg_bytes = amap_->SegBytes();
  const std::shared_ptr<std::vector<uint8_t>> image = TransferImage();
  std::span<uint8_t> buf(*image);

  SpanScope span(spans_, "copyout", "io");
  span.Annotate("tseg", std::to_string(tseg));
  SimTime t0 = clock_->Now();
  RETURN_IF_ERROR(raw_disk_->ReadBlocks(DiskSegFirstBlock(disk_seg),
                                        seg_size_blocks_, buf));
  SimTime copy = cpu_copy_us_per_mb_ * seg_bytes / (1024 * 1024);
  clock_->Advance(copy);
  phases_.Add(phase_ioserver_, clock_->Now() - t0);

  uint32_t volume = amap_->VolumeOfTseg(tseg);
  uint64_t offset = amap_->ByteOffsetOnVolume(tseg);
  Status write = RetrySync(tseg, volume, [&]() {
    SimTime w0 = clock_->Now();
    Status s = footprint_->Write(volume, offset, buf);
    phases_.Add(phase_footprint_, clock_->Now() - w0);
    return s;
  });
  if (write.code() == ErrorCode::kEndOfMedium) {
    stats_.end_of_medium_events++;
    tracer_.Record(TraceEvent::kEndOfMedium, tseg, volume);
    return write;
  }
  RETURN_IF_ERROR(write);
  if (crc_store_) {
    crc_store_(tseg, Crc32(buf));
  }

  stats_.segments_copied_out++;
  stats_.bytes_copied_out += seg_bytes;
  tracer_.Record(TraceEvent::kCopyOut, tseg, disk_seg);
  return OkStatus();
}

Status IoServer::EnqueueCopyOut(uint32_t tseg, uint32_t disk_seg,
                                Completion done) {
  return Enqueue(PendingOp{OpKind::kCopyOut, tseg, disk_seg, std::move(done)});
}

Status IoServer::EnqueueReplicaWrite(uint32_t tseg, uint32_t disk_seg,
                                     Completion done) {
  return Enqueue(
      PendingOp{OpKind::kReplicaWrite, tseg, disk_seg, std::move(done)});
}

Status IoServer::Enqueue(PendingOp op) {
  if (spans_ != nullptr) {
    op.ctx = spans_->Capture();
  }
  op.seq = next_seq_++;
  op.enqueued_at = clock_->Now();
  queue_.push_back(std::move(op));
  stats_.ops_enqueued++;
  stats_.queue_depth.Set(static_cast<int64_t>(queue_.size()));
  return TryIssue();
}

void IoServer::set_max_queue_depth(size_t depth) {
  // Clamp: with a zero-op window nothing could ever issue, so a Drain()
  // after the shrink would spin forever waiting for room that cannot open.
  max_queue_depth_ = std::max<size_t>(1, depth);
}

void IoServer::ReapOutstanding() {
  while (!outstanding_.empty() && *outstanding_.begin() <= clock_->Now()) {
    outstanding_.erase(outstanding_.begin());
  }
}

bool IoServer::WindowHasRoom() {
  ReapOutstanding();
  return outstanding_.size() < max_queue_depth_;
}

Status IoServer::TryIssue() {
  // Hand ops to the devices while they have room; leftover ops stay queued
  // (that is the write-behind). Beyond the bound, the caller genuinely
  // stalls: advance the clock to the oldest outstanding completion and
  // retry — this is the migrator waiting for the tertiary device. Only
  // write-class ops count toward the bound: queued reads stall their own
  // waiter in EnsureReadIssued, never the enqueuer.
  while (WindowHasRoom() && PickIndex() < queue_.size()) {
    RETURN_IF_ERROR(IssueNext());
  }
  while (WriteQueueCount() > max_queue_depth_) {
    if (outstanding_.empty()) {
      RETURN_IF_ERROR(IssueNext());
      continue;
    }
    stats_.backpressure_stalls++;
    const SimTime oldest = *outstanding_.begin();
    const SimTime stall =
        oldest > clock_->Now() ? oldest - clock_->Now() : 0;
    stats_.queue_stall_us += stall;
    tracer_.Record(TraceEvent::kQueueStall, queue_.size(), stall);
    clock_->AdvanceTo(oldest);
    while (WindowHasRoom() && PickIndex() < queue_.size()) {
      RETURN_IF_ERROR(IssueNext());
    }
  }
  return OkStatus();
}

size_t IoServer::FirstEligibleIndex() const {
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (!(reads_held_ && IsReadOp(queue_[i].kind))) {
      return i;
    }
  }
  return queue_.size();
}

size_t IoServer::PickIndex() {
  if (!async_reads_) {
    // Legacy write-behind pick (no read ops exist on this path): an op
    // whose target volume is already in a drive beats older ops that would
    // force a media swap.
    if (queue_.empty()) {
      return queue_.size();
    }
    for (size_t i = 0; i < queue_.size(); ++i) {
      Result<bool> mounted = footprint_->VolumeMounted(
          static_cast<int>(amap_->VolumeOfTseg(queue_[i].tseg)));
      if (mounted.ok() && *mounted) {
        return i;
      }
    }
    return 0;
  }
  // Async rank: class (demand < write < prefetch) first — demand faults
  // block a user process, prefetches are speculative — then mounted volume
  // (ride the seated medium before paying a swap), then an upward elevator
  // over volume numbers from the last read's volume, then FIFO.
  size_t best = queue_.size();
  uint64_t best_key[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < queue_.size(); ++i) {
    const PendingOp& op = queue_[i];
    if (reads_held_ && IsReadOp(op.kind)) {
      continue;
    }
    const uint64_t cls = op.kind == OpKind::kDemandRead ? 0
                         : IsReadOp(op.kind)            ? 2
                                                        : 1;
    const uint32_t vol = amap_->VolumeOfTseg(op.tseg);
    Result<bool> m = footprint_->VolumeMounted(static_cast<int>(vol));
    const uint64_t unmounted = (m.ok() && *m) ? 0 : 1;
    const uint64_t sweep = vol >= last_read_volume_
                               ? vol - last_read_volume_
                               : (uint64_t{1} << 32) + vol - last_read_volume_;
    const uint64_t key[4] = {cls, unmounted, sweep, op.seq};
    if (best >= queue_.size() ||
        std::lexicographical_compare(key, key + 4, best_key, best_key + 4)) {
      best = i;
      best_key[0] = key[0];
      best_key[1] = key[1];
      best_key[2] = key[2];
      best_key[3] = key[3];
    }
  }
  return best;
}

Status IoServer::IssueNext() {
  const size_t pick = PickIndex();
  if (pick >= queue_.size()) {
    return OkStatus();
  }
  if (!async_reads_) {
    if (pick != 0) {
      stats_.volume_batch_picks++;
    }
  } else {
    const PendingOp& op = queue_[pick];
    Result<bool> m = footprint_->VolumeMounted(
        static_cast<int>(amap_->VolumeOfTseg(op.tseg)));
    const bool mounted = m.ok() && *m;
    if (mounted && pick != FirstEligibleIndex()) {
      stats_.volume_batch_picks++;
    }
    if (mounted && IsReadOp(op.kind)) {
      stats_.read_mounted_picks++;
    }
  }
  return IssueAt(pick);
}

Status IoServer::IssueAt(size_t pick) {
  PendingOp op = std::move(queue_[pick]);
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(pick));
  stats_.queue_depth.Set(static_cast<int64_t>(queue_.size()));
  if (IsReadOp(op.kind)) {
    stats_.read_queue_depth.Set(static_cast<int64_t>(ReadQueueCount()));
    return IssueRead(op);
  }
  return IssueOne(op);
}

Status IoServer::Deliver(PendingOp& op, const Status& s) {
  if (op.done) {
    Completion done = std::move(op.done);
    done(s);
    return OkStatus();  // The callback owns the error now.
  }
  return s;
}

Status IoServer::IssueOne(PendingOp& op) {
  stats_.ops_issued++;
  const uint64_t seg_bytes = amap_->SegBytes();
  const std::shared_ptr<std::vector<uint8_t>> image = TransferImage();
  std::span<uint8_t> buf(*image);

  // The issue-time span is a child of the *enqueue-time* context, not of
  // whatever span happens to be open now (often a later drain): causality
  // follows the queued request across the asynchronous hand-off.
  SpanScope issue(spans_, op.ctx.span,
                  op.kind == OpKind::kReplicaWrite ? "issue_replica_write"
                                                   : "issue_copyout",
                  "io");
  issue.Annotate("tseg", std::to_string(op.tseg));

  // The staging-line read and memory copy still run synchronously — they
  // contend for the disk arm (the reason delayed copy-out exists at all).
  const SimTime issue_start = clock_->Now();
  SimTime t0 = clock_->Now();
  Status read = raw_disk_->ReadBlocks(DiskSegFirstBlock(op.disk_seg),
                                      seg_size_blocks_, buf);
  if (!read.ok()) {
    return Deliver(op, read);
  }
  SimTime copy = cpu_copy_us_per_mb_ * seg_bytes / (1024 * 1024);
  clock_->Advance(copy);
  phases_.Add(phase_ioserver_, clock_->Now() - t0);

  // The tertiary write is scheduled, not waited for: data moves to the
  // medium now, device time completes at *end. End-of-medium (and any other
  // write error) therefore surfaces here, at completion-callback time.
  uint32_t volume = amap_->VolumeOfTseg(op.tseg);
  uint64_t offset = amap_->ByteOffsetOnVolume(op.tseg);
  t0 = clock_->Now();
  SimTime earliest = clock_->Now();
  Result<SimTime> end = footprint_->ScheduleWrite(
      earliest, static_cast<int>(volume), offset, buf);
  // Pipeline retries delay the reissued op's start instead of stalling the
  // caller: the device sits out the backoff, the migrator keeps staging.
  for (int try_no = 1;
       !end.ok() && Retryable(end.status()) && try_no < retry_.max_attempts;
       ++try_no) {
    if (health_ != nullptr) {
      health_->RecordVolumeFailure(volume);
    }
    const SimTime backoff = retry_.BackoffFor(try_no);
    stats_.retries++;
    stats_.retry_backoff_us += backoff;
    tracer_.Record(TraceEvent::kRetry, op.tseg,
                   static_cast<uint64_t>(try_no));
    if (spans_ != nullptr) {
      // The backoff happens in the device's future, not on the caller's
      // clock — record it as a pre-timed span on the issue branch.
      spans_->AddComplete("retry", "io", issue.id(), earliest,
                          earliest + backoff);
    }
    earliest += backoff;
    end = footprint_->ScheduleWrite(earliest, static_cast<int>(volume),
                                    offset, buf);
  }
  if (!end.ok()) {
    if (end.status().code() == ErrorCode::kEndOfMedium) {
      stats_.end_of_medium_events++;
      tracer_.Record(TraceEvent::kEndOfMedium, op.tseg, volume);
    } else if (health_ != nullptr && Retryable(end.status())) {
      health_->RecordVolumeFailure(volume);
    }
    return Deliver(op, end.status());
  }
  if (health_ != nullptr) {
    health_->RecordVolumeSuccess(volume);
  }
  if (crc_store_) {
    crc_store_(op.tseg, Crc32(buf));
  }
  if (spans_ != nullptr) {
    spans_->AddComplete("tertiary_write", "tertiary", issue.id(), earliest,
                        *end);
  }
  phases_.Add(phase_footprint_, *end - t0);
  outstanding_.insert(*end);
  pipeline_busy_until_ = std::max(pipeline_busy_until_, *end);
  stats_.segments_copied_out++;
  stats_.bytes_copied_out += seg_bytes;
  copyout_latency_us_.Observe(*end - issue_start);
  tracer_.Record(op.kind == OpKind::kReplicaWrite ? TraceEvent::kReplicaWrite
                                                  : TraceEvent::kCopyOut,
                 op.tseg, op.disk_seg);
  return Deliver(op, OkStatus());
}

Status IoServer::Drain() {
  stats_.drains++;
  SpanScope span(spans_, "drain", "io");
  // A drain is a completion barrier: holding reads across it would wedge
  // the loop below, and makes no sense anyway — release the batch window.
  reads_held_ = false;
  Status first = OkStatus();
  while (!queue_.empty()) {
    Status s = IssueNext();  // Callbacks may enqueue more; loop re-checks.
    if (first.ok() && !s.ok()) {
      first = s;
    }
  }
  RETURN_IF_ERROR(first);
  if (pipeline_busy_until_ > clock_->Now()) {
    clock_->AdvanceTo(pipeline_busy_until_);
  }
  ReapOutstanding();
  return OkStatus();
}

size_t IoServer::Outstanding() const {
  size_t n = 0;
  for (SimTime t : outstanding_) {
    if (t > clock_->Now()) {
      ++n;
    }
  }
  return n;
}

Status IoServer::SchedulePrefetch(uint32_t tseg, std::span<uint8_t> buf,
                                  PrefetchDone done) {
  SpanScope span(spans_, "prefetch_read", "io");
  span.Annotate("tseg", std::to_string(tseg));
  uint32_t source = PickSource(tseg);
  uint32_t volume = amap_->VolumeOfTseg(source);
  uint64_t offset = amap_->ByteOffsetOnVolume(source);
  SimTime t0 = clock_->Now();
  uint32_t read_crc = 0;
  Result<SimTime> end = footprint_->ScheduleRead(
      clock_->Now(), static_cast<int>(volume), offset, buf, &read_crc);
  if (!end.ok()) {
    if (done) {
      done(end.status(), 0);
    }
    return end.status();
  }
  // The data moved synchronously even though device time completes later,
  // so the image can be verified now; a corrupted prefetch is dropped here
  // rather than poisoning a cache line at install time.
  Status crc = VerifyCrc(source, read_crc, volume);
  if (!crc.ok()) {
    if (health_ != nullptr) {
      health_->RecordVolumeFailure(volume);
    }
    if (done) {
      done(crc, 0);
    }
    return crc;
  }
  if (spans_ != nullptr) {
    spans_->AddComplete("tertiary_read", "tertiary", span.id(), t0, *end);
  }
  phases_.Add(phase_footprint_, *end - t0);
  stats_.prefetches_scheduled++;
  tracer_.Record(TraceEvent::kPrefetch, tseg, *end - t0);
  if (done) {
    done(OkStatus(), *end);
  }
  return OkStatus();
}

Status IoServer::InstallSegment(uint32_t disk_seg,
                                std::span<const uint8_t> bytes) {
  SpanScope span(spans_, "install", "io");
  span.Annotate("disk_seg", std::to_string(disk_seg));
  const uint64_t seg_bytes = amap_->SegBytes();
  SimTime copy = cpu_copy_us_per_mb_ * seg_bytes / (1024 * 1024);
  clock_->Advance(copy);
  SimTime t0 = clock_->Now();
  RETURN_IF_ERROR(raw_disk_->WriteBlocks(DiskSegFirstBlock(disk_seg),
                                         seg_size_blocks_, bytes));
  phases_.Add(phase_ioserver_, clock_->Now() - t0 + copy);
  stats_.segments_fetched++;
  stats_.bytes_fetched += seg_bytes;
  return OkStatus();
}

// --- Asynchronous read pipeline ---------------------------------------------

size_t IoServer::FindQueuedRead(uint32_t tseg) const {
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (IsReadOp(queue_[i].kind) && queue_[i].tseg == tseg) {
      return i;
    }
  }
  return queue_.size();
}

size_t IoServer::ReadQueueCount() const {
  size_t n = 0;
  for (const PendingOp& op : queue_) {
    if (IsReadOp(op.kind)) {
      ++n;
    }
  }
  return n;
}

size_t IoServer::WriteQueueCount() const {
  return queue_.size() - ReadQueueCount();
}

bool IoServer::ReadQueued(uint32_t tseg) const {
  return FindQueuedRead(tseg) < queue_.size();
}

Status IoServer::EnqueueRead(PendingOp op) {
  if (spans_ != nullptr) {
    op.ctx = spans_->Capture();
  }
  op.seq = next_seq_++;
  op.enqueued_at = clock_->Now();
  const bool lazy = op.kind == OpKind::kPrefetchRead;
  queue_.push_back(std::move(op));
  stats_.ops_enqueued++;
  stats_.queue_depth.Set(static_cast<int64_t>(queue_.size()));
  stats_.read_queue_depth.Set(static_cast<int64_t>(ReadQueueCount()));
  // Prefetch-class reads are lazy: they sit in the queue until a demand
  // issue or drain sweeps them up — that is what lets a whole run of
  // read-aheads ride one mounted volume. Demand reads push the pipeline now.
  if (reads_held_ || lazy) {
    return OkStatus();
  }
  return TryIssue();
}

Status IoServer::EnqueueDemandRead(uint32_t tseg, uint32_t install_seg,
                                   ReadDone done) {
  if (!async_reads_) {
    return Internal("demand-read queue requires async_read_pipeline");
  }
  const size_t idx = FindQueuedRead(tseg);
  if (idx < queue_.size()) {
    // Coalesce: a queued read (usually a not-yet-issued read-ahead) is
    // promoted to demand class and gains this waiter; one transfer serves
    // everyone.
    PendingOp& op = queue_[idx];
    op.kind = OpKind::kDemandRead;
    if (op.disk_seg == kNoSegment) {
      op.disk_seg = install_seg;
    }
    op.readers.push_back(std::move(done));
    stats_.reads_coalesced++;
    tracer_.Record(TraceEvent::kReadCoalesce, tseg, op.readers.size());
    return reads_held_ ? OkStatus() : TryIssue();
  }
  PendingOp op;
  op.kind = OpKind::kDemandRead;
  op.tseg = tseg;
  op.disk_seg = install_seg;
  op.readers.push_back(std::move(done));
  stats_.demand_reads_enqueued++;
  return EnqueueRead(std::move(op));
}

Status IoServer::EnqueuePrefetchRead(uint32_t tseg, uint32_t install_seg,
                                     std::shared_ptr<std::vector<uint8_t>> image,
                                     ReadDone done) {
  if (!async_reads_) {
    return Internal("prefetch-read queue requires async_read_pipeline");
  }
  const size_t idx = FindQueuedRead(tseg);
  if (idx < queue_.size()) {
    // Already on its way (whatever the class): ride the queued transfer.
    queue_[idx].readers.push_back(std::move(done));
    stats_.reads_coalesced++;
    tracer_.Record(TraceEvent::kReadCoalesce, tseg,
                   queue_[idx].readers.size());
    return OkStatus();
  }
  PendingOp op;
  op.kind = OpKind::kPrefetchRead;
  op.tseg = tseg;
  op.disk_seg = install_seg;
  op.image = std::move(image);
  op.readers.push_back(std::move(done));
  stats_.prefetch_reads_enqueued++;
  return EnqueueRead(std::move(op));
}

Status IoServer::EnsureReadIssued(uint32_t tseg) {
  while (true) {
    const size_t idx = FindQueuedRead(tseg);
    if (idx >= queue_.size()) {
      return OkStatus();
    }
    if (WindowHasRoom()) {
      // Issue in policy order until this tseg's op leaves the queue: the
      // elevator keeps its sweep even when one waiter pulls the pipeline.
      if (PickIndex() >= queue_.size()) {
        // Reads are held; serve the waiter directly rather than deadlock.
        RETURN_IF_ERROR(IssueAt(idx));
      } else {
        RETURN_IF_ERROR(IssueNext());
      }
      continue;
    }
    stats_.backpressure_stalls++;
    const SimTime oldest = *outstanding_.begin();
    const SimTime stall = oldest > clock_->Now() ? oldest - clock_->Now() : 0;
    stats_.queue_stall_us += stall;
    tracer_.Record(TraceEvent::kQueueStall, queue_.size(), stall);
    clock_->AdvanceTo(oldest);
  }
}

Status IoServer::ReleaseReads() {
  reads_held_ = false;
  return TryIssue();
}

bool IoServer::CancelQueuedRead(uint32_t tseg, const Status& status) {
  const size_t idx = FindQueuedRead(tseg);
  if (idx >= queue_.size()) {
    return false;
  }
  PendingOp op = std::move(queue_[idx]);
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(idx));
  stats_.queue_depth.Set(static_cast<int64_t>(queue_.size()));
  stats_.read_queue_depth.Set(static_cast<int64_t>(ReadQueueCount()));
  (void)DeliverRead(op, status, 0);
  return true;
}

size_t IoServer::CancelQueuedPrefetchReads() {
  size_t dropped = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->kind == OpKind::kPrefetchRead) {
      PendingOp op = std::move(*it);
      it = queue_.erase(it);
      (void)DeliverRead(
          op, Status(ErrorCode::kBusy, "queued prefetch read cancelled"), 0);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) {
    stats_.queue_depth.Set(static_cast<int64_t>(queue_.size()));
    stats_.read_queue_depth.Set(static_cast<int64_t>(ReadQueueCount()));
  }
  return dropped;
}

Status IoServer::DeliverRead(PendingOp& op, const Status& s,
                             SimTime ready_at) {
  if (op.readers.empty()) {
    return s;
  }
  std::vector<ReadDone> readers = std::move(op.readers);
  for (ReadDone& done : readers) {
    if (done) {
      done(s, ready_at);
    }
  }
  return OkStatus();  // The callbacks own the error now.
}

Status IoServer::ScheduleTertiaryCopy(uint32_t source, std::span<uint8_t> buf,
                                      uint64_t parent_span,
                                      SimTime* end_out) {
  const uint32_t volume = amap_->VolumeOfTseg(source);
  const uint64_t offset = amap_->ByteOffsetOnVolume(source);
  const SimTime t0 = clock_->Now();
  SimTime earliest = t0;
  Status s = OkStatus();
  for (int try_no = 1; try_no <= retry_.max_attempts; ++try_no) {
    if (try_no > 1) {
      // Pipeline retries delay the reissued transfer's start instead of
      // stalling the caller (mirrors the write-behind retry model).
      const SimTime backoff = retry_.BackoffFor(try_no - 1);
      stats_.retries++;
      stats_.retry_backoff_us += backoff;
      tracer_.Record(TraceEvent::kRetry, source,
                     static_cast<uint64_t>(try_no - 1));
      if (spans_ != nullptr) {
        spans_->AddComplete("retry", "io", parent_span, earliest,
                            earliest + backoff);
      }
      earliest += backoff;
    }
    uint32_t crc = 0;
    Result<SimTime> end = footprint_->ScheduleRead(
        earliest, static_cast<int>(volume), offset, buf, &crc);
    // Data moves synchronously even though device time completes later, so
    // the image can be CRC-checked now; a corrupt read retries like an I/O
    // error.
    s = end.ok() ? VerifyCrc(source, crc, volume) : end.status();
    if (health_ != nullptr) {
      if (s.ok()) {
        health_->RecordVolumeSuccess(volume);
      } else if (Retryable(s)) {
        health_->RecordVolumeFailure(volume);
      }
    }
    if (s.ok()) {
      if (spans_ != nullptr) {
        spans_->AddComplete("tertiary_read", "tertiary", parent_span, t0,
                            *end);
      }
      phases_.Add(phase_footprint_, *end - t0);
      *end_out = *end;
      return s;
    }
    if (!Retryable(s)) {
      return s;
    }
  }
  return s;
}

Status IoServer::IssueRead(PendingOp& op) {
  stats_.ops_issued++;
  const uint64_t seg_bytes = amap_->SegBytes();
  const std::span<uint8_t> buf = FetchTarget(op.disk_seg, &op.image);
  const bool demand = op.kind == OpKind::kDemandRead;

  SpanScope issue(spans_, op.ctx.span,
                  demand ? "issue_demand_read" : "issue_prefetch_read", "io");
  issue.Annotate("tseg", std::to_string(op.tseg));

  const SimTime issue_start = clock_->Now();
  std::vector<uint32_t> candidates = SourceCandidates(op.tseg);
  Status last =
      IoError("tseg " + std::to_string(op.tseg) + ": no tertiary copy");
  uint32_t served_from = op.tseg;
  SimTime end_time = 0;
  bool got = false;
  for (size_t i = 0; i < candidates.size(); ++i) {
    SpanScope failover;  // Each extra source tried is a failover child.
    if (i > 0) {
      stats_.failovers++;
      tracer_.Record(TraceEvent::kFailover, op.tseg, candidates[i]);
      failover = SpanScope(spans_, "failover", "io");
      failover.Annotate("source", std::to_string(candidates[i]));
    }
    last = ScheduleTertiaryCopy(candidates[i], buf, issue.id(), &end_time);
    if (last.ok()) {
      served_from = candidates[i];
      got = true;
      break;
    }
  }
  if (!got) {
    return DeliverRead(op, last, 0);
  }
  if (served_from != op.tseg) {
    stats_.replica_reads++;
    issue.Annotate("served_from", std::to_string(served_from));
  }

  SimTime ready = end_time;
  if (op.disk_seg != kNoSegment) {
    // Install into the cache line now: the paper's extra-copies path, a
    // memory copy (charged; on the host the image already sits in the line
    // unless the line could not be lent) and a raw disk write. The line is
    // usable once both the disk write and the tertiary transfer completed.
    SpanScope install(spans_, "install", "io");
    install.Annotate("disk_seg", std::to_string(op.disk_seg));
    const SimTime copy = cpu_copy_us_per_mb_ * seg_bytes / (1024 * 1024);
    clock_->Advance(copy);
    const SimTime t0 = clock_->Now();
    Status wrote = raw_disk_->WriteBlocks(DiskSegFirstBlock(op.disk_seg),
                                          seg_size_blocks_, buf);
    if (!wrote.ok()) {
      return DeliverRead(op, wrote, 0);
    }
    phases_.Add(phase_ioserver_, clock_->Now() - t0 + copy);
    ready = std::max(ready, clock_->Now());
    stats_.segments_fetched++;
    stats_.bytes_fetched += seg_bytes;
    tracer_.Record(TraceEvent::kSegFetch, op.tseg, op.disk_seg);
  }
  outstanding_.insert(end_time);
  pipeline_busy_until_ = std::max(pipeline_busy_until_, end_time);
  last_read_volume_ = amap_->VolumeOfTseg(served_from);
  if (demand) {
    fetch_latency_us_.Observe(ready - op.enqueued_at);
  } else {
    stats_.prefetches_scheduled++;
    tracer_.Record(TraceEvent::kPrefetch, op.tseg, end_time - issue_start);
  }
  return DeliverRead(op, OkStatus(), ready);
}

std::vector<IoServer::QueuedOpView> IoServer::PendingOps() const {
  std::vector<QueuedOpView> out;
  out.reserve(queue_.size());
  for (const PendingOp& op : queue_) {
    const char* kind = "copyout";
    switch (op.kind) {
      case OpKind::kCopyOut:
        kind = "copyout";
        break;
      case OpKind::kReplicaWrite:
        kind = "replica_write";
        break;
      case OpKind::kDemandRead:
        kind = "demand_read";
        break;
      case OpKind::kPrefetchRead:
        kind = "prefetch_read";
        break;
    }
    out.push_back(QueuedOpView{kind, op.tseg, op.disk_seg,
                               amap_->VolumeOfTseg(op.tseg)});
  }
  return out;
}

}  // namespace hl

#include "highlight/io_server.h"

#include <algorithm>
#include <array>

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

void IoServer::AttachMetrics(MetricsRegistry* registry) {
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
    int r = VolumeMounted(volume) ? 0 : 1;
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

bool IoServer::VolumeMounted(uint32_t volume) const {
  Result<bool> mounted = footprint_->VolumeMounted(static_cast<int>(volume));
  return mounted.ok() && *mounted;
}

SimTime IoServer::CopyTime() const {
  return kCpuCopyUsPerMb * amap_->SegBytes() / (1024 * 1024);
}

void IoServer::ReportHealth(uint32_t volume, const Status& s) {
  if (health_ == nullptr) {
    return;
  }
  if (s.ok()) {
    health_->RecordVolumeSuccess(volume);
  } else if (Retryable(s)) {
    health_->RecordVolumeFailure(volume);
  }
}

Status IoServer::RetrySync(uint32_t tseg, uint32_t volume,
                           const std::function<Status()>& attempt) {
  Status s = OkStatus();
  for (int try_no = 1; try_no <= retry_.max_attempts; ++try_no) {
    SpanScope retry;  // Covers backoff + re-attempt from the second try on.
    if (try_no > 1) {
      const SimTime backoff = retry_.BackoffFor(try_no - 1);
      retry = SpanScope(spans_, "retry", "io");
      retry.Annotate("tseg", tseg);
      retry.Annotate("attempt", try_no - 1);
      retry.Annotate("backoff_us", backoff);
      stats_.retries++;
      stats_.retry_backoff_us += backoff;
      clock_->Advance(backoff);
    }
    s = attempt();
    ReportHealth(volume, s);
    if (s.ok() || !Retryable(s)) {
      return s;
    }
  }
  return s;
}

Result<SimTime> IoServer::ScheduleWithRetry(
    uint32_t tseg, uint32_t volume, const char* span, SpanId parent,
    const std::function<Result<SimTime>(SimTime earliest)>& attempt) {
  const SimTime t0 = clock_->Now();
  SimTime earliest = t0;
  for (int try_no = 1;; ++try_no) {
    Result<SimTime> end = attempt(earliest);
    ReportHealth(volume, end.status());
    if (end.ok()) {
      if (spans_ != nullptr) {
        spans_->AddComplete(span, "tertiary", parent, earliest, *end);
      }
      phases_.Add(phase_footprint_, *end - t0);
      return end;
    }
    if (!Retryable(end.status()) || try_no >= retry_.max_attempts) {
      return end;
    }
    const SimTime backoff = retry_.BackoffFor(try_no);
    stats_.retries++;
    stats_.retry_backoff_us += backoff;
    if (spans_ != nullptr) {
      // The backoff happens in the device's future, not on the caller's
      // clock: record it as a pre-timed span on the issuing op's branch.
      const SpanId retry =
          spans_->AddComplete("retry", "io", parent, earliest,
                              earliest + backoff);
      spans_->Annotate(retry, "tseg", tseg);
      spans_->Annotate(retry, "attempt", try_no);
    }
    earliest += backoff;
  }
}

Result<SimTime> IoServer::ScheduleSourceRead(SimTime earliest,
                                             uint32_t source,
                                             std::vector<ChunkRef>* image,
                                             uint32_t* crc) {
  return footprint_->ScheduleRead(
      earliest, static_cast<int>(amap_->VolumeOfTseg(source)),
      amap_->ByteOffsetOnVolume(source), amap_->SegBytes(), image, crc);
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
  RecordInstant(spans_, "crc_mismatch", "io", "tseg", source, "volume",
                volume);
  return Corruption("tseg " + std::to_string(source) +
                    ": CRC mismatch on fetched image");
}

Status IoServer::ReadTertiaryCopy(uint32_t source,
                                  std::vector<ChunkRef>* image) {
  const uint32_t volume = amap_->VolumeOfTseg(source);
  return RetrySync(source, volume, [&]() {
    SimTime t0 = clock_->Now();
    uint32_t crc = 0;
    Result<SimTime> end = ScheduleSourceRead(t0, source, image, &crc);
    if (end.ok()) {
      clock_->AdvanceTo(*end);
    }
    phases_.Add(phase_footprint_, clock_->Now() - t0);
    return end.ok() ? VerifyCrc(source, crc, volume) : end.status();
  });
}

Status IoServer::InstallFetched(uint32_t tseg, uint32_t disk_seg,
                                std::span<const ChunkRef> image) {
  const uint64_t seg_bytes = amap_->SegBytes();
  SpanScope install(spans_, "install", "io");
  install.Annotate("tseg", tseg);
  install.Annotate("disk_seg", disk_seg);
  const SimTime copy = CopyTime();
  clock_->Advance(copy);
  const SimTime t0 = clock_->Now();
  RETURN_IF_ERROR(raw_disk_->WriteShared(DiskSegFirstBlock(disk_seg),
                                         seg_size_blocks_, image));
  phases_.Add(phase_ioserver_, clock_->Now() - t0 + copy);
  stats_.segments_fetched++;
  stats_.bytes_fetched += seg_bytes;
  return OkStatus();
}

Result<uint32_t> IoServer::ReadClosestCopy(
    uint32_t tseg, SpanId span,
    const std::function<Status(uint32_t source)>& read_copy) {
  // The candidates always hold the primary, so at least one read runs and
  // `last` is the outcome of the last source tried.
  std::vector<uint32_t> candidates = SourceCandidates(tseg);
  Status last;
  uint32_t served_from = tseg;
  for (size_t i = 0; i < candidates.size(); ++i) {
    SpanScope failover;  // Each extra source tried is a failover child.
    if (i > 0) {
      stats_.failovers++;
      failover = SpanScope(spans_, "failover", "io");
      failover.Annotate("tseg", tseg);
      failover.Annotate("source", candidates[i]);
    }
    last = read_copy(candidates[i]);
    if (last.ok()) {
      served_from = candidates[i];
      break;
    }
  }
  if (!last.ok()) {
    return last;
  }
  NoteServed(tseg, served_from, span);
  return served_from;
}

void IoServer::NoteServed(uint32_t tseg, uint32_t source, SpanId span) {
  if (source == tseg) {
    return;
  }
  stats_.replica_reads++;
  if (spans_ != nullptr) {
    spans_->Annotate(span, "served_from", source);
  }
}

Status IoServer::FetchSegment(uint32_t tseg, uint32_t disk_seg) {
  std::vector<ChunkRef> image;
  SpanScope fetch(spans_, "fetch", "io");
  fetch.Annotate("tseg", tseg);
  const SimTime fetch_start = clock_->Now();
  Result<uint32_t> served_from = ReadClosestCopy(
      tseg, fetch.id(),
      [&](uint32_t source) { return ReadTertiaryCopy(source, &image); });
  RETURN_IF_ERROR(served_from.status());
  RETURN_IF_ERROR(InstallFetched(tseg, disk_seg, image));
  fetch_latency_us_.Observe(clock_->Now() - fetch_start);
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
  const bool read = IsReadOp(op.kind);
  const bool lazy = op.kind == OpKind::kPrefetchRead;
  queue_.push_back(std::move(op));
  stats_.ops_enqueued++;
  stats_.queue_depth.Set(static_cast<int64_t>(queue_.size()));
  if (read) {
    stats_.read_queue_depth.Set(static_cast<int64_t>(ReadQueueCount()));
    // Prefetch-class reads are lazy: they sit in the queue until a demand
    // issue or drain sweeps them up — that is what lets a whole run of
    // read-aheads ride one mounted volume. Demand reads push the pipeline
    // now, unless the batch window holds them.
    if (reads_held_ || lazy) {
      return OkStatus();
    }
  }
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

void IoServer::StallForOldest() {
  stats_.backpressure_stalls++;
  const SimTime oldest = *outstanding_.begin();
  const SimTime stall = oldest > clock_->Now() ? oldest - clock_->Now() : 0;
  stats_.queue_stall_us += stall;
  RecordInstant(spans_, "queue_stall", "io", "depth", queue_.size(),
                "stall_us", stall);
  clock_->AdvanceTo(oldest);
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
    StallForOldest();
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
  // The issue key (io_server.h), smallest first: class (demand read < write
  // < prefetch read) — demand faults block a user process, prefetches are
  // speculative; then mounted volume (ride the seated medium before paying
  // a swap); then, for reads, an upward elevator over volume numbers from
  // the last read's volume; then FIFO.
  size_t best = queue_.size();
  std::array<uint64_t, 4> best_key{};
  for (size_t i = 0; i < queue_.size(); ++i) {
    const PendingOp& op = queue_[i];
    const bool read = IsReadOp(op.kind);
    if (reads_held_ && read) {
      continue;
    }
    const uint64_t cls = op.kind == OpKind::kDemandRead ? 0 : read ? 2 : 1;
    const uint32_t vol = amap_->VolumeOfTseg(op.tseg);
    const uint64_t unmounted = VolumeMounted(vol) ? 0 : 1;
    const uint64_t sweep =
        !read ? 0
        : vol >= last_read_volume_
            ? vol - last_read_volume_
            : (uint64_t{1} << 32) + vol - last_read_volume_;
    const std::array<uint64_t, 4> key = {cls, unmounted, sweep, op.seq};
    if (best == queue_.size() || key < best_key) {
      best = i;
      best_key = key;
    }
  }
  return best;
}

Status IoServer::IssueNext() {
  const size_t pick = PickIndex();
  if (pick >= queue_.size()) {
    return OkStatus();
  }
  const PendingOp& op = queue_[pick];
  if (VolumeMounted(amap_->VolumeOfTseg(op.tseg))) {
    if (pick != FirstEligibleIndex()) {
      stats_.volume_batch_picks++;
    }
    if (IsReadOp(op.kind)) {
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
  return IssueWrite(op);
}

Status IoServer::Deliver(PendingOp& op, const Status& s) {
  if (op.done) {
    Completion done = std::move(op.done);
    done(s);
    return OkStatus();  // The callback owns the error now.
  }
  return s;
}

Status IoServer::IssueWrite(PendingOp& op) {
  stats_.ops_issued++;
  const uint64_t seg_bytes = amap_->SegBytes();
  write_image_.resize(seg_bytes);
  std::span<uint8_t> buf(write_image_);

  // The issue-time span is a child of the *enqueue-time* context, not of
  // whatever span happens to be open now (often a later drain): causality
  // follows the queued request across the asynchronous hand-off.
  SpanScope issue(spans_, op.ctx.span,
                  op.kind == OpKind::kReplicaWrite ? "issue_replica_write"
                                                   : "issue_copyout",
                  "io");
  issue.Annotate("tseg", op.tseg);
  issue.Annotate("disk_seg", op.disk_seg);

  // The staging-line read and memory copy still run synchronously — they
  // contend for the disk arm (the reason delayed copy-out exists at all).
  const SimTime issue_start = clock_->Now();
  Status read = raw_disk_->ReadBlocks(DiskSegFirstBlock(op.disk_seg),
                                      seg_size_blocks_, buf);
  if (!read.ok()) {
    return Deliver(op, read);
  }
  clock_->Advance(CopyTime());
  phases_.Add(phase_ioserver_, clock_->Now() - issue_start);

  // The tertiary write is scheduled, not waited for: data moves to the
  // medium now, device time completes at *end. End-of-medium (and any other
  // write error) therefore surfaces here, at completion-callback time.
  const uint32_t volume = amap_->VolumeOfTseg(op.tseg);
  const uint64_t offset = amap_->ByteOffsetOnVolume(op.tseg);
  uint32_t crc = 0;
  Result<SimTime> end = ScheduleWithRetry(
      op.tseg, volume, "tertiary_write", issue.id(), [&](SimTime earliest) {
        return footprint_->ScheduleWrite(earliest, static_cast<int>(volume),
                                         offset, buf, &crc);
      });
  if (!end.ok()) {
    if (end.status().code() == ErrorCode::kEndOfMedium) {
      stats_.end_of_medium_events++;
      RecordInstant(spans_, "end_of_medium", "io", "tseg", op.tseg, "volume",
                    volume);
    }
    return Deliver(op, end.status());
  }
  if (crc_store_) {
    crc_store_(op.tseg, crc);
  }
  outstanding_.insert(*end);
  stats_.segments_copied_out++;
  stats_.bytes_copied_out += seg_bytes;
  copyout_latency_us_.Observe(*end - issue_start);
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
  // The latest completion of any issued op; reaped ones are in the past.
  if (!outstanding_.empty() && *outstanding_.rbegin() > clock_->Now()) {
    clock_->AdvanceTo(*outstanding_.rbegin());
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

Status IoServer::SchedulePrefetch(uint32_t tseg, ReadDone done) {
  SpanScope span(spans_, "prefetch_read", "io");
  span.Annotate("tseg", tseg);
  const uint32_t source = SourceCandidates(tseg).front();
  const uint32_t volume = amap_->VolumeOfTseg(source);
  const SimTime t0 = clock_->Now();
  std::vector<ChunkRef> image;
  uint32_t read_crc = 0;
  Result<SimTime> end = ScheduleSourceRead(t0, source, &image, &read_crc);
  // The data moved synchronously even though device time completes later,
  // so the image can be verified now; a corrupted prefetch is dropped here
  // rather than poisoning a cache line at install time. Either way the read
  // reports to the volume's health like every other tertiary read.
  const Status s =
      end.ok() ? VerifyCrc(source, read_crc, volume) : end.status();
  ReportHealth(volume, s);
  if (!s.ok()) {
    if (done) {
      done(s, 0, {});
    }
    return s;
  }
  NoteServed(tseg, source, span.id());
  if (spans_ != nullptr) {
    spans_->AddComplete("tertiary_read", "tertiary", span.id(), t0, *end);
  }
  phases_.Add(phase_footprint_, *end - t0);
  stats_.prefetches_scheduled++;
  span.Annotate("device_us", *end - t0);
  if (done) {
    done(OkStatus(), *end, image);
  }
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

Status IoServer::EnqueueDemandRead(uint32_t tseg, uint32_t install_seg,
                                   ReadDone done) {
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
    RecordInstant(spans_, "read_coalesce", "io", "tseg", tseg, "waiters",
                  op.readers.size());
    return reads_held_ ? OkStatus() : TryIssue();
  }
  PendingOp op;
  op.kind = OpKind::kDemandRead;
  op.tseg = tseg;
  op.disk_seg = install_seg;
  op.readers.push_back(std::move(done));
  stats_.demand_reads_enqueued++;
  return Enqueue(std::move(op));
}

Status IoServer::EnqueuePrefetchRead(uint32_t tseg, uint32_t install_seg,
                                     ReadDone done) {
  const size_t idx = FindQueuedRead(tseg);
  if (idx < queue_.size()) {
    // Already on its way (whatever the class): ride the queued transfer.
    queue_[idx].readers.push_back(std::move(done));
    stats_.reads_coalesced++;
    RecordInstant(spans_, "read_coalesce", "io", "tseg", tseg, "waiters",
                  queue_[idx].readers.size());
    return OkStatus();
  }
  PendingOp op;
  op.kind = OpKind::kPrefetchRead;
  op.tseg = tseg;
  op.disk_seg = install_seg;
  op.readers.push_back(std::move(done));
  stats_.prefetch_reads_enqueued++;
  return Enqueue(std::move(op));
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
    StallForOldest();
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
                             SimTime ready_at,
                             std::span<const ChunkRef> image) {
  if (op.readers.empty()) {
    return s;
  }
  std::vector<ReadDone> readers = std::move(op.readers);
  for (ReadDone& done : readers) {
    if (done) {
      done(s, ready_at, image);
    }
  }
  return OkStatus();  // The callbacks own the error now.
}

Status IoServer::IssueRead(PendingOp& op) {
  stats_.ops_issued++;
  std::vector<ChunkRef> image;
  const bool demand = op.kind == OpKind::kDemandRead;

  SpanScope issue(spans_, op.ctx.span,
                  demand ? "issue_demand_read" : "issue_prefetch_read", "io");
  issue.Annotate("tseg", op.tseg);

  const SimTime issue_start = clock_->Now();
  SimTime end_time = 0;
  Result<uint32_t> served_from =
      ReadClosestCopy(op.tseg, issue.id(), [&](uint32_t source) {
        const uint32_t volume = amap_->VolumeOfTseg(source);
        Result<SimTime> end = ScheduleWithRetry(
            source, volume, "tertiary_read", issue.id(),
            [&](SimTime earliest) -> Result<SimTime> {
              uint32_t crc = 0;
              Result<SimTime> done =
                  ScheduleSourceRead(earliest, source, &image, &crc);
              // Data moves synchronously even though device time completes
              // later, so the image is CRC-checked now; a corrupt read
              // retries like an I/O error.
              if (!done.ok()) {
                return done;
              }
              RETURN_IF_ERROR(VerifyCrc(source, crc, volume));
              return done;
            });
        if (end.ok()) {
          end_time = *end;
        }
        return end.status();
      });
  if (!served_from.ok()) {
    return DeliverRead(op, served_from.status(), 0);
  }

  SimTime ready = end_time;
  if (op.disk_seg != kNoSegment) {
    // Install into the cache line now, with FetchSegment's charges. The
    // line is usable once both the disk write and the tertiary transfer
    // completed.
    Status wrote = InstallFetched(op.tseg, op.disk_seg, image);
    if (!wrote.ok()) {
      return DeliverRead(op, wrote, 0);
    }
    ready = std::max(ready, clock_->Now());
  }
  outstanding_.insert(end_time);
  last_read_volume_ = amap_->VolumeOfTseg(*served_from);
  if (demand) {
    fetch_latency_us_.Observe(ready - op.enqueued_at);
  } else {
    stats_.prefetches_scheduled++;
    issue.Annotate("device_us", end_time - issue_start);
  }
  return DeliverRead(op, OkStatus(), ready, image);
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

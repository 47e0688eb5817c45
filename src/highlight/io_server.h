// IoServer: the user-level I/O process of sections 6.6-6.7.
//
// It is the only component that touches tertiary media, always in whole-
// segment units, via the Footprint interface. It reads and writes the disk
// cache through the raw (concatenated) disk device — bypassing the buffer
// cache, exactly as the paper's I/O server does — which is why demand-fetched
// blocks are later re-read through the file system (the measured inefficiency
// in Table 3's uncached column).
//
// Besides the synchronous FetchSegment/CopyOutSegment paths, the server runs
// the *write-behind pipeline* the paper gets from being a separate process
// (sections 4, 6.5): copy-outs, replica writes and prefetches are queued and
// drained through Footprint::ScheduleWrite/ScheduleRead, so tertiary
// transfers overlap with migrator staging instead of stalling it. The queue
// is bounded: once `max_queue_depth` operations are outstanding on the
// devices, further issues stall the caller until the oldest completes
// (backpressure). Queued operations are issued with per-volume ordering — an
// op whose target volume is already mounted beats older ops that need a
// media swap — and Drain() is the completion barrier FlushStaging and
// checkpoints use.
//
// Time is attributed to the phases Table 4 reports: "footprint" (tertiary
// transfers including swaps/seeks), "ioserver" (raw disk copies + the
// modelled memory copies), and "queuing" (request handling), via the shared
// PhaseAccumulator.

#ifndef HIGHLIGHT_HIGHLIGHT_IO_SERVER_H_
#define HIGHLIGHT_HIGHLIGHT_IO_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "blockdev/block_device.h"
#include "highlight/address_map.h"
#include "lfs/format.h"
#include "sim/sim_clock.h"
#include "tertiary/footprint.h"
#include "util/fault_injector.h"
#include "util/health.h"
#include "util/metrics.h"
#include "util/span.h"
#include "util/status.h"
#include "util/trace.h"

namespace hl {

class IoServer {
 public:
  // `raw_disk` is the concatenated disk device; `reserved_blocks` and
  // `seg_size_blocks` give the disk segment geometry.
  IoServer(BlockDevice* raw_disk, Footprint* footprint,
           const AddressMap* amap, SimClock* clock, uint32_t reserved_blocks,
           uint32_t seg_size_blocks);

  // Demand fetch: brings tertiary segment `tseg` into disk segment
  // `disk_seg`. Sim time charges the paper's path — tertiary read, a memory
  // copy and a raw disk write — while the host reads the image straight
  // into the line's bytes (BlockDevice::InPlaceBytes) and commits them with
  // the raw write; a line with no in-place bytes goes through the transfer
  // image. A failed fetch or install leaves the line's bytes undefined (it
  // is not mapped until the fetch succeeds). When a replica resolver is
  // installed, the read is served from the "closest" copy — a replica whose
  // volume is already in a drive beats a primary that needs a media swap
  // (section 5.4).
  Status FetchSegment(uint32_t tseg, uint32_t disk_seg);

  // Maps a primary tseg to its replica tsegs (empty = no replicas).
  using ReplicaResolver = std::function<std::vector<uint32_t>(uint32_t)>;
  void SetReplicaResolver(ReplicaResolver resolver) {
    replica_resolver_ = std::move(resolver);
  }

  // Bounded retry with exponential backoff (in sim time) applied to every
  // tertiary transfer: synchronous paths charge the backoff to the clock,
  // the write-behind pipeline folds it into the reissued op's start time.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // Health registry fed with per-volume outcomes; quarantined volumes are
  // ordered last among fetch source candidates (still tried as a last
  // resort — refusing the only surviving copy would lose data).
  void SetHealth(HealthRegistry* health) { health_ = health; }

  // CRC catalog hooks. The catalog lives with the file system (TsegTable)
  // while the server survives remounts, so access is indirect: `store` runs
  // after every successful copy-out, `lookup` before installing any fetched
  // image (returning false = no CRC recorded, fetch is unverified).
  using CrcLookup = std::function<bool(uint32_t tseg, uint32_t* crc)>;
  using CrcStore = std::function<void(uint32_t tseg, uint32_t crc)>;
  void SetCrcHooks(CrcLookup lookup, CrcStore store) {
    crc_lookup_ = std::move(lookup);
    crc_store_ = std::move(store);
  }

  // Migration copy-out: reads the staged disk segment and writes it to its
  // tertiary home. Returns kEndOfMedium if the volume ran out of room (the
  // caller re-targets the segment at the next volume).
  Status CopyOutSegment(uint32_t tseg, uint32_t disk_seg);

  // --- Write-behind pipeline -----------------------------------------------

  // Completion callback for queued operations. Runs when the operation is
  // handed to the device (data movement happens then; device time completes
  // asynchronously). End-of-medium and I/O errors are delivered here, so a
  // failure that the synchronous path reported at CopyOutSegment time now
  // surfaces at completion time. Callbacks may enqueue further operations
  // (retargets, replica chains).
  using Completion = std::function<void(Status)>;

  // Queues a copy-out (or a best-effort replica write) of the staged line
  // `disk_seg` to tertiary segment `tseg`. Applies backpressure: when more
  // than max_queue_depth ops are pending or outstanding, the call stalls
  // (advancing the clock) until the device retires enough work.
  Status EnqueueCopyOut(uint32_t tseg, uint32_t disk_seg, Completion done);
  Status EnqueueReplicaWrite(uint32_t tseg, uint32_t disk_seg,
                             Completion done);

  // Read-ahead: issues an asynchronous tertiary read of `tseg` into `buf`
  // (which must outlive the call; data moves now, device time completes at
  // the returned instant). `done(status, ready_at)` runs within this call.
  // Prefetches are issued immediately — reads are latency-sensitive — and do
  // not count against the write queue depth.
  using PrefetchDone = std::function<void(Status, SimTime ready_at)>;
  Status SchedulePrefetch(uint32_t tseg, std::span<uint8_t> buf,
                          PrefetchDone done);

  // --- Asynchronous read pipeline ------------------------------------------
  //
  // With async reads enabled, demand fetches and read-ahead prefetches enter
  // the same bounded queue as the write-behind ops. The issue policy ranks
  // queued work by class (demand < write < prefetch), prefers ops whose
  // volume is already mounted, and sweeps the remaining reads in an elevator
  // over volume numbers so K faults on one unmounted volume pay one media
  // swap instead of K. Duplicate reads for the same tseg coalesce into a
  // single transfer whose completion fans out to every waiter.

  void set_async_reads(bool on) { async_reads_ = on; }
  bool async_reads() const { return async_reads_; }

  // Completion of a queued read; `ready_at` is when the data is usable
  // (device completion, plus the cache-line install when one was requested).
  using ReadDone = std::function<void(Status, SimTime ready_at)>;

  // Queues a demand read of `tseg`, installed into cache line `install_seg`
  // at issue time with the synchronous FetchSegment costs and the same
  // in-place landing. If a read for `tseg` is already queued it is promoted
  // to demand class and this waiter rides it (a promoted read-ahead then
  // lands in the line, leaving its own buffer unfilled). Never stalls the
  // caller; pair with EnsureReadIssued() to force the op onto the device.
  Status EnqueueDemandRead(uint32_t tseg, uint32_t install_seg, ReadDone done);

  // Queues a prefetch-class read. `install_seg` == kNoSegment buffers the
  // image into `image` only (sequential read-ahead); otherwise the segment
  // lands in and installs into that cache line at issue time. Prefetch
  // reads are lazy: they wait in the queue until a demand issue or drain
  // sweeps them up, which is what lets them ride a mounted volume for free.
  Status EnqueuePrefetchRead(uint32_t tseg, uint32_t install_seg,
                             std::shared_ptr<std::vector<uint8_t>> image,
                             ReadDone done);

  // True while a read op for `tseg` sits in the queue (not yet issued).
  bool ReadQueued(uint32_t tseg) const;

  // Issues queued ops (in policy order) until the read for `tseg` has been
  // handed to a device, stalling on the outstanding window as needed. No-op
  // when no read for `tseg` is queued.
  Status EnsureReadIssued(uint32_t tseg);

  // Removes a still-queued read for `tseg`, delivering `status` to its
  // waiters. Returns false when no such op was queued.
  bool CancelQueuedRead(uint32_t tseg, const Status& status);

  // Drops every queued prefetch-class read (cache invalidation / volume
  // erase), delivering kBusy to their waiters. Returns the number dropped.
  size_t CancelQueuedPrefetchReads();

  // Batch window: while held, read ops accumulate in the queue without being
  // issued, so ReleaseReads() sees the whole fault batch at once and the
  // elevator can order it before the first media swap is paid.
  void HoldReads() { reads_held_ = true; }
  Status ReleaseReads();

  // Introspection for hlfs_inspect --queue: pending (not yet issued) ops.
  struct QueuedOpView {
    const char* kind;   // "copyout", "replica_write", "demand_read", ...
    uint32_t tseg;
    uint32_t disk_seg;  // Staging line / install target; kNoSegment = none.
    uint32_t volume;
  };
  std::vector<QueuedOpView> PendingOps() const;

  // Copies a previously prefetched segment image into cache line `disk_seg`
  // (memory copy + raw disk write), charging the usual I/O-server costs.
  Status InstallSegment(uint32_t disk_seg, std::span<const uint8_t> bytes);

  // Completion barrier: issues every queued operation (running completion
  // callbacks, which may enqueue more) and advances the clock past the last
  // outstanding device completion. FlushStaging/checkpoint call this before
  // declaring staged data durable on tertiary media.
  Status Drain();

  // Pending (not yet issued) operations.
  size_t QueueDepth() const { return queue_.size(); }
  // Issued operations whose device time has not yet completed.
  size_t Outstanding() const;
  // Clamped to >= 1: a zero-op window could never issue anything and would
  // wedge Drain(). Shrinking below current occupancy is safe — the excess
  // drains through the normal backpressure path on the next issue.
  void set_max_queue_depth(size_t depth);
  size_t max_queue_depth() const { return max_queue_depth_; }
  SimTime pipeline_busy_until() const { return pipeline_busy_until_; }

  PhaseAccumulator& phases() { return phases_; }
  // Interned handles for the Table-4 phases: hot paths attribute time via
  // Add(id, ...) — a vector index — instead of a per-call string lookup.
  PhaseAccumulator::PhaseId phase_ioserver() const { return phase_ioserver_; }
  PhaseAccumulator::PhaseId phase_footprint() const { return phase_footprint_; }
  PhaseAccumulator::PhaseId phase_queuing() const { return phase_queuing_; }
  uint64_t SegBytes() const { return amap_->SegBytes(); }

  struct Stats {
    Counter segments_fetched;
    Counter segments_copied_out;
    Counter bytes_fetched;
    Counter bytes_copied_out;
    Counter end_of_medium_events;
    Counter replica_reads;     // Fetches served from a replica copy.
    // Fault-tolerance counters.
    Counter retries;           // Tertiary transfers retried after a failure.
    Counter retry_backoff_us;  // Total sim time spent backing off.
    Counter failovers;         // Fetch moved on to the next source candidate.
    Counter crc_mismatches;    // Fetched images rejected by CRC verification.
    Counter crc_verified;      // Fetched images that passed verification.
    // Pipeline counters.
    Counter ops_enqueued;
    Counter ops_issued;
    Counter backpressure_stalls;
    Counter volume_batch_picks;  // Ops issued early to ride a mounted volume.
    Counter prefetches_scheduled;
    Counter drains;
    Counter queue_stall_us;      // Simulated time spent stalled on backpressure.
    Gauge queue_depth;           // Pending queue occupancy; max() = high-water.
    // Read-queue counters (async read pipeline).
    Counter demand_reads_enqueued;
    Counter prefetch_reads_enqueued;
    Counter reads_coalesced;     // Duplicate requests merged into a queued op.
    Counter read_mounted_picks;  // Reads issued while their volume was mounted.
    Gauge read_queue_depth;      // Pending read ops; max() = high-water.
  };
  const Stats& stats() const { return stats_; }

  // Re-homes counters into `registry` under "io.*", binds the fetch/copy-out
  // latency histograms, and emits seg_fetch / copyout / replica_write /
  // queue_stall / end_of_medium trace events through `tracer`.
  void AttachMetrics(MetricsRegistry* registry, Tracer tracer);

  // Causal span tracing on the "io" lane: fetch with retry / failover /
  // install children, sync + queued copy-outs (queued ops capture the
  // enqueuer's TraceContext so issue-time spans keep their causal parent),
  // prefetch reads and drains. Null disables.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

  // Extra per-byte CPU cost of the user-space staging copies (tertiary <->
  // memory <-> raw disk). Default models a ~10 MB/s memcpy on the testbed.
  void set_cpu_copy_us_per_mb(SimTime us) { cpu_copy_us_per_mb_ = us; }

 private:
  enum class OpKind { kCopyOut, kReplicaWrite, kDemandRead, kPrefetchRead };
  static bool IsReadOp(OpKind kind) {
    return kind == OpKind::kDemandRead || kind == OpKind::kPrefetchRead;
  }

  struct PendingOp {
    OpKind kind;
    uint32_t tseg = kNoSegment;
    uint32_t disk_seg = kNoSegment;
    Completion done;
    // Read ops: the buffer a read with no in-place cache line lands in (a
    // read-ahead's shared image, else the transfer image) and the waiters
    // a coalesced transfer fans out to.
    std::shared_ptr<std::vector<uint8_t>> image{};
    std::vector<ReadDone> readers{};
    // Enqueue-time span context; the issue-time span is begun under it so
    // write-behind work stays causally attached to whoever queued it.
    TraceContext ctx{};
    uint64_t seq = 0;          // FIFO tiebreaker for the async issue policy.
    SimTime enqueued_at = 0;
  };

  uint32_t DiskSegFirstBlock(uint32_t disk_seg) const {
    return reserved_blocks_ + disk_seg * seg_size_blocks_;
  }
  // Every copy of `tseg` (primary + replicas) ordered closest-first:
  // mounted non-quarantined, unmounted non-quarantined, quarantined.
  std::vector<uint32_t> SourceCandidates(uint32_t tseg);
  // Picks the closest copy of `tseg` (mounted replica beats unmounted
  // primary) and bumps the replica-read counter when a replica wins.
  uint32_t PickSource(uint32_t tseg);
  // One source's read with retry/backoff, health recording and CRC
  // verification of the fetched image.
  Status ReadTertiaryCopy(uint32_t source, std::span<uint8_t> buf);
  // Runs `attempt` (a sync op advancing the clock itself) up to
  // retry_.max_attempts times, charging backoff to the clock between tries
  // and recording per-volume outcomes.
  Status RetrySync(uint32_t tseg, uint32_t volume,
                   const std::function<Status()>& attempt);
  // Checks `crc`, the value the tertiary read reported for the bytes it
  // delivered, against the recorded CRC of `source` (ok when none known).
  Status VerifyCrc(uint32_t source, uint32_t crc, uint32_t volume);
  // The segment-sized buffer a transfer moves through. One image is reused
  // across transfers; a new one is allocated only while another holder
  // still references it (a completion callback re-entering the pipeline
  // while the outer op still owns the image).
  std::shared_ptr<std::vector<uint8_t>> TransferImage();
  // Where a fetch lands: cache line `disk_seg`'s own bytes when the raw
  // disk lends them, else `*image` (set to the transfer image if null).
  std::span<uint8_t> FetchTarget(uint32_t disk_seg,
                                 std::shared_ptr<std::vector<uint8_t>>* image);
  Status Enqueue(PendingOp op);
  Status EnqueueRead(PendingOp op);
  // Issues queued ops while the device window has room.
  Status TryIssue();
  // Pops the best next op (volume batching) and hands it to the device.
  Status IssueNext();
  // Index the issue policy would pick next, or queue_.size() when nothing
  // is eligible (empty queue, or only held reads).
  size_t PickIndex();
  // Oldest eligible index (FIFO baseline the batching counters compare to).
  size_t FirstEligibleIndex() const;
  // Pops queue_[pick] and hands it to the device.
  Status IssueAt(size_t pick);
  Status IssueOne(PendingOp& op);
  // Issues a queued read: source selection (health-ordered, with failover),
  // scheduled tertiary transfer with retry/backoff, CRC verification, an
  // optional cache-line install, and completion fan-out to every waiter.
  Status IssueRead(PendingOp& op);
  // Async analog of ReadTertiaryCopy: reserves device time from now, moves
  // the data immediately, returns the device completion via `end_out`.
  Status ScheduleTertiaryCopy(uint32_t source, std::span<uint8_t> buf,
                              uint64_t parent_span, SimTime* end_out);
  // Routes `s` to the op's completion callback if it has one, else returns
  // it to the issuing caller.
  Status Deliver(PendingOp& op, const Status& s);
  Status DeliverRead(PendingOp& op, const Status& s, SimTime ready_at);
  size_t FindQueuedRead(uint32_t tseg) const;
  size_t ReadQueueCount() const;
  // Write-class ops pending; the backpressure bound applies to these (reads
  // never stall their enqueuer — they stall in EnsureReadIssued instead).
  size_t WriteQueueCount() const;
  // Drops completion times that have passed; stalls (advancing the clock)
  // until the outstanding window has room for one more op.
  void ReapOutstanding();
  bool WindowHasRoom();

  BlockDevice* raw_disk_;
  Footprint* footprint_;
  const AddressMap* amap_;
  SimClock* clock_;
  uint32_t reserved_blocks_;
  uint32_t seg_size_blocks_;
  SimTime cpu_copy_us_per_mb_ = 100'000;  // 0.1 s per MB.
  ReplicaResolver replica_resolver_;
  RetryPolicy retry_;
  HealthRegistry* health_ = nullptr;
  CrcLookup crc_lookup_;
  CrcStore crc_store_;
  PhaseAccumulator phases_;
  // Interned once here; "footprint"/"ioserver"/"queuing" sort in the same
  // order the old string-keyed map iterated, keeping export output stable.
  PhaseAccumulator::PhaseId phase_footprint_ = phases_.Intern("footprint");
  PhaseAccumulator::PhaseId phase_ioserver_ = phases_.Intern("ioserver");
  PhaseAccumulator::PhaseId phase_queuing_ = phases_.Intern("queuing");
  Stats stats_;
  Histogram fetch_latency_us_;    // Demand-fetch wall time.
  Histogram copyout_latency_us_;  // Issue-to-device-completion per copy-out.
  Tracer tracer_;
  SpanTracer* spans_ = nullptr;
  std::shared_ptr<std::vector<uint8_t>> transfer_image_;

  std::deque<PendingOp> queue_;            // Enqueued, not yet issued.
  std::multiset<SimTime> outstanding_;     // Completion times of issued ops.
  size_t max_queue_depth_ = 8;
  SimTime pipeline_busy_until_ = 0;
  bool async_reads_ = false;
  bool reads_held_ = false;
  uint64_t next_seq_ = 0;
  // Last volume a read was issued against; the elevator sweeps upward from
  // here (C-SCAN over volume numbers, a proxy for jukebox slot order).
  uint32_t last_read_volume_ = 0;
};

}  // namespace hl

#endif  // HIGHLIGHT_HIGHLIGHT_IO_SERVER_H_

// IoServer: the user-level I/O process of sections 6.6-6.7.
//
// It is the only component that touches tertiary media, always in whole-
// segment units, via the Footprint interface. It reads and writes the disk
// cache through the raw (concatenated) disk device — bypassing the buffer
// cache, exactly as the paper's I/O server does — which is why demand-fetched
// blocks are later re-read through the file system (the measured inefficiency
// in Table 3's uncached column).
//
// FetchSegment, the serial demand fetch, is the only synchronous entry: the
// caller's clock waits out the tertiary read. Every other transfer is placed
// on the devices' timelines. Every tertiary read, whatever it is for, is one
// read by reference (Footprint::ScheduleRead): the image it delivers is the
// source volume's chunks, installed into a cache line by reference
// (BlockDevice::WriteShared) or handed to the read's waiters. Every tertiary
// write (copy-outs and replica writes) is queued on the write-behind
// pipeline the paper gets from the server being a separate process
// (sections 4, 6.5), and so are the async read pipeline's demand and
// prefetch reads; only SchedulePrefetch's serial read-ahead is placed at
// once. Queued ops are handed to Footprint::ScheduleWrite/ScheduleRead, so
// tertiary transfers overlap with migrator staging instead of stalling it;
// a synchronous copy-out is an enqueue followed by Drain(). The queue is
// bounded: once `max_queue_depth` operations are outstanding on the
// devices, further issues stall the caller until the oldest completes
// (backpressure).
//
// Issue key: every queued op is ranked by one key, compared in this order:
//   1. class: demand read < write < prefetch read;
//   2. an op whose volume is already mounted before one that needs a swap;
//   3. for reads only, an upward C-SCAN sweep over volume numbers from the
//      last read's volume, so K faults on one unmounted volume pay one swap;
//   4. FIFO.
// With no read queued, the pick is the oldest op on a mounted volume, else
// the oldest op. Drain() is the completion barrier synchronous copy-outs,
// FlushStaging and checkpoints use.
//
// Source failover: FetchSegment and queued reads walk a segment's copies
// closest-first in one loop (ReadClosestCopy), reading each copy under
// their own retry loop; every try reports to its volume's health in one
// place (ReportHealth).
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
#include <set>
#include <span>
#include <vector>

#include "blockdev/block_device.h"
#include "highlight/address_map.h"
#include "lfs/format.h"
#include "sim/sim_clock.h"
#include "tertiary/footprint.h"
#include "util/chunk.h"
#include "util/fault_injector.h"
#include "util/health.h"
#include "util/metrics.h"
#include "util/span.h"
#include "util/status.h"

namespace hl {

// The kernel -> service-process request round trip (~2 ms), charged to the
// "queuing" phase of Table 4 once per demand fetch and once per completed
// staging segment.
inline constexpr SimTime kKernelRequestUs = 2000;

class IoServer {
 public:
  // `raw_disk` is the concatenated disk device; `reserved_blocks` and
  // `seg_size_blocks` give the disk segment geometry.
  IoServer(BlockDevice* raw_disk, Footprint* footprint,
           const AddressMap* amap, SimClock* clock, uint32_t reserved_blocks,
           uint32_t seg_size_blocks);

  // Demand fetch: brings tertiary segment `tseg` into disk segment
  // `disk_seg`. Sim time charges the paper's path — tertiary read, a memory
  // copy and a raw disk write — while the host moves no bytes: the read
  // takes references to the volume's chunks, their stored CRCs verify it,
  // and the raw write installs the references (BlockDevice::WriteShared).
  // Where a copy is needed, the layer that needs it makes it: the chunk
  // store for an extent off its grid or an injected bit flip, the raw disk
  // for a line it cannot hold by reference. A failed fetch or install
  // leaves the line as it was (it is not mapped until the fetch succeeds).
  // When a replica resolver is installed, the read is served from the
  // "closest" copy — a replica whose volume is already in a drive beats a
  // primary that needs a media swap (section 5.4).
  Status FetchSegment(uint32_t tseg, uint32_t disk_seg);

  // Maps a primary tseg to its replica tsegs (empty = no replicas).
  using ReplicaResolver = std::function<std::vector<uint32_t>(uint32_t)>;
  void SetReplicaResolver(ReplicaResolver resolver) {
    replica_resolver_ = std::move(resolver);
  }

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

  // --- Write-behind pipeline -----------------------------------------------

  // Completion callback for queued operations. Runs when the operation is
  // handed to the device (data movement happens then; device time completes
  // asynchronously). End-of-medium and I/O errors are delivered here, at
  // completion time. Callbacks may enqueue further operations (retargets,
  // replica chains).
  using Completion = std::function<void(Status)>;

  // Queues a copy-out (or a best-effort replica write) of the staged line
  // `disk_seg` to tertiary segment `tseg`. Applies backpressure: when more
  // than max_queue_depth ops are pending or outstanding, the call stalls
  // (advancing the clock) until the device retires enough work.
  Status EnqueueCopyOut(uint32_t tseg, uint32_t disk_seg, Completion done);
  Status EnqueueReplicaWrite(uint32_t tseg, uint32_t disk_seg,
                             Completion done);

  // Completion of a tertiary read: `ready_at` is when the data is usable
  // (device completion, plus the cache-line install when one was
  // requested), and `image` the segment's chunks (empty on failure).
  using ReadDone = std::function<void(Status, SimTime ready_at,
                                      std::span<const ChunkRef> image)>;

  // Read-ahead: places one tertiary read of `tseg`'s closest copy now (data
  // moves now, device time completes at `ready_at`); `done` runs within
  // this call. Prefetches are issued immediately — reads are
  // latency-sensitive — and do not count against the write queue depth.
  Status SchedulePrefetch(uint32_t tseg, ReadDone done);

  // --- Asynchronous read pipeline ------------------------------------------
  //
  // Demand fetches and read-ahead prefetches of the async read pipeline
  // enter the same bounded queue as the writes, ranked by the issue key
  // above. Duplicate reads for the same tseg coalesce into a single
  // transfer whose completion fans out to every waiter.

  // Queues a demand read of `tseg`, installed into cache line `install_seg`
  // at issue time with the synchronous FetchSegment costs and the same
  // install by reference. If a read for `tseg` is already queued it is
  // promoted to demand class and this waiter rides it. Never stalls the
  // caller; pair with EnsureReadIssued() to force the op onto the device.
  Status EnqueueDemandRead(uint32_t tseg, uint32_t install_seg, ReadDone done);

  // Queues a prefetch-class read. `install_seg` == kNoSegment only hands
  // the image to the waiters (sequential read-ahead); otherwise the segment
  // installs into that cache line at issue time. Prefetch reads are lazy:
  // they wait in the queue until a demand issue or drain sweeps them up,
  // which is what lets them ride a mounted volume for free.
  Status EnqueuePrefetchRead(uint32_t tseg, uint32_t install_seg,
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

  // The paper's extra-copies install of a fetched image (a demand fetch's,
  // or a held read-ahead's) into cache line `disk_seg`: the memory copy
  // (charged) and the raw disk write of the image's chunks
  // (BlockDevice::WriteShared).
  Status InstallFetched(uint32_t tseg, uint32_t disk_seg,
                        std::span<const ChunkRef> image);

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
    Counter replica_reads;     // Tertiary reads a replica copy served.
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

  // Re-homes counters into `registry` under "io.*" and binds the
  // fetch/copy-out latency histograms.
  void AttachMetrics(MetricsRegistry* registry);

  // Causal span tracing on the "io" lane: fetch with retry / failover /
  // install children, queued copy-outs and reads (queued ops capture the
  // enqueuer's TraceContext so issue-time spans keep their causal parent),
  // prefetch reads and drains; crc_mismatch, end_of_medium, queue_stall and
  // read_coalesce instants. Null disables.
  void SetSpans(SpanTracer* spans) { spans_ = spans; }

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
    // Read ops: the waiters a coalesced transfer fans out to.
    std::vector<ReadDone> readers{};
    // Enqueue-time span context; the issue-time span is begun under it so
    // write-behind work stays causally attached to whoever queued it.
    TraceContext ctx{};
    uint64_t seq = 0;          // FIFO tiebreaker of the issue key.
    SimTime enqueued_at = 0;
  };

  uint32_t DiskSegFirstBlock(uint32_t disk_seg) const {
    return reserved_blocks_ + disk_seg * seg_size_blocks_;
  }
  // Every copy of `tseg` (primary + replicas) ordered closest-first:
  // mounted non-quarantined, unmounted non-quarantined, quarantined.
  std::vector<uint32_t> SourceCandidates(uint32_t tseg);
  bool VolumeMounted(uint32_t volume) const;
  // Sim time of the user-space memory copy of one segment (tertiary <->
  // memory <-> raw disk), at kCpuCopyUsPerMb.
  SimTime CopyTime() const;
  // One tertiary read of `source`'s segment, scheduled from `earliest`:
  // `image` receives its chunks and `crc` the CRC of what was delivered.
  Result<SimTime> ScheduleSourceRead(SimTime earliest, uint32_t source,
                                     std::vector<ChunkRef>* image,
                                     uint32_t* crc);
  // Tries `read_copy` on each copy of `tseg` closest-first until one
  // succeeds; every extra copy tried is a failover (and a "failover" span),
  // a replica that serves is a replica read (NoteServed).
  // Returns the copy that served, else the last copy's error.
  Result<uint32_t> ReadClosestCopy(
      uint32_t tseg, SpanId span,
      const std::function<Status(uint32_t source)>& read_copy);
  // The one definition of a replica read: `source` served a read of `tseg`
  // and is not `tseg` itself (counted, and `served_from` on `span`).
  void NoteServed(uint32_t tseg, uint32_t source, SpanId span);
  // FetchSegment's read of one source with retry/backoff, health recording
  // and CRC verification of the fetched image.
  Status ReadTertiaryCopy(uint32_t source, std::vector<ChunkRef>* image);
  // Reports one tertiary try to its volume's health: a success, or a
  // retryable failure (end of medium says nothing about the medium).
  void ReportHealth(uint32_t volume, const Status& s);
  // FetchSegment's retry loop: runs `attempt` (a sync op advancing the clock
  // itself) up to retry_.max_attempts times, charging backoff to the clock
  // between tries and recording per-volume outcomes.
  Status RetrySync(uint32_t tseg, uint32_t volume,
                   const std::function<Status()>& attempt);
  // The queued ops' retry loop. `attempt(earliest)` places one scheduled
  // transfer on `volume` and returns its device completion; a retryable
  // failure places the next try after a backoff on the device's timeline
  // (the caller's clock does not move), up to retry_.max_attempts tries.
  // Every try reports to the volume's health. The transfer that succeeds is
  // recorded as a pre-timed `span` under `parent` and charged, backoffs
  // included, to "footprint".
  Result<SimTime> ScheduleWithRetry(
      uint32_t tseg, uint32_t volume, const char* span, SpanId parent,
      const std::function<Result<SimTime>(SimTime earliest)>& attempt);
  // Checks `crc`, the value the tertiary read reported for the bytes it
  // delivered, against the recorded CRC of `source` (ok when none known).
  Status VerifyCrc(uint32_t source, uint32_t crc, uint32_t volume);
  // Queues any op. Writes and demand reads push the pipeline (TryIssue);
  // prefetch reads, and reads inside a HoldReads window, wait in the queue.
  Status Enqueue(PendingOp op);
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
  // Issues a queued copy-out or replica write: the staging-line read and
  // memory copy on the caller's clock, then the scheduled tertiary write.
  Status IssueWrite(PendingOp& op);
  // Issues a queued read: source selection (health-ordered, with failover),
  // scheduled tertiary transfer with retry/backoff, CRC verification, an
  // optional cache-line install, and completion fan-out to every waiter.
  Status IssueRead(PendingOp& op);
  // Routes `s` to the op's completion callback if it has one, else returns
  // it to the issuing caller.
  Status Deliver(PendingOp& op, const Status& s);
  Status DeliverRead(PendingOp& op, const Status& s, SimTime ready_at,
                     std::span<const ChunkRef> image = {});
  size_t FindQueuedRead(uint32_t tseg) const;
  size_t ReadQueueCount() const;
  // Write-class ops pending; the backpressure bound applies to these (reads
  // never stall their enqueuer — they stall in EnsureReadIssued instead).
  size_t WriteQueueCount() const;
  // Drops completion times that have passed.
  void ReapOutstanding();
  bool WindowHasRoom();
  // Backpressure: advances the clock to the oldest outstanding completion
  // (outstanding_ must not be empty), counting the stall.
  void StallForOldest();

  BlockDevice* raw_disk_;
  Footprint* footprint_;
  const AddressMap* amap_;
  SimClock* clock_;
  uint32_t reserved_blocks_;
  uint32_t seg_size_blocks_;
  // Per-byte CPU cost of the user-space staging copies: a ~10 MB/s memcpy on
  // the testbed, 0.1 s per MB.
  static constexpr SimTime kCpuCopyUsPerMb = 100'000;
  ReplicaResolver replica_resolver_;
  // Bounded retry with exponential backoff (in sim time) applied to every
  // tertiary transfer: FetchSegment charges the backoff to the clock, queued
  // ops delay the reissued transfer's start on the device's timeline.
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
  SpanTracer* spans_ = nullptr;
  // The staging line a copy-out reads into. Reused by every write: nothing
  // reads it once the tertiary write is placed.
  std::vector<uint8_t> write_image_;

  std::deque<PendingOp> queue_;            // Enqueued, not yet issued.
  std::multiset<SimTime> outstanding_;     // Completion times of issued ops.
  size_t max_queue_depth_ = 8;
  bool reads_held_ = false;
  uint64_t next_seq_ = 0;  // FIFO tiebreaker of the issue key.
  // Last volume a read was issued against; the elevator sweeps upward from
  // here (C-SCAN over volume numbers, a proxy for jukebox slot order).
  uint32_t last_read_volume_ = 0;
};

}  // namespace hl

#endif  // HIGHLIGHT_HIGHLIGHT_IO_SERVER_H_

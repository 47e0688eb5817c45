// HighLightFs: the assembled system — the public entry point of this library.
//
// Owns and wires every component of Figure 5: simulated disks behind the
// concatenation driver, jukebox(es) behind Footprint, the block-map driver
// with its segment cache, the LFS above it all, and the user-level trio
// (cleaner, migrator, service/I/O processes). Applications use the Lfs file
// API via fs(); hierarchy management happens underneath, exactly as the
// paper promises ("applications never need know that files are not always
// resident on secondary storage").
//
// The public surface is deliberately small: fs()/clock(), the unified
// Migrate(MigrationRequest) entry point, Remount/AddDisk/CleanUntil/
// DropCleanCacheLines, the observability getters, and the FetchBackend
// interface a federation stager drives. Tests and benchmarks that need to
// poke individual components go through the Internals() facade instead of
// per-component accessors.

#ifndef HIGHLIGHT_HIGHLIGHT_HIGHLIGHT_H_
#define HIGHLIGHT_HIGHLIGHT_HIGHLIGHT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blockdev/concat_driver.h"
#include "blockdev/sim_disk.h"
#include "highlight/address_map.h"
#include "highlight/block_map_driver.h"
#include "highlight/fetch_backend.h"
#include "highlight/io_server.h"
#include "highlight/migration_policy.h"
#include "highlight/migrator.h"
#include "highlight/scrubber.h"
#include "highlight/segment_cache.h"
#include "highlight/service_process.h"
#include "highlight/tertiary_cleaner.h"
#include "highlight/tseg_table.h"
#include "lfs/access_ranges.h"
#include "lfs/cleaner.h"
#include "lfs/lfs.h"
#include "sim/device_profile.h"
#include "tertiary/footprint.h"
#include "tertiary/jukebox.h"
#include "util/fault_injector.h"
#include "util/health.h"
#include "util/metrics.h"
#include "util/span.h"
#include "util/timeseries.h"

namespace hl {

struct HighLightConfig {
  // Disk farm: one SimDisk per entry, concatenated in order. Cache-eligible
  // segments occupy the top of the address space, i.e. the LAST disk — put
  // the staging spindle last for the two-disk experiments.
  struct DiskSpec {
    DiskProfile profile;
    uint32_t blocks = 0;
  };
  std::vector<DiskSpec> disks;

  // Tertiary robots, in Footprint volume order.
  struct JukeboxSpec {
    JukeboxProfile profile;
    bool write_once = false;
    // Segments HighLight may place per volume (0 = fill the volume).
    uint32_t segs_per_volume = 0;
  };
  std::vector<JukeboxSpec> jukeboxes;

  // All devices share one SCSI bus when true (the paper's testbed).
  bool shared_bus = false;

  LfsParams lfs;
  CacheReplacement cache_replacement = CacheReplacement::kLru;
  MigratorOptions migrator;
  // Sequential-miss read-ahead: a demand fetch of tseg N schedules an
  // asynchronous prefetch of N+1 through the I/O server pipeline.
  bool sequential_readahead = false;
  // Swap-aware asynchronous read pipeline: demand fetches and read-ahead
  // prefetches share the I/O server's queue with write-behind ops. The
  // issue policy services demand before prefetch, batches queued reads for
  // the mounted volume before paying a media swap, and sweeps unmounted
  // volumes in elevator order; a faulting process resumes as soon as *its*
  // segment lands (critical-segment-first), and concurrent faults on one
  // tseg coalesce onto a single transfer. Off (the default) keeps the
  // synchronous fetch path bit-identical to prior behavior.
  bool async_read_pipeline = false;

  // Seed for the fault injector's per-channel RNG streams. With all fault
  // profiles at zero (the default) no randomness is ever consumed, so
  // fault-free runs are bit-identical regardless of the seed.
  uint64_t fault_seed = 0xFA17'C0DEull;
  // Failure thresholds for the healthy -> suspect -> quarantined machine.
  HealthPolicy health;

  // Observability. Federation mode: when set, this deployment's tracer is a
  // *view* of the shared tracer (ObservabilityHub core), forwarding every
  // span with `span_track_prefix` applied to its track ("shard0." → lanes
  // "shard0.service", "shard0.io", ...). All deployments sharing one core
  // trace into a single causal tree, in the core's window. The shared
  // tracer must outlive this deployment.
  SpanTracer* shared_spans = nullptr;
  std::string span_track_prefix;
  // Gauge-sampling cadence for the time-series telemetry (0 disables);
  // default one sample per simulated second. Sampling only reads state, so
  // bench results are bit-identical at any cadence.
  SimTime timeseries_cadence_us = kUsPerSec;

  class Builder;
};

// Fluent construction with build-time validation: disk and jukebox specs
// that HighLightFs::Create() would refuse (zero-sized disks,
// segs_per_volume disagreements, volumes smaller than a segment) are
// rejected when Build() runs, by the same check and with a message naming
// the bad spec.
class HighLightConfig::Builder {
 public:
  Builder& AddDisk(const DiskProfile& profile, uint32_t blocks) {
    config_.disks.push_back({profile, blocks});
    return *this;
  }
  Builder& AddJukebox(const JukeboxProfile& profile, bool write_once = false,
                      uint32_t segs_per_volume = 0) {
    config_.jukeboxes.push_back({profile, write_once, segs_per_volume});
    return *this;
  }
  Builder& SegSizeBlocks(uint32_t blocks) {
    config_.lfs.seg_size_blocks = blocks;
    return *this;
  }
  Builder& CacheMaxSegments(uint32_t segments) {
    config_.lfs.cache_max_segments = segments;
    return *this;
  }
  Builder& CacheReplacementPolicy(CacheReplacement policy) {
    config_.cache_replacement = policy;
    return *this;
  }
  Builder& MigratorDefaults(const MigratorOptions& options) {
    config_.migrator = options;
    return *this;
  }
  Builder& SequentialReadahead(bool on = true) {
    config_.sequential_readahead = on;
    return *this;
  }
  Builder& AsyncReadPipeline(bool on = true) {
    config_.async_read_pipeline = on;
    return *this;
  }
  Builder& SharedSpans(SpanTracer* spans, std::string track_prefix) {
    config_.shared_spans = spans;
    config_.span_track_prefix = std::move(track_prefix);
    return *this;
  }
  Builder& TimeseriesCadence(SimTime cadence_us) {
    config_.timeseries_cadence_us = cadence_us;
    return *this;
  }

  // Validates the assembled specs; errors name the offending entry.
  Result<HighLightConfig> Build() const;

 private:
  HighLightConfig config_;
};

class HighLightFs : public FetchBackend, public SiteStore {
 public:
  // Builds the device stack and formats a fresh file system.
  static Result<std::unique_ptr<HighLightFs>> Create(
      const HighLightConfig& config, SimClock* clock);

  // File system access (the application-facing API).
  Lfs& fs() { return *fs_; }
  SimClock& clock() { return *clock_; }

  // The migration entry point: dispatches on the request's mode (wholesale
  // subtree, policy-ranked with byte budget, or cold block ranges). Also
  // the FetchBackend migration-class entry the stager drives.
  Result<MigrationReport> Migrate(const MigrationRequest& request) override;

  // FetchBackend: the scheduler-facing demand/scrub surface. Demand recalls
  // route through the service process (and, when enabled, the async read
  // pipeline's elevator/coalescing machinery).
  bool SegmentCached(uint32_t tseg) const override;
  uint32_t TertiarySegments() const override;
  std::vector<uint32_t> FetchableSegments() const override;
  Result<FetchOutcome> FetchSegment(uint32_t tseg) override;
  Result<std::vector<FetchOutcome>> FetchBatch(
      const std::vector<uint32_t>& tsegs) override;
  Result<uint32_t> ScrubStep(uint32_t max_segments) override;
  uint64_t MediaSwaps() const override;

  // SiteStore: the cross-site replication surface. Whole-segment images
  // move through Footprint (normal drive/robot time), the CRC catalog is
  // TsegTable's, and blobs live as regular files under /.site in the LFS —
  // so a persisted replication ledger survives crash + remount the same way
  // every other on-disk structure does.
  uint64_t SegmentImageBytes() const override;
  std::vector<uint32_t> ReplicableSegments() const override;
  Result<std::vector<uint8_t>> ReadSegmentImage(uint32_t tseg) override;
  Status InstallSegmentImage(uint32_t tseg,
                             std::span<const uint8_t> image) override;
  bool SegmentCrc(uint32_t tseg, uint32_t* crc) const override;
  void StampSegmentCrc(uint32_t tseg, uint32_t crc) override;
  Status PersistBlob(const std::string& name,
                     std::span<const uint8_t> data) override;
  Result<std::vector<uint8_t>> LoadBlob(const std::string& name) override;

  // Runs the disk cleaner until `want_clean` segments are clean (or no
  // progress is possible); returns segments reclaimed. The water-mark
  // scheme of section 8.1 (replayer, stager migration passes) drives this.
  Result<uint32_t> CleanUntil(uint32_t want_clean);

  // Ejects every clean cache line (benchmarks use this to force uncached
  // access to tertiary-resident data).
  Status DropCleanCacheLines();

  // On-line disk addition (sections 6.4 and 10): appends a new simulated
  // disk at the top of the disk address space and folds its segments into
  // the clean pool.
  Status AddDisk(const HighLightConfig::DiskSpec& spec);

  // Simulates a crash + remount: drops all in-core file system state and
  // re-mounts from the device images (checkpoint + roll-forward), rebuilding
  // the cache directory from the ifile's cache tags. Device contents and the
  // simulation clock persist. Registry counters survive (slots are keyed by
  // name, so rebuilt components re-bind to the same slots).
  Status Remount();

  // The unified observability surface. All component counters live in one
  // registry. Metrics() refreshes the derived gauges (per-device busy time,
  // cache hit rate, prefetch accuracy, LFS/migrator lifetime totals) and
  // returns a consistent snapshot.
  MetricsRegistry& metrics() { return metrics_; }
  MetricsSnapshot Metrics();

  // Causal span tracer shared by every daemon and device: one span tree per
  // demand fetch / migration, plus instants for the moments in between
  // (faults, CRC mismatches, health changes, remounts), exportable as a
  // Perfetto timeline. Survives Remount (rebuilt components re-attach to
  // it).
  SpanTracer& spans() { return *spans_; }
  SpanTracer& trace() { return *spans_; }  // hlbench only.
  // Time-series telemetry: gauges sampled on a fixed sim-time cadence via
  // the clock's tick hook (cadence 0 in the config disables sampling).
  TimeSeriesSampler& timeseries() { return *timeseries_; }

  // Test/bench facade: one struct of references to every internal
  // component. Production callers (scheduler, replayer, applications) stay
  // on the public surface above; anything reaching past it — fault
  // injection, queue introspection, policy knobs — says so explicitly by
  // going through Internals().
  struct InternalsView {
    Migrator& migrator;
    Cleaner& cleaner;
    TertiaryCleaner& tertiary_cleaner;
    Scrubber& scrubber;
    FaultInjector& faults;
    HealthRegistry& health;
    SegmentCache& cache;
    IoServer& io_server;
    ServiceProcess& service;
    TsegTable& tseg_table;
    const AddressMap& address_map;
    BlockMapDriver& block_map;
    Footprint& footprint;
    AccessRangeTracker& access_tracker;

    SimDisk& disk(size_t i) const { return *(*disks_)[i]; }
    size_t num_disks() const { return disks_->size(); }
    Jukebox& jukebox(size_t i) const { return *(*jukeboxes_)[i]; }
    size_t num_jukeboxes() const { return jukeboxes_->size(); }

    const std::vector<std::unique_ptr<SimDisk>>* disks_;
    const std::vector<std::unique_ptr<Jukebox>>* jukeboxes_;
  };
  InternalsView Internals();

  // Detaches the clock tick hook installed at Create() time.
  ~HighLightFs() override;

 private:
  HighLightFs() = default;
  // Builds the Lfs-dependent components (cache, tseg table, daemons).
  Status WireFsComponents();
  // Refreshes the snapshot-time derived gauges ahead of Metrics().
  void RefreshDerivedGauges();
  // One block-range migration pass over every file's ranges not read since
  // `cutoff`; files modified since then are skipped as unstable.
  Result<MigrationReport> MigrateColdRanges(const std::vector<uint32_t>& inos,
                                            SimTime cutoff,
                                            const MigratorOptions& opts);

  SimClock* clock_ = nullptr;
  std::optional<Resource> bus_;
  std::vector<std::unique_ptr<SimDisk>> disks_;
  std::unique_ptr<ConcatDriver> concat_;
  std::vector<std::unique_ptr<Jukebox>> jukeboxes_;
  std::unique_ptr<Footprint> footprint_;
  std::unique_ptr<AddressMap> amap_;
  std::unique_ptr<BlockMapDriver> blockmap_;
  std::unique_ptr<Lfs> fs_;
  std::unique_ptr<SegmentCache> cache_;
  std::unique_ptr<TsegTable> tsegs_;
  std::unique_ptr<IoServer> io_server_;
  std::unique_ptr<ServiceProcess> service_;
  std::unique_ptr<Migrator> migrator_;
  std::unique_ptr<Cleaner> cleaner_;
  std::unique_ptr<TertiaryCleaner> tertiary_cleaner_;
  std::unique_ptr<Scrubber> scrubber_;
  std::unique_ptr<AccessRangeTracker> access_tracker_;
  // Fault/health state persists across Remount (the devices — and their
  // injected faults — survive a crash; only the in-core FS state resets).
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<HealthRegistry> health_;
  MigratorOptions migrator_opts_;
  CacheReplacement cache_replacement_ = CacheReplacement::kLru;
  bool sequential_readahead_ = false;
  bool async_read_pipeline_ = false;
  MetricsRegistry metrics_;
  std::unique_ptr<SpanTracer> spans_;
  std::unique_ptr<TimeSeriesSampler> timeseries_;
  SimClock::TickHookId tick_hook_id_ = 0;
};

}  // namespace hl

#endif  // HIGHLIGHT_HIGHLIGHT_HIGHLIGHT_H_

#include "highlight/highlight.h"

#include <algorithm>

#include "util/logging.h"

namespace hl {

namespace {

// Completed causal spans kept in a stand-alone deployment's tracer window,
// and points kept per time-series.
constexpr size_t kSpanCapacity = 4096;
constexpr size_t kTimeseriesCapacity = 4096;

// The files a migration path names: the file itself, or every regular file
// under a directory.
Result<std::vector<uint32_t>> FilesAt(Lfs& fs, const std::string& path) {
  ASSIGN_OR_RETURN(StatInfo st, fs.StatPath(path));
  if (st.type == FileType::kRegular) {
    return std::vector<uint32_t>{st.ino};
  }
  ASSIGN_OR_RETURN(std::vector<FileCandidate> files,
                   WalkTree(fs, path, /*include_dirs=*/false));
  std::vector<uint32_t> inos;
  inos.reserve(files.size());
  for (const FileCandidate& f : files) {
    inos.push_back(f.ino);
  }
  return inos;
}

// The one check of the disk and jukebox specs, shared by Builder::Build and
// HighLightFs::Create. Returns the tertiary segments per volume, which every
// jukebox must agree on.
Result<uint32_t> ValidateConfig(const HighLightConfig& config) {
  if (config.disks.empty()) {
    return InvalidArgument("config: at least one disk is required");
  }
  if (config.jukeboxes.empty()) {
    return InvalidArgument("config: at least one jukebox is required");
  }
  if (config.lfs.seg_size_blocks == 0) {
    return InvalidArgument("config: seg_size_blocks must be nonzero");
  }
  const uint64_t seg_bytes =
      static_cast<uint64_t>(config.lfs.seg_size_blocks) * kBlockSize;
  for (size_t i = 0; i < config.disks.size(); ++i) {
    // Each disk must contribute at least one whole log segment beyond the
    // reserved area (a zero-segment disk would fail deep inside Mkfs).
    const uint64_t bytes =
        static_cast<uint64_t>(config.disks[i].blocks) * kBlockSize;
    if (bytes < kDefaultReservedBlocks * kBlockSize + seg_bytes) {
      return InvalidArgument("config: disk " + std::to_string(i) +
                             " too small for one segment plus the reserved "
                             "area");
    }
  }
  uint32_t segs_per_volume = 0;
  for (size_t i = 0; i < config.jukeboxes.size(); ++i) {
    const auto& spec = config.jukeboxes[i];
    if (spec.profile.num_slots == 0) {
      return InvalidArgument("config: jukebox " + std::to_string(i) +
                             " has no volume slots");
    }
    const uint32_t per_volume =
        spec.segs_per_volume != 0
            ? spec.segs_per_volume
            : static_cast<uint32_t>(spec.profile.volume_capacity_bytes /
                                    seg_bytes);
    if (per_volume == 0) {
      return InvalidArgument("config: jukebox " + std::to_string(i) +
                             " volumes are smaller than one segment");
    }
    if (segs_per_volume == 0) {
      segs_per_volume = per_volume;
    } else if (segs_per_volume != per_volume) {
      // The uniform (segment number -> volume) arithmetic of section 6.3
      // assumes a fixed per-volume segment count.
      return InvalidArgument("config: jukebox " + std::to_string(i) +
                             " disagrees on segs_per_volume; set it "
                             "explicitly when mixing devices");
    }
  }
  return segs_per_volume;
}

}  // namespace

Result<HighLightConfig> HighLightConfig::Builder::Build() const {
  RETURN_IF_ERROR(ValidateConfig(config_).status());
  return config_;
}

Result<std::unique_ptr<HighLightFs>> HighLightFs::Create(
    const HighLightConfig& config, SimClock* clock) {
  ASSIGN_OR_RETURN(const uint32_t segs_per_volume, ValidateConfig(config));
  auto hl = std::unique_ptr<HighLightFs>(new HighLightFs());
  hl->clock_ = clock;
  hl->spans_ =
      config.shared_spans != nullptr
          ? std::make_unique<SpanTracer>(config.shared_spans,
                                         config.span_track_prefix)
          : std::make_unique<SpanTracer>(clock, kSpanCapacity);
  hl->timeseries_ = std::make_unique<TimeSeriesSampler>(
      config.timeseries_cadence_us, kTimeseriesCapacity);
  hl->faults_ = std::make_unique<FaultInjector>(clock, config.fault_seed);
  hl->faults_->AttachMetrics(&hl->metrics_);
  hl->faults_->SetSpans(hl->spans_.get());
  hl->health_ = std::make_unique<HealthRegistry>(config.health);
  hl->health_->AttachMetrics(&hl->metrics_);
  hl->health_->SetSpans(hl->spans_.get());
  if (config.shared_bus) {
    hl->bus_.emplace("scsi0");
  }
  Resource* bus = hl->bus_.has_value() ? &*hl->bus_ : nullptr;

  // Disk farm.
  std::vector<BlockDevice*> components;
  for (size_t i = 0; i < config.disks.size(); ++i) {
    const auto& spec = config.disks[i];
    hl->disks_.push_back(std::make_unique<SimDisk>(
        "disk" + std::to_string(i), spec.blocks, spec.profile, clock, bus));
    hl->disks_.back()->AttachMetrics(&hl->metrics_);
    hl->disks_.back()->AttachFaults(hl->faults_.get());
    components.push_back(hl->disks_.back().get());
  }
  hl->concat_ = std::make_unique<ConcatDriver>("diskfarm", components);
  uint32_t disk_blocks = hl->concat_->NumBlocks();

  // Tertiary farm.
  std::vector<Jukebox*> jukeboxes;
  uint32_t num_volumes = 0;
  for (const auto& spec : config.jukeboxes) {
    hl->jukeboxes_.push_back(std::make_unique<Jukebox>(
        spec.profile, clock, bus, spec.write_once));
    hl->jukeboxes_.back()->AttachMetrics(&hl->metrics_);
    hl->jukeboxes_.back()->AttachFaults(hl->faults_.get());
    hl->jukeboxes_.back()->SetSpans(hl->spans_.get());
    jukeboxes.push_back(hl->jukeboxes_.back().get());
    num_volumes += spec.profile.num_slots;
  }
  const uint32_t tertiary_nsegs = num_volumes * segs_per_volume;

  hl->footprint_ = std::make_unique<Footprint>(jukeboxes);
  hl->amap_ = std::make_unique<AddressMap>(
      disk_blocks, config.lfs.seg_size_blocks, tertiary_nsegs,
      segs_per_volume);

  // Block-map driver and the file system above it.
  hl->blockmap_ = std::make_unique<BlockMapDriver>(
      hl->concat_.get(), hl->amap_.get(), kDefaultReservedBlocks,
      config.lfs.seg_size_blocks);

  LfsParams params = config.lfs;
  params.disk_blocks_override = disk_blocks;
  params.tertiary_nsegs = tertiary_nsegs;
  params.segs_per_volume = segs_per_volume;
  params.num_volumes = num_volumes;
  if (params.cache_max_segments == 0) {
    // Default: a quarter of the disk segments serve as cache lines.
    uint32_t nsegs =
        (disk_blocks - kDefaultReservedBlocks) / params.seg_size_blocks;
    params.cache_max_segments = std::max<uint32_t>(4, nsegs / 4);
  }
  ASSIGN_OR_RETURN(hl->fs_,
                   Lfs::Mkfs(hl->blockmap_.get(), clock, params));
  hl->cache_replacement_ = config.cache_replacement;
  hl->migrator_opts_ = config.migrator;
  hl->sequential_readahead_ = config.sequential_readahead;
  hl->async_read_pipeline_ = config.async_read_pipeline;
  hl->io_server_ = std::make_unique<IoServer>(
      hl->concat_.get(), hl->footprint_.get(), hl->amap_.get(), clock,
      kDefaultReservedBlocks, params.seg_size_blocks);
  hl->io_server_->AttachMetrics(&hl->metrics_);
  hl->io_server_->SetHealth(hl->health_.get());
  hl->io_server_->SetSpans(hl->spans_.get());
  RETURN_IF_ERROR(hl->WireFsComponents());

  // Time-series probes. They only *read* component state and must survive
  // Remount's teardown window (Lfs::Mount advances the clock while cache_
  // and friends are reset), hence the null checks.
  HighLightFs* self = hl.get();
  const auto permille = [](uint64_t part, uint64_t whole) -> int64_t {
    return whole == 0 ? 0 : static_cast<int64_t>(part * 1000 / whole);
  };
  hl->timeseries_->AddSeries("cache.used_lines", [self]() -> int64_t {
    return self->cache_ ? self->cache_->Used() : 0;
  });
  hl->timeseries_->AddSeries("cache.hit_permille", [self,
                                                    permille]() -> int64_t {
    if (!self->cache_) {
      return 0;
    }
    const SegmentCache::Stats s = self->cache_->Snapshot();
    return permille(s.hits, s.hits + s.misses);
  });
  hl->timeseries_->AddSeries("io.queue_depth", [self]() -> int64_t {
    return self->io_server_
               ? static_cast<int64_t>(self->io_server_->QueueDepth())
               : 0;
  });
  hl->timeseries_->AddSeries("service.demand_fetches", [self]() -> int64_t {
    return self->service_ ? static_cast<int64_t>(
                                self->service_->stats().demand_fetches)
                          : 0;
  });
  for (size_t i = 0; i < hl->disks_.size(); ++i) {
    hl->timeseries_->AddSeries(
        "disk." + hl->disks_[i]->Name() + ".busy_permille",
        [self, i, permille]() -> int64_t {
          return i < self->disks_.size()
                     ? permille(self->disks_[i]->busy_time(),
                                self->clock_->Now())
                     : 0;
        });
  }
  for (size_t i = 0; i < hl->jukeboxes_.size(); ++i) {
    hl->timeseries_->AddSeries(
        "jukebox." + hl->jukeboxes_[i]->profile().name + ".busy_permille",
        [self, i, permille]() -> int64_t {
          return i < self->jukeboxes_.size()
                     ? permille(self->jukeboxes_[i]->busy_time(),
                                self->clock_->Now())
                     : 0;
        });
  }
  hl->tick_hook_id_ = clock->AddTickHook(
      [self](SimTime now) { self->timeseries_->Poll(now); });
  return hl;
}

HighLightFs::~HighLightFs() {
  if (clock_ != nullptr) {
    clock_->RemoveTickHook(tick_hook_id_);
  }
}

Status HighLightFs::WireFsComponents() {
  cache_ = std::make_unique<SegmentCache>(fs_.get(), cache_replacement_);
  RETURN_IF_ERROR(cache_->Init());
  cache_->AttachMetrics(&metrics_);
  cache_->SetSpans(spans_.get());
  blockmap_->SetCache(cache_.get());
  blockmap_->AttachMetrics(&metrics_);
  blockmap_->SetSpans(spans_.get());

  tsegs_ = std::make_unique<TsegTable>(fs_.get(), amap_.get());
  RETURN_IF_ERROR(tsegs_->Load());
  tsegs_->AttachMetrics(&metrics_);
  fs_->SetTertiaryAccounting(
      [tsegs = tsegs_.get()](uint32_t daddr, int64_t delta) {
        tsegs->OnAccounting(daddr, delta);
      });

  io_server_->SetReplicaResolver([tsegs = tsegs_.get()](uint32_t tseg) {
    return tsegs->ReplicasOf(tseg);
  });
  // The CRC catalog lives in the (rebuilt-on-remount) tseg table; the I/O
  // server stamps entries on copy-out and verifies them on every fetch.
  io_server_->SetCrcHooks(
      [tsegs = tsegs_.get()](uint32_t tseg, uint32_t* crc) {
        return tsegs->CrcOf(tseg, crc);
      },
      [tsegs = tsegs_.get()](uint32_t tseg, uint32_t crc) {
        tsegs->SetCrc(tseg, crc);
      });

  service_ = std::make_unique<ServiceProcess>(cache_.get(), io_server_.get(),
                                              clock_);
  service_->AttachMetrics(&metrics_);
  service_->SetSpans(spans_.get());
  service_->set_sequential_readahead(sequential_readahead_);
  service_->set_async_read_pipeline(async_read_pipeline_);
  // Read-ahead only chases segments that exist, hold data, and are primaries
  // (replica tsegs are never addressed by file pointers).
  service_->SetReadaheadFilter([tsegs = tsegs_.get()](uint32_t tseg) {
    if (tseg >= tsegs->size()) {
      return false;
    }
    const SegUsage& u = tsegs->Get(tseg);
    return !(u.flags & kSegClean) && !(u.flags & kSegReplica);
  });
  blockmap_->SetFetchHandler([service = service_.get()](uint32_t tseg) {
    return service->DemandFetch(tseg).status();
  });

  migrator_ = std::make_unique<Migrator>(fs_.get(), blockmap_.get(),
                                         cache_.get(), io_server_.get(),
                                         tsegs_.get(), amap_.get(), clock_);
  migrator_->AttachMetrics(&metrics_);
  migrator_->SetHealth(health_.get());
  migrator_->SetSpans(spans_.get());
  // A remount mid-delayed-copyout leaves staging lines whose segments the
  // new migrator instance must still copy out.
  RETURN_IF_ERROR(migrator_->RecoverStaging());

  tertiary_cleaner_ = std::make_unique<TertiaryCleaner>(
      fs_.get(), blockmap_.get(), migrator_.get(), cache_.get(),
      service_.get(), tsegs_.get(), amap_.get(), footprint_.get());
  tertiary_cleaner_->AttachMetrics(&metrics_);
  tertiary_cleaner_->SetSpans(spans_.get());

  scrubber_ = std::make_unique<Scrubber>(footprint_.get(), tsegs_.get(),
                                         amap_.get(), clock_);
  scrubber_->SetHealth(health_.get());
  scrubber_->AttachMetrics(&metrics_);
  scrubber_->SetSpans(spans_.get());

  access_tracker_ = std::make_unique<AccessRangeTracker>();
  fs_->SetReadObserver([tracker = access_tracker_.get(),
                        clock = clock_](uint32_t ino, uint32_t lbn,
                                        uint32_t count) {
    tracker->RecordRead(ino, lbn, count, clock->Now());
  });

  cleaner_ = std::make_unique<Cleaner>(fs_.get());
  cleaner_->AttachMetrics(&metrics_);
  cleaner_->SetSpans(spans_.get());
  return OkStatus();
}

Status HighLightFs::AddDisk(const HighLightConfig::DiskSpec& spec) {
  Resource* bus = bus_.has_value() ? &*bus_ : nullptr;
  disks_.push_back(std::make_unique<SimDisk>(
      "disk" + std::to_string(disks_.size()), spec.blocks, spec.profile,
      clock_, bus));
  disks_.back()->AttachMetrics(&metrics_);
  disks_.back()->AttachFaults(faults_.get());
  concat_->AddComponent(disks_.back().get());
  RETURN_IF_ERROR(amap_->GrowDisk(concat_->NumBlocks()));
  return fs_->ExtendDisk(concat_->NumBlocks());
}

Status HighLightFs::Remount() {
  // Tear down everything holding an Lfs pointer, then re-mount from media.
  scrubber_.reset();  // Holds the tseg table (and its CRC catalog).
  migrator_.reset();
  cleaner_.reset();
  service_.reset();
  tsegs_.reset();
  cache_.reset();
  blockmap_->SetCache(nullptr);
  blockmap_->SetFetchHandler(nullptr);
  fs_.reset();
  LfsParams params;  // Geometry is re-read from the superblock.
  ASSIGN_OR_RETURN(fs_, Lfs::Mount(blockmap_.get(), clock_, params));
  spans_->Instant("remount", "highlight");
  return WireFsComponents();
}

Result<MigrationReport> HighLightFs::Migrate(const MigrationRequest& request) {
  if (request.policy != nullptr && request.cold_cutoff.has_value()) {
    return InvalidArgument(
        "MigrationRequest: policy and cold_cutoff are mutually exclusive");
  }
  const MigratorOptions opts =
      request.options.has_value() ? *request.options : migrator_opts_;

  if (request.policy != nullptr) {
    return migrator_->RunPolicy(*request.policy, request.path,
                                request.bytes_target, opts);
  }
  ASSIGN_OR_RETURN(std::vector<uint32_t> inos, FilesAt(*fs_, request.path));
  if (request.cold_cutoff.has_value()) {
    return MigrateColdRanges(inos, *request.cold_cutoff, opts);
  }
  // Wholesale subtree (or single-file) migration.
  return migrator_->MigrateFiles(inos, opts);
}

Result<MigrationReport> HighLightFs::MigrateColdRanges(
    const std::vector<uint32_t>& inos, SimTime cutoff,
    const MigratorOptions& opts) {
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> cold;
  for (uint32_t ino : inos) {
    ASSIGN_OR_RETURN(StatInfo st, fs_->Stat(ino));
    if (st.mtime >= cutoff) {
      continue;  // Unstable file: let it settle first.
    }
    uint32_t file_blocks = static_cast<uint32_t>(
        (st.size + kBlockSize - 1) / kBlockSize);
    std::vector<uint32_t> lbns =
        access_tracker_->ColdBlocks(ino, file_blocks, cutoff);
    if (!lbns.empty()) {
      cold.emplace_back(ino, std::move(lbns));
    }
  }
  if (cold.empty()) {
    return MigrationReport{};  // Nothing cold: no pass.
  }
  return migrator_->MigrateBlocks(cold, opts);
}

bool HighLightFs::SegmentCached(uint32_t tseg) const {
  // Pure directory query (Lookup counts no hit/miss statistics); a line
  // whose install is still in flight does count as cached — the recall will
  // ride the existing fetch instead of paying new drive time.
  return cache_->Lookup(tseg) != kNoSegment;
}

uint32_t HighLightFs::TertiarySegments() const {
  return amap_->tertiary_nsegs();
}

std::vector<uint32_t> HighLightFs::FetchableSegments() const {
  std::vector<uint32_t> out;
  for (uint32_t tseg = 0; tseg < tsegs_->size(); ++tseg) {
    const SegUsage& u = tsegs_->Get(tseg);
    if (!(u.flags & kSegClean) && !(u.flags & kSegReplica)) {
      out.push_back(tseg);
    }
  }
  return out;
}

Result<FetchOutcome> HighLightFs::FetchSegment(uint32_t tseg) {
  const SimTime t0 = clock_->Now();
  Result<SimTime> served = service_->DemandFetch(tseg);
  // A failed fetch reports the time it took to fail.
  return FetchOutcome{tseg, served.status(),
                      served.ok() ? *served : clock_->Now() - t0};
}

Result<std::vector<FetchOutcome>> HighLightFs::FetchBatch(
    const std::vector<uint32_t>& tsegs) {
  return service_->DemandFetchBatch(tsegs);
}

Result<uint32_t> HighLightFs::ScrubStep(uint32_t max_segments) {
  ASSIGN_OR_RETURN(Scrubber::Report report,
                   scrubber_->ScrubStep(max_segments));
  return report.scanned;
}

uint64_t HighLightFs::MediaSwaps() const {
  return footprint_->TotalMediaSwaps();
}

uint64_t HighLightFs::SegmentImageBytes() const { return amap_->SegBytes(); }

std::vector<uint32_t> HighLightFs::ReplicableSegments() const {
  // Same population as FetchableSegments: dirty primaries. Peers replicate
  // primaries only; local replica segments are a single-site redundancy
  // scheme the peer rebuilds for itself.
  return FetchableSegments();
}

Result<std::vector<uint8_t>> HighLightFs::ReadSegmentImage(uint32_t tseg) {
  if (tseg >= tsegs_->size()) {
    return InvalidArgument("ReadSegmentImage: tseg out of range");
  }
  std::vector<uint8_t> image(amap_->SegBytes());
  RETURN_IF_ERROR(footprint_->Read(
      static_cast<int>(amap_->VolumeOfTseg(tseg)),
      amap_->ByteOffsetOnVolume(tseg), std::span<uint8_t>(image)));
  return image;
}

Status HighLightFs::InstallSegmentImage(uint32_t tseg,
                                        std::span<const uint8_t> image) {
  if (tseg >= tsegs_->size()) {
    return InvalidArgument("InstallSegmentImage: tseg out of range");
  }
  if (image.size() != amap_->SegBytes()) {
    return InvalidArgument("InstallSegmentImage: image size mismatch");
  }
  const uint32_t volume = amap_->VolumeOfTseg(tseg);
  const uint64_t offset = amap_->ByteOffsetOnVolume(tseg);
  uint32_t crc = 0;
  Status wrote = footprint_->RepairWrite(static_cast<int>(volume), offset,
                                         image, &crc);
  if (wrote.code() == ErrorCode::kOutOfRange) {
    // Past the volume's high-water mark: the medium was erased (or is
    // virgin) — a disaster rebuild, not an in-place repair. The normal
    // write path lays the segment back down and re-extends the mark.
    wrote = footprint_->Write(static_cast<int>(volume), offset, image, &crc);
  }
  RETURN_IF_ERROR(wrote);
  tsegs_->SetCrc(tseg, crc);
  return OkStatus();
}

bool HighLightFs::SegmentCrc(uint32_t tseg, uint32_t* crc) const {
  return tsegs_->CrcOf(tseg, crc);
}

void HighLightFs::StampSegmentCrc(uint32_t tseg, uint32_t crc) {
  if (tseg < tsegs_->size()) {
    tsegs_->SetCrc(tseg, crc);
  }
}

namespace {
constexpr const char* kSiteBlobDir = "/.site";
}  // namespace

Status HighLightFs::PersistBlob(const std::string& name,
                                std::span<const uint8_t> data) {
  Result<uint32_t> dir = fs_->Mkdir(kSiteBlobDir);
  if (!dir.ok() && dir.status().code() != ErrorCode::kExists) {
    return dir.status();
  }
  const std::string path = std::string(kSiteBlobDir) + "/" + name;
  Result<uint32_t> ino = fs_->LookupPath(path);
  if (!ino.ok()) {
    if (ino.status().code() != ErrorCode::kNotFound) {
      return ino.status();
    }
    ino = fs_->Create(path);
    RETURN_IF_ERROR(ino.status());
  }
  RETURN_IF_ERROR(fs_->Truncate(*ino, 0));
  RETURN_IF_ERROR(fs_->Write(*ino, 0, data));
  return fs_->Sync();
}

Result<std::vector<uint8_t>> HighLightFs::LoadBlob(const std::string& name) {
  const std::string path = std::string(kSiteBlobDir) + "/" + name;
  ASSIGN_OR_RETURN(uint32_t ino, fs_->LookupPath(path));
  ASSIGN_OR_RETURN(StatInfo st, fs_->Stat(ino));
  std::vector<uint8_t> data(st.size);
  ASSIGN_OR_RETURN(size_t n,
                   fs_->Read(ino, 0, std::span<uint8_t>(data)));
  data.resize(n);
  return data;
}

Result<uint32_t> HighLightFs::CleanUntil(uint32_t want_clean) {
  return cleaner_->CleanUntil(want_clean);
}

HighLightFs::InternalsView HighLightFs::Internals() {
  return InternalsView{*migrator_,       *cleaner_, *tertiary_cleaner_,
                       *scrubber_,       *faults_,  *health_,
                       *cache_,          *io_server_, *service_,
                       *tsegs_,          *amap_,    *blockmap_,
                       *footprint_,      *access_tracker_,
                       &disks_,          &jukeboxes_};
}

void HighLightFs::RefreshDerivedGauges() {
  const SimTime elapsed = clock_->Now();
  const auto permille = [](uint64_t part, uint64_t whole) -> int64_t {
    return whole == 0 ? 0 : static_cast<int64_t>(part * 1000 / whole);
  };

  for (const auto& disk : disks_) {
    const std::string prefix = "disk." + disk->Name() + ".";
    metrics_.gauge(prefix + "busy_us")
        .Set(static_cast<int64_t>(disk->busy_time()));
    metrics_.gauge(prefix + "busy_permille")
        .Set(permille(disk->busy_time(), elapsed));
  }
  for (const auto& jb : jukeboxes_) {
    const std::string prefix = "jukebox." + jb->profile().name + ".";
    metrics_.gauge(prefix + "busy_us")
        .Set(static_cast<int64_t>(jb->busy_time()));
    metrics_.gauge(prefix + "busy_permille")
        .Set(permille(jb->busy_time(), elapsed));
  }
  metrics_.gauge("footprint.media_swaps")
      .Set(static_cast<int64_t>(footprint_->TotalMediaSwaps()));

  const SegmentCache::Stats cs = cache_->Snapshot();
  metrics_.gauge("cache.hit_permille")
      .Set(permille(cs.hits, cs.hits + cs.misses));
  metrics_.gauge("cache.used_lines").Set(cache_->Used());
  metrics_.gauge("cache.capacity_lines").Set(cache_->Capacity());

  // Prefetch accuracy: speculative fetches (policy prefetches + sequential
  // read-aheads) that served a later demand access, over all issued.
  const ServiceProcess::Stats& ss = service_->stats();
  const uint64_t speculative = cs.prefetches_installed + ss.readaheads_issued;
  const uint64_t useful = cs.prefetches_used + ss.readaheads_consumed;
  metrics_.gauge("prefetch.accuracy_permille")
      .Set(permille(useful, speculative));

  const Lfs::Stats& ls = fs_->stats();
  metrics_.gauge("lfs.psegs_written").Set(static_cast<int64_t>(ls.psegs_written));
  metrics_.gauge("lfs.blocks_written")
      .Set(static_cast<int64_t>(ls.blocks_written));
  metrics_.gauge("lfs.inode_blocks_written")
      .Set(static_cast<int64_t>(ls.inode_blocks_written));
  metrics_.gauge("lfs.summary_blocks_written")
      .Set(static_cast<int64_t>(ls.summary_blocks_written));
  metrics_.gauge("lfs.reads_clustered")
      .Set(static_cast<int64_t>(ls.reads_clustered));
  metrics_.gauge("lfs.segments_consumed")
      .Set(static_cast<int64_t>(ls.segments_consumed));
  metrics_.gauge("lfs.clean_segments").Set(fs_->CleanSegmentCount());
  metrics_.gauge("lfs.dirty_bytes").Set(static_cast<int64_t>(fs_->DirtyBytes()));

  const MigrationReport& mr = migrator_->lifetime_report();
  metrics_.gauge("migrator.files_migrated").Set(mr.files_migrated);
  metrics_.gauge("migrator.blocks_migrated")
      .Set(static_cast<int64_t>(mr.blocks_migrated));
  metrics_.gauge("migrator.bytes_migrated")
      .Set(static_cast<int64_t>(mr.bytes_migrated));
  metrics_.gauge("migrator.segments_completed").Set(mr.segments_completed);
  metrics_.gauge("migrator.eom_retargets").Set(mr.eom_retargets);
  metrics_.gauge("migrator.blocks_skipped").Set(mr.blocks_skipped);

  metrics_.gauge("health.quarantined_volumes")
      .Set(static_cast<int64_t>(health_->QuarantinedVolumes().size()));
  metrics_.gauge("health.suspect_entities")
      .Set(static_cast<int64_t>(health_->CountInState(HealthState::kSuspect)));
  metrics_.gauge("scrub.lost_segments")
      .Set(static_cast<int64_t>(scrubber_->LostSegments().size()));
  metrics_.gauge("tertiary.crcs_tracked")
      .Set(static_cast<int64_t>(tsegs_->CrcCount()));

  for (const auto& [phase, total] : io_server_->phases().totals()) {
    metrics_.gauge("phase." + phase + "_us").Set(static_cast<int64_t>(total));
  }

  // Engine arena telemetry: sizes of the allocation-free hot-path pools
  // (docs/METRICS.md "engine.*"). Steady-state growth here means a pool is
  // not actually recycling.
  metrics_.gauge("engine.interned_strings")
      .Set(static_cast<int64_t>(spans_->interned_strings()));
  metrics_.gauge("engine.span_window_bytes")
      .Set(static_cast<int64_t>(spans_->window_bytes()));
  metrics_.gauge("engine.buffer_arena_bytes")
      .Set(static_cast<int64_t>(fs_->buffer_cache().arena_bytes()));
}

MetricsSnapshot HighLightFs::Metrics() {
  RefreshDerivedGauges();
  return metrics_.Snapshot();
}

Status HighLightFs::DropCleanCacheLines() {
  // Benchmarks use this to force genuinely uncached tertiary access; a
  // held read-ahead image (or a still-queued prefetch read) would
  // defeat that. Cancelling first also unpins prefetch install lines.
  service_->DropPendingPrefetches();
  for (const SegmentCache::LineInfo& line : cache_->Lines()) {
    if (!line.staging && !cache_->Installing(line.tseg)) {
      RETURN_IF_ERROR(cache_->Eject(line.tseg));
    }
  }
  fs_->FlushBufferCache();
  return OkStatus();
}

}  // namespace hl

#include "highlight/migrator.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace hl {

void Migrator::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  retargets_.BindTo(*registry, "migrator.retargets");
  volumes_retired_.BindTo(*registry, "migrator.volumes_retired");
}

std::set<uint32_t> Migrator::ExcludedVolumes() const {
  std::set<uint32_t> excluded = full_volumes_;
  if (health_ != nullptr) {
    const std::set<uint32_t>& quarantined = health_->QuarantinedVolumes();
    excluded.insert(quarantined.begin(), quarantined.end());
  }
  return excluded;
}

Status Migrator::EnsureStagingSegment(const MigratorOptions& opts) {
  if (cur_tseg_ != kNoSegment) {
    return OkStatus();
  }
  for (int attempt = 0;; ++attempt) {
    uint32_t tseg =
        tsegs_->NextFreshTseg(ExcludedVolumes(), opts.preferred_volume);
    if (tseg == kNoSegment) {
      return Status(ErrorCode::kNoVolume, "tertiary storage exhausted");
    }
    Result<uint32_t> disk_seg = cache_->AllocLine(tseg, /*staging=*/true);
    if (disk_seg.status().code() == ErrorCode::kBusy && attempt == 0) {
      // Every line is pinned by staged segments awaiting copy-out. Staging
      // never pins more lines than the cache has: copy them out, then pick
      // again (a retarget may have taken `tseg`).
      RETURN_IF_ERROR(CopyOutStaged());
      continue;
    }
    RETURN_IF_ERROR(disk_seg.status());
    cur_tseg_ = tseg;
    cur_offset_ = 0;
    tsegs_->SetFlags(tseg, kSegDirty, kSegClean);
    tsegs_->SetWriteTime(tseg, clock_->Now());
    StagedSegment record;
    record.tseg = tseg;
    record.disk_seg = *disk_seg;
    staged_[tseg] = std::move(record);
    return OkStatus();
  }
}

Status Migrator::FinishPseg() {
  if (builder_ == nullptr || builder_->empty()) {
    builder_.reset();
    return OkStatus();
  }
  ASSIGN_OR_RETURN(SegmentBuilder::Image image, builder_->Finish());
  builder_.reset();
  // The write routes through the block-map driver into the staging cache
  // line (the addresses are tertiary). Its time lands in the "ioserver"
  // bucket: Table 4 folds all migration-path disk work into the "I/O server
  // read" component.
  SimTime t0 = clock_->Now();
  Status wrote =
      dev_->WriteBlocks(image.base_daddr, image.num_blocks, image.bytes);
  io_->phases().Add(io_->phase_ioserver(), clock_->Now() - t0);
  if (!wrote.ok()) {
    // The staging write failed after pointers were flipped onto these
    // addresses. Re-dirty the blocks so the next sync re-homes them on disk
    // (superseding the dangling tertiary pointers).
    for (const auto& ba : image.blocks) {
      std::span<const uint8_t> block = image.bytes.subspan(
          static_cast<size_t>(ba.daddr - image.base_daddr) * kBlockSize,
          kBlockSize);
      std::vector<uint8_t> bytes(block.begin(), block.end());
      Result<DInode> inode = fs_->GetInode(ba.ino);
      uint32_t version = inode.ok() ? inode->version : 0;
      (void)fs_->RewriteBlocks(
          {BlockRef{ba.ino, version, ba.lbn, ba.daddr}}, {std::move(bytes)});
    }
    return wrote;
  }
  cur_offset_ += image.num_blocks;
  // Inode placements become definite only now.
  for (const auto& ia : image.inodes) {
    RETURN_IF_ERROR(fs_->ApplyInodeMigration(ia.ino, ia.daddr));
    staged_[cur_tseg_].inode_moves[ia.ino] = ia.daddr;
  }
  return OkStatus();
}

Status Migrator::CompleteSegment(const MigratorOptions& opts) {
  RETURN_IF_ERROR(FinishPseg());
  if (cur_tseg_ == kNoSegment) {
    return OkStatus();
  }
  uint32_t tseg = cur_tseg_;
  cur_tseg_ = kNoSegment;
  cur_offset_ = 0;
  SpanScope span(spans_, "complete_segment", "migrator");
  span.Annotate("tseg", std::to_string(tseg));
  lifetime_.segments_completed++;
  staged_[tseg].replicas = opts.replicas;
  // The kernel's copy-out request to the service process (Table 4 queuing).
  SimTime t0 = clock_->Now();
  clock_->Advance(kKernelRequestUs);
  io_->phases().Add(io_->phase_queuing(), clock_->Now() - t0);
  if (opts.delayed_copyout) {
    return OkStatus();
  }
  RETURN_IF_ERROR(EnqueueCopyOut(tseg));
  // Without write-behind the migrator waits for the copy-out (and its
  // replicas and retargets) to land before staging on.
  return opts.write_behind ? OkStatus() : DrainCopyOuts();
}

Status Migrator::DrainCopyOuts() {
  RETURN_IF_ERROR(io_->Drain());
  Status deferred = pipeline_error_;
  pipeline_error_ = OkStatus();
  return deferred;
}

void Migrator::RetireVolume(uint32_t volume) {
  ++volumes_retired_;
  if (tsegs_->CleanCount(volume) == 0) {
    return;  // Nothing left to retire on this volume.
  }
  // Persistently retire the volume's unused segments.
  uint32_t first = amap_->FirstTsegOfVolume(volume);
  for (uint32_t i = 0; i < amap_->segs_per_volume(); ++i) {
    uint32_t t = first + i;
    if (tsegs_->Get(t).flags & kSegClean) {
      tsegs_->SetFlags(t, kSegDirty, kSegClean);
      tsegs_->SetAvailBytes(t, 0);
    }
  }
}

Status Migrator::FinishCopiedSegment(uint32_t tseg) {
  RETURN_IF_ERROR(cache_->MarkCopiedOut(tseg));
  staged_.erase(tseg);
  return OkStatus();
}

Status Migrator::EnqueueCopyOut(uint32_t tseg) {
  auto it = staged_.find(tseg);
  if (it == staged_.end()) {
    return NotFound("no staged segment " + std::to_string(tseg));
  }
  if (it->second.enqueued) {
    return OkStatus();
  }
  it->second.enqueued = true;
  return io_->EnqueueCopyOut(
      tseg, it->second.disk_seg,
      [this, tseg](const Status& s) { OnCopyOutDone(tseg, s); });
}

void Migrator::OnCopyOutDone(uint32_t tseg, const Status& s) {
  auto it = staged_.find(tseg);
  if (it == staged_.end()) {
    return;
  }
  if (s.ok()) {
    if (it->second.replicas > 0) {
      // The line must stay pinned until the replica writes have read it.
      auto exclude = std::make_shared<std::set<uint32_t>>(ExcludedVolumes());
      exclude->insert(amap_->VolumeOfTseg(tseg));
      EnqueueReplicaChain(tseg, it->second.disk_seg, it->second.replicas,
                          it->second.replicas + 8, exclude);
      return;
    }
    Status done = FinishCopiedSegment(tseg);
    if (!done.ok() && pipeline_error_.ok()) {
      pipeline_error_ = done;
    }
    return;
  }
  if (s.code() == ErrorCode::kEndOfMedium) {
    // The volume filled mid-segment (uncertain capacity): mark it full and
    // re-write the whole segment onto the next volume (paper section 6.3);
    // the re-keyed segment goes back on the queue.
    uint32_t volume = amap_->VolumeOfTseg(tseg);
    full_volumes_.insert(volume);
    RetireVolume(volume);
    lifetime_.eom_retargets++;
    Result<uint32_t> renamed = RetargetSegment(tseg);
    if (!renamed.ok()) {
      if (pipeline_error_.ok()) {
        pipeline_error_ = renamed.status();
      }
      it = staged_.find(tseg);
      if (it != staged_.end()) {
        it->second.enqueued = false;
      }
      return;
    }
    staged_[*renamed].enqueued = false;
    Status requeued = EnqueueCopyOut(*renamed);
    if (!requeued.ok() && pipeline_error_.ok()) {
      pipeline_error_ = requeued;
    }
    return;
  }
  // Transient I/O error: keep the record staged (the line stays the only
  // copy); FlushStaging re-queues it and reports the error.
  it->second.enqueued = false;
  if (pipeline_error_.ok()) {
    pipeline_error_ = s;
  }
}

void Migrator::EnqueueReplicaChain(uint32_t primary, uint32_t disk_seg,
                                   int remaining, int attempts_left,
                                   std::shared_ptr<std::set<uint32_t>> exclude) {
  if (remaining <= 0 || attempts_left <= 0) {
    Status done = FinishCopiedSegment(primary);
    if (!done.ok() && pipeline_error_.ok()) {
      pipeline_error_ = done;
    }
    return;
  }
  uint32_t replica = tsegs_->NextFreshTseg(*exclude);
  if (replica == kNoSegment) {
    HL_LOG(kWarn, "migrator", "no volume available for a replica copy");
    EnqueueReplicaChain(primary, disk_seg, 0, 0, std::move(exclude));
    return;
  }
  Status enq = io_->EnqueueReplicaWrite(
      replica, disk_seg,
      [this, primary, disk_seg, replica, remaining, attempts_left,
       exclude](const Status& s) {
        if (s.ok()) {
          tsegs_->SetReplicaOf(replica, primary);
          tsegs_->SetWriteTime(replica, clock_->Now());
          exclude->insert(amap_->VolumeOfTseg(replica));
          EnqueueReplicaChain(primary, disk_seg, remaining - 1,
                              attempts_left - 1, exclude);
          return;
        }
        // Best effort, but not first-failure-fatal: exclude the volume and
        // retry the remaining count elsewhere.
        uint32_t volume = amap_->VolumeOfTseg(replica);
        if (s.code() == ErrorCode::kEndOfMedium) {
          full_volumes_.insert(volume);
          RetireVolume(volume);
        }
        HL_LOG(kWarn, "migrator",
               "replica write failed, trying another volume: " + s.ToString());
        exclude->insert(volume);
        EnqueueReplicaChain(primary, disk_seg, remaining, attempts_left - 1,
                            exclude);
      });
  if (!enq.ok() && pipeline_error_.ok()) {
    pipeline_error_ = enq;
  }
}

Result<uint32_t> Migrator::RetargetSegment(uint32_t old_tseg) {
  auto old_it = staged_.find(old_tseg);
  if (old_it == staged_.end()) {
    return NotFound("no staged segment " + std::to_string(old_tseg));
  }
  uint32_t new_tseg = tsegs_->NextFreshTseg(ExcludedVolumes());
  if (new_tseg == kNoSegment) {
    return Status(ErrorCode::kNoVolume,
                  "no volume available to re-target segment");
  }
  SpanScope span(spans_, "retarget", "migrator");
  span.Annotate("old_tseg", std::to_string(old_tseg));
  span.Annotate("new_tseg", std::to_string(new_tseg));
  int64_t delta = static_cast<int64_t>(amap_->TsegBase(new_tseg)) -
                  static_cast<int64_t>(amap_->TsegBase(old_tseg));
  uint32_t spb = fs_->superblock().seg_size_blocks;

  // Read the staged image (still registered under the old tseg), patch every
  // partial-segment summary's embedded inode-block addresses, and re-write
  // it under the new tseg.
  std::vector<uint8_t> image(static_cast<size_t>(spb) * kBlockSize);
  RETURN_IF_ERROR(dev_->ReadBlocks(amap_->TsegBase(old_tseg), spb, image));

  uint32_t offset = 0;
  while (offset + 1 <= spb) {
    std::span<uint8_t> sumblock(
        image.data() + static_cast<size_t>(offset) * kBlockSize, kBlockSize);
    Result<SegSummary> sum = SegSummary::DeserializeFromBlock(sumblock);
    if (!sum.ok()) {
      break;
    }
    uint32_t total = 1 + sum->TotalDataBlocks() +
                     static_cast<uint32_t>(sum->inode_daddrs.size());
    if (offset + total > spb) {
      break;
    }
    for (uint32_t& daddr : sum->inode_daddrs) {
      daddr = static_cast<uint32_t>(daddr + delta);
    }
    RETURN_IF_ERROR(sum->SerializeToBlock(sumblock));
    offset += total;
  }

  RETURN_IF_ERROR(cache_->Retag(old_tseg, new_tseg));
  RETURN_IF_ERROR(
      dev_->WriteBlocks(amap_->TsegBase(new_tseg), spb, image));

  // Rebase the file-system pointers.
  StagedSegment updated = old_it->second;
  std::vector<Lfs::MigrationAssignment> rebased;
  rebased.reserve(updated.moves.size());
  for (const Lfs::MigrationAssignment& m : updated.moves) {
    rebased.push_back(Lfs::MigrationAssignment{
        m.ino, m.lbn, m.new_daddr,
        static_cast<uint32_t>(m.new_daddr + delta)});
    RETURN_IF_ERROR(fs_->ApplyMigration(rebased.back()).status());
  }
  std::map<uint32_t, uint32_t> new_inode_moves;
  for (const auto& [ino, daddr] : updated.inode_moves) {
    uint32_t moved = static_cast<uint32_t>(daddr + delta);
    RETURN_IF_ERROR(fs_->ApplyInodeMigration(ino, moved));
    new_inode_moves[ino] = moved;
  }

  tsegs_->SetFlags(new_tseg, kSegDirty, kSegClean);
  tsegs_->SetWriteTime(new_tseg, clock_->Now());

  updated.tseg = new_tseg;
  updated.moves = std::move(rebased);
  updated.inode_moves = std::move(new_inode_moves);
  staged_.erase(old_tseg);
  staged_.emplace(new_tseg, std::move(updated));
  ++retargets_;
  return new_tseg;
}

Status Migrator::ReserveStaging(uint32_t ino, bool inode,
                                const MigratorOptions& opts) {
  RETURN_IF_ERROR(EnsureStagingSegment(opts));
  while (true) {
    if (builder_ == nullptr) {
      uint32_t spb = fs_->superblock().seg_size_blocks;
      if (cur_offset_ + 2 > spb) {
        RETURN_IF_ERROR(CompleteSegment(opts));
        RETURN_IF_ERROR(EnsureStagingSegment(opts));
        continue;
      }
      builder_ = std::make_unique<SegmentBuilder>(
          &arena_, amap_->TsegBase(cur_tseg_) + cur_offset_,
          spb - cur_offset_, kNoSegment,
          static_cast<uint32_t>(clock_->Now() / kUsPerSec), staging_serial_++);
    }
    if (inode ? builder_->CanAddInode() : builder_->CanAddBlock(ino)) {
      return OkStatus();
    }
    RETURN_IF_ERROR(FinishPseg());
  }
}

Status Migrator::StageInode(uint32_t ino, const MigratorOptions& opts) {
  RETURN_IF_ERROR(ReserveStaging(ino, /*inode=*/true, opts));
  ASSIGN_OR_RETURN(DInode inode, fs_->GetInode(ino));
  return builder_->AddInode(inode).status();
}

Result<bool> Migrator::StageAndFlip(const BlockRef& ref,
                                    std::span<const uint8_t> bytes,
                                    const MigratorOptions& opts,
                                    MigrationReport& report) {
  RETURN_IF_ERROR(ReserveStaging(ref.ino, /*inode=*/false, opts));
  ASSIGN_OR_RETURN(uint32_t new_daddr,
                   builder_->AddBlock(ref.ino, ref.version, ref.lbn, bytes));
  Lfs::MigrationAssignment move{ref.ino, ref.lbn, ref.daddr, new_daddr};
  ASSIGN_OR_RETURN(bool applied, fs_->ApplyMigration(move));
  if (!applied) {
    report.blocks_skipped++;
    return false;
  }
  auto it = staged_.find(amap_->TsegOf(new_daddr));
  if (it != staged_.end()) {
    it->second.moves.push_back(move);
  }
  report.blocks_migrated++;
  report.bytes_migrated += kBlockSize;
  return true;
}

void Migrator::KeepDiskResident(std::vector<BlockRef>& refs,
                                MigrationReport& report) const {
  report.blocks_skipped += static_cast<uint32_t>(
      std::erase_if(refs, [this](const BlockRef& ref) {
        return ref.daddr == kNoBlock ||
               amap_->Classify(ref.daddr) == AddressMap::Zone::kTertiary;
      }));
}

Result<bool> Migrator::StageBlocks(const std::vector<BlockRef>& refs,
                                   bool skip_unreadable,
                                   const MigratorOptions& opts,
                                   MigrationReport& report) {
  bool moved_any = false;
  for (const BlockRef& ref : refs) {
    // Each block is read just before it is staged, so metadata staged after
    // earlier pointer flips carries the tertiary addresses. Reads route
    // through the segment cache (demand-fetching a tertiary source).
    SimTime t0 = clock_->Now();
    Result<std::pair<std::vector<uint8_t>, uint32_t>> block =
        fs_->ReadFileBlock(ref.ino, ref.lbn);
    io_->phases().Add(io_->phase_ioserver(), clock_->Now() - t0);
    if (!block.ok()) {
      if (!skip_unreadable) {
        return block.status();
      }
      report.blocks_skipped++;
      continue;
    }
    if (block->second != ref.daddr) {
      report.blocks_skipped++;  // Moved since the caller selected it.
      continue;
    }
    ASSIGN_OR_RETURN(bool moved, StageAndFlip(ref, block->first, opts, report));
    moved_any |= moved;
  }
  return moved_any;
}

Status Migrator::MigrateOneFile(uint32_t ino, const MigratorOptions& opts,
                                MigrationReport& report) {
  if (ino == kIfileInode || ino == kTsegInode || ino == kRootInode) {
    // Special files always remain on disk (section 6.4); so does the root.
    return OkStatus();
  }
  SpanScope span(spans_, "migrate_file", "migrator");
  span.Annotate("ino", std::to_string(ino));
  const uint64_t blocks_before = report.blocks_migrated;
  ASSIGN_OR_RETURN(std::vector<BlockRef> refs, fs_->CollectFileBlocks(ino));
  // Migrating the inode of a file whose indirect blocks stay on disk would
  // freeze stale indirect pointers on tertiary media; force metadata along.
  bool has_meta = std::any_of(refs.begin(), refs.end(), [](const BlockRef& r) {
    return IsMetaLbn(r.lbn);
  });
  MigratorOptions eff = opts;
  if (opts.migrate_inode && has_meta) {
    eff.migrate_metadata = true;
  }
  if (!eff.migrate_metadata) {
    std::erase_if(refs, [](const BlockRef& r) { return IsMetaLbn(r.lbn); });
  }
  KeepDiskResident(refs, report);
  ASSIGN_OR_RETURN(bool migrated_any,
                   StageBlocks(refs, /*skip_unreadable=*/false, eff, report));

  if (eff.migrate_inode) {
    // Re-staging an inode that is already tertiary-resident (and whose
    // blocks did not move this round) would duplicate it for nothing.
    ASSIGN_OR_RETURN(uint32_t inode_daddr, fs_->InodeDaddr(ino));
    bool inode_on_disk =
        amap_->Classify(inode_daddr) == AddressMap::Zone::kDisk;
    if (migrated_any || inode_on_disk) {
      RETURN_IF_ERROR(StageInode(ino, eff));
      migrated_any = true;
    }
  }
  if (migrated_any) {
    report.files_migrated++;
    span.Annotate("blocks",
                  std::to_string(report.blocks_migrated - blocks_before));
  }
  return OkStatus();
}

Status Migrator::ReMigrateFileBlocks(uint32_t ino,
                                     const std::vector<BlockRef>& refs,
                                     bool restage_inode,
                                     const MigratorOptions& opts,
                                     MigrationReport& report) {
  ASSIGN_OR_RETURN(bool migrated_any,
                   StageBlocks(refs, /*skip_unreadable=*/true, opts, report));
  if (restage_inode) {
    RETURN_IF_ERROR(StageInode(ino, opts));
    migrated_any = true;
  }
  if (migrated_any) {
    report.files_migrated++;
  }
  return OkStatus();
}

Result<MigrationReport> Migrator::EndPass(const MigratorOptions& opts,
                                          const MigrationReport& start,
                                          MigrationReport report) {
  // Complete the trailing (possibly partial) staging segment.
  RETURN_IF_ERROR(CompleteSegment(opts));
  report.segments_completed =
      lifetime_.segments_completed - start.segments_completed;
  report.eom_retargets = lifetime_.eom_retargets - start.eom_retargets;
  RETURN_IF_ERROR(tsegs_->Store());
  RETURN_IF_ERROR(fs_->Sync());
  lifetime_.files_migrated += report.files_migrated;
  lifetime_.blocks_migrated += report.blocks_migrated;
  lifetime_.bytes_migrated += report.bytes_migrated;
  lifetime_.blocks_skipped += report.blocks_skipped;
  return report;
}

template <typename Items, typename StageOne>
Result<MigrationReport> Migrator::RunPass(const Items& items,
                                          const MigratorOptions& opts,
                                          StageOne stage_one) {
  // Migrate only stable, on-disk state: push dirty data out first.
  RETURN_IF_ERROR(fs_->Sync());
  const MigrationReport start = lifetime_;
  MigrationReport report;
  Status first = OkStatus();
  for (auto it = items.begin(); it != items.end() && first.ok(); ++it) {
    first = stage_one(*it, report);
  }
  // Even after a failure: the segments staged so far hold flipped
  // pointers, so they are completed, stored and queued like any others.
  Result<MigrationReport> ended = EndPass(opts, start, report);
  RETURN_IF_ERROR(first);
  return ended;
}

Result<MigrationReport> Migrator::MigrateFiles(
    const std::vector<uint32_t>& inos, const MigratorOptions& opts) {
  SpanScope span(spans_, "migrate_files", "migrator");
  span.Annotate("files", std::to_string(inos.size()));
  return RunPass(inos, opts, [&](uint32_t ino, MigrationReport& report) {
    return MigrateOneFile(ino, opts, report);
  });
}

Result<MigrationReport> Migrator::MigrateBlocks(
    const std::vector<std::pair<uint32_t, std::vector<uint32_t>>>& files,
    const MigratorOptions& opts) {
  MigratorOptions eff = opts;
  eff.migrate_inode = false;
  eff.migrate_metadata = false;
  return RunPass(files, eff, [&](const auto& file,
                                 MigrationReport& report) -> Status {
    const auto& [ino, lbns] = file;
    ASSIGN_OR_RETURN(DInode inode, fs_->GetInode(ino));
    std::vector<BlockRef> refs;
    refs.reserve(lbns.size());
    for (uint32_t lbn : lbns) {
      refs.push_back(BlockRef{ino, inode.version, lbn, kNoBlock});
    }
    // Select by current address before reading anything.
    const std::vector<uint32_t> daddrs = fs_->BmapV(refs);
    for (size_t i = 0; i < refs.size(); ++i) {
      refs[i].daddr = daddrs[i];
    }
    KeepDiskResident(refs, report);
    ASSIGN_OR_RETURN(bool moved,
                     StageBlocks(refs, /*skip_unreadable=*/true, eff, report));
    if (moved) {
      report.files_migrated++;
    }
    return OkStatus();
  });
}

Result<MigrationReport> Migrator::ClusterFiles(
    const std::vector<uint32_t>& inos, const MigratorOptions& opts) {
  return RunPass(inos, opts, [&](uint32_t ino,
                                 MigrationReport& report) -> Status {
    if (ino == kIfileInode || ino == kTsegInode || ino == kRootInode) {
      return OkStatus();
    }
    ASSIGN_OR_RETURN(std::vector<BlockRef> all, fs_->CollectFileBlocks(ino));
    std::vector<BlockRef> tertiary_refs;
    for (const BlockRef& ref : all) {
      if (ref.daddr != kNoBlock &&
          amap_->Classify(ref.daddr) == AddressMap::Zone::kTertiary) {
        tertiary_refs.push_back(ref);
      }
    }
    if (tertiary_refs.empty()) {
      return OkStatus();
    }
    Result<uint32_t> inode_daddr = fs_->InodeDaddr(ino);
    bool restage_inode =
        inode_daddr.ok() &&
        amap_->Classify(*inode_daddr) == AddressMap::Zone::kTertiary;
    return ReMigrateFileBlocks(ino, tertiary_refs, restage_inode, opts,
                               report);
  });
}

Result<MigrationReport> Migrator::RunPolicy(MigrationPolicy& policy,
                                            const std::string& path,
                                            uint64_t bytes_target,
                                            const MigratorOptions& opts) {
  SpanScope rank(spans_, "rank", "migrator");
  ASSIGN_OR_RETURN(std::vector<FileCandidate> ranked,
                   policy.Rank(*fs_, clock_->Now()));
  rank.Annotate("candidates", std::to_string(ranked.size()));
  rank = SpanScope();  // Ranking ends before the migration starts.
  // "/" (or "") keeps every candidate; any other path keeps itself and the
  // candidates under it.
  const bool everything = path.empty() || path == "/";
  const std::string prefix = path.ends_with('/') ? path : path + "/";
  std::vector<uint32_t> inos;
  uint64_t bytes = 0;
  for (const FileCandidate& f : ranked) {
    if (!everything && f.path != path && !f.path.starts_with(prefix)) {
      continue;
    }
    if (bytes_target != 0 && bytes >= bytes_target) {
      break;
    }
    inos.push_back(f.ino);
    bytes += f.size;
  }
  return MigrateFiles(inos, opts);
}

Status Migrator::CopyOutStaged() {
  // Completion callbacks may re-key segments (end-of-medium retargets) or
  // append replica writes; Drain() runs them all to quiescence.
  std::vector<uint32_t> pending;
  for (const auto& [tseg, record] : staged_) {
    if (!record.enqueued) {
      pending.push_back(tseg);
    }
  }
  for (uint32_t tseg : pending) {
    if (staged_.find(tseg) == staged_.end()) {
      continue;  // Re-keyed by an earlier retarget.
    }
    RETURN_IF_ERROR(EnqueueCopyOut(tseg));
  }
  return DrainCopyOuts();
}

Status Migrator::FlushStaging() {
  SpanScope span(spans_, "flush_staging", "migrator");
  MigratorOptions tail;
  tail.delayed_copyout = true;  // Copy-out happens via the pipeline below.
  RETURN_IF_ERROR(CompleteSegment(tail));
  RETURN_IF_ERROR(CopyOutStaged());
  if (!staged_.empty()) {
    return Status(ErrorCode::kIoError,
                  "staged segments remain after a pipeline drain");
  }
  RETURN_IF_ERROR(tsegs_->Store());
  return fs_->Checkpoint();
}

uint32_t Migrator::PendingSegments() const {
  // Every record in the ledger is staged-but-not-copied:
  // FinishCopiedSegment erases records the moment the copy lands.
  return static_cast<uint32_t>(staged_.size());
}

Status Migrator::RecoverStaging() {
  uint32_t spb = fs_->superblock().seg_size_blocks;
  for (const SegmentCache::LineInfo& line : cache_->Lines()) {
    if (!line.staging || staged_.count(line.tseg) > 0) {
      continue;
    }
    // A remount interrupted a delayed copy-out: this line holds the only
    // copy of its tertiary segment. Rebuild the pointer-move ledger from
    // the staged image itself (the tertiary cleaner's parsing technique) so
    // an end-of-medium retarget can still rebase every pointer.
    StagedSegment record;
    record.tseg = line.tseg;
    record.disk_seg = line.disk_seg;
    std::vector<uint8_t> image(static_cast<size_t>(spb) * kBlockSize);
    RETURN_IF_ERROR(
        dev_->ReadBlocks(amap_->TsegBase(line.tseg), spb, image));
    for (const ParsedPartial& p :
         ParsePartialsFromImage(image, amap_->TsegBase(line.tseg), spb)) {
      uint32_t cursor = p.base_daddr + 1;
      for (const FInfo& f : p.summary.finfos) {
        for (uint32_t lbn : f.lbns) {
          record.moves.push_back(
              Lfs::MigrationAssignment{f.ino, lbn, cursor, cursor});
          ++cursor;
        }
      }
      for (uint32_t inode_daddr : p.summary.inode_daddrs) {
        const uint8_t* blk =
            image.data() +
            static_cast<size_t>(inode_daddr - amap_->TsegBase(line.tseg)) *
                kBlockSize;
        for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
          Result<DInode> d = DInode::Deserialize(std::span<const uint8_t>(
              blk + slot * kInodeSize, kInodeSize));
          if (!d.ok() || d->ino == kNoInode) {
            continue;
          }
          Result<uint32_t> cur = fs_->InodeDaddr(d->ino);
          if (cur.ok() && *cur == inode_daddr) {
            record.inode_moves[d->ino] = inode_daddr;
          }
        }
      }
    }
    HL_LOG(kInfo, "migrator",
           "recovered staging segment " + std::to_string(line.tseg) +
               " in cache line " + std::to_string(line.disk_seg));
    staged_[line.tseg] = std::move(record);
  }
  return OkStatus();
}

}  // namespace hl

#include "highlight/scrubber.h"

#include <vector>

#include "lfs/lfs.h"
#include "util/crc32.h"

namespace hl {

void Scrubber::AttachMetrics(MetricsRegistry* registry, Tracer tracer) {
  tracer_ = tracer;
  if (registry == nullptr) {
    return;
  }
  stats_.segments_scrubbed.BindTo(*registry, "scrub.segments_scrubbed");
  stats_.corruptions_detected.BindTo(*registry, "scrub.corruptions_detected");
  stats_.repairs.BindTo(*registry, "scrub.repairs");
  stats_.remote_repairs.BindTo(*registry, "scrub.remote_repairs");
  stats_.unrecoverable_losses.BindTo(*registry, "scrub.unrecoverable_losses");
  stats_.crcs_restamped.BindTo(*registry, "scrub.crcs_restamped");
}

Status Scrubber::ReadWithRetry(uint32_t tseg, std::span<uint8_t> buf,
                               uint32_t* crc) {
  const uint32_t volume = amap_->VolumeOfTseg(tseg);
  const uint64_t offset = amap_->ByteOffsetOnVolume(tseg);
  Status s = OkStatus();
  for (int try_no = 1; try_no <= retry_.max_attempts; ++try_no) {
    if (try_no > 1) {
      tracer_.Record(TraceEvent::kRetry, tseg,
                     static_cast<uint64_t>(try_no - 1));
      clock_->Advance(retry_.BackoffFor(try_no - 1));
    }
    s = footprint_->Read(static_cast<int>(volume), offset, buf, crc);
    if (s.ok() || s.code() != ErrorCode::kIoError) {
      return s;
    }
  }
  return s;
}

bool Scrubber::VerifyImage(uint32_t tseg, std::span<const uint8_t> image,
                           uint32_t crc) const {
  uint32_t expect = 0;
  if (tsegs_->CrcOf(tseg, &expect)) {
    return crc == expect;
  }
  // No recorded CRC (catalog is empty right after a remount): fall back to
  // the segment's own summary checksums. A replica's blocks carry the
  // primary's addresses, so parse against the primary's base.
  const uint32_t base_tseg =
      tsegs_->IsReplica(tseg) ? tsegs_->Get(tseg).cache_tseg : tseg;
  const uint32_t spb =
      static_cast<uint32_t>(amap_->SegBytes() / kBlockSize);
  return !ParsePartialsFromImage(image, amap_->TsegBase(base_tseg), spb)
              .empty();
}

Result<Scrubber::Outcome> Scrubber::ScrubOne(uint32_t tseg) {
  const SegUsage& usage = tsegs_->Get(tseg);
  if ((usage.flags & kSegDirty) == 0) {
    return Outcome::kSkipped;
  }
  const uint32_t volume = amap_->VolumeOfTseg(tseg);
  std::vector<uint8_t> image(amap_->SegBytes());
  uint32_t crc = 0;
  Status read = ReadWithRetry(tseg, image, &crc);
  stats_.segments_scrubbed++;
  const bool had_crc = [&] {
    uint32_t unused;
    return tsegs_->CrcOf(tseg, &unused);
  }();
  if (read.ok() && VerifyImage(tseg, image, crc)) {
    if (!had_crc) {
      stats_.crcs_restamped++;
    }
    tsegs_->SetCrc(tseg, crc);
    lost_.erase(tseg);
    return Outcome::kClean;
  }

  stats_.corruptions_detected++;
  tracer_.Record(TraceEvent::kCrcMismatch, tseg, volume);
  if (health_ != nullptr) {
    health_->RecordVolumeFailure(volume);
  }

  // Find a verified-good copy: the primary and every sibling replica.
  std::vector<uint32_t> candidates;
  if (tsegs_->IsReplica(tseg)) {
    const uint32_t primary = usage.cache_tseg;
    candidates.push_back(primary);
    for (uint32_t replica : tsegs_->ReplicasOf(primary)) {
      if (replica != tseg) {
        candidates.push_back(replica);
      }
    }
  } else {
    candidates = tsegs_->ReplicasOf(tseg);
  }
  for (uint32_t candidate : candidates) {
    std::vector<uint8_t> good(amap_->SegBytes());
    uint32_t good_crc = 0;
    if (!ReadWithRetry(candidate, good, &good_crc).ok() ||
        !VerifyImage(candidate, good, good_crc)) {
      continue;
    }
    Status repaired = footprint_->RepairWrite(
        static_cast<int>(volume), amap_->ByteOffsetOnVolume(tseg), good);
    if (repaired.ok()) {
      tsegs_->SetCrc(tseg, good_crc);
      lost_.erase(tseg);
      stats_.repairs++;
      tracer_.Record(TraceEvent::kScrubRepair, tseg, candidate);
      return Outcome::kRepaired;
    }
    // WORM media (or a dying drive) refuse the rewrite; other copies would
    // hit the same wall, so record the loss.
    break;
  }
  // Every local copy is gone: last resort is a peer site's copy over the
  // WAN, when a multi-site deployment has wired one in.
  if (remote_source_) {
    Result<std::vector<uint8_t>> remote = remote_source_(tseg);
    const uint32_t remote_crc = remote.ok() ? Crc32(*remote) : 0;
    if (remote.ok() && VerifyImage(tseg, *remote, remote_crc)) {
      Status repaired = footprint_->RepairWrite(
          static_cast<int>(volume), amap_->ByteOffsetOnVolume(tseg), *remote);
      if (repaired.ok()) {
        tsegs_->SetCrc(tseg, remote_crc);
        lost_.erase(tseg);
        stats_.repairs++;
        stats_.remote_repairs++;
        tracer_.Record(TraceEvent::kScrubRepair, tseg, kRemoteRepairSource);
        return Outcome::kRepaired;
      }
    }
  }
  lost_.insert(tseg);
  stats_.unrecoverable_losses++;
  tracer_.Record(TraceEvent::kScrubLoss, tseg, volume);
  return Outcome::kLost;
}

void Scrubber::Tally(Outcome outcome, Report& report) {
  switch (outcome) {
    case Outcome::kSkipped:
      return;
    case Outcome::kClean:
      report.clean++;
      break;
    case Outcome::kRepaired:
      report.repaired++;
      break;
    case Outcome::kLost:
      report.unrecoverable++;
      break;
  }
  report.scanned++;
}

Result<Scrubber::Report> Scrubber::ScrubVolume(uint32_t volume) {
  Report report;
  const uint32_t first = amap_->FirstTsegOfVolume(volume);
  const size_t before = stats_.crcs_restamped.value();
  for (uint32_t i = 0; i < amap_->segs_per_volume(); ++i) {
    ASSIGN_OR_RETURN(Outcome outcome, ScrubOne(first + i));
    Tally(outcome, report);
  }
  report.crcs_stamped =
      static_cast<uint32_t>(stats_.crcs_restamped.value() - before);
  return report;
}

Result<Scrubber::Report> Scrubber::ScrubAll() {
  Report report;
  const size_t before = stats_.crcs_restamped.value();
  for (uint32_t tseg = 0; tseg < tsegs_->size(); ++tseg) {
    ASSIGN_OR_RETURN(Outcome outcome, ScrubOne(tseg));
    Tally(outcome, report);
  }
  report.crcs_stamped =
      static_cast<uint32_t>(stats_.crcs_restamped.value() - before);
  return report;
}

Result<Scrubber::Report> Scrubber::ScrubStep(uint32_t max_segments) {
  Report report;
  const size_t before = stats_.crcs_restamped.value();
  const uint32_t total = tsegs_->size();
  if (total == 0) {
    return report;
  }
  for (uint32_t examined = 0;
       examined < total && report.scanned < max_segments; ++examined) {
    const uint32_t tseg = cursor_;
    cursor_ = (cursor_ + 1) % total;
    ASSIGN_OR_RETURN(Outcome outcome, ScrubOne(tseg));
    Tally(outcome, report);
  }
  report.crcs_stamped =
      static_cast<uint32_t>(stats_.crcs_restamped.value() - before);
  return report;
}

}  // namespace hl

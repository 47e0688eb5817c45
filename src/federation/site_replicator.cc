#include "federation/site_replicator.h"

#include <algorithm>

#include "util/crc32.h"
#include "util/serialize.h"

namespace hl {

namespace {

// Ledger blob layout: "HLRL" magic, version, entry count, then per entry
// {tseg u32, crc u32, shipped_mask u32, queued_at u64}.
constexpr char kLedgerMagic[4] = {'H', 'L', 'R', 'L'};
constexpr uint32_t kLedgerVersion = 1;
constexpr size_t kLedgerHeaderBytes = 4 + 4 + 4;
constexpr size_t kLedgerEntryBytes = 4 + 4 + 4 + 8;
// A catalog row shipped during anti-entropy: tseg + CRC32.
constexpr uint64_t kCatalogRowBytes = 8;
// Segments one Pump() round ships per site.
constexpr size_t kShipBatch = 8;
// Backoff schedule for a failed or corrupted WAN transfer.
constexpr RetryPolicy kTransferRetry{/*max_attempts=*/3,
                                     /*backoff_us=*/200'000,
                                     /*backoff_multiplier=*/2.0,
                                     /*max_backoff_us=*/5'000'000};
// Blob name the per-site ledger persists under (inside the site's LFS).
constexpr char kLedgerBlob[] = "replication_ledger";

}  // namespace

SiteReplicator::SiteReplicator(SimClock* clock, SiteReplicatorConfig config)
    : clock_(clock), config_(config) {
  stats_.segments_enqueued.BindTo(metrics_, "site.segments_enqueued");
  stats_.segments_shipped.BindTo(metrics_, "site.segments_shipped");
  stats_.bytes_shipped.BindTo(metrics_, "site.bytes_shipped");
  stats_.ship_failures.BindTo(metrics_, "site.ship_failures");
  stats_.ship_deferred.BindTo(metrics_, "site.ship_deferred");
  stats_.corrupt_transfers.BindTo(metrics_, "site.corrupt_transfers");
  stats_.queue_overflow.BindTo(metrics_, "site.queue_overflow");
  stats_.antientropy_rounds.BindTo(metrics_, "site.antientropy_rounds");
  stats_.antientropy_compared.BindTo(metrics_, "site.antientropy_compared");
  stats_.antientropy_divergent.BindTo(metrics_, "site.antientropy_divergent");
  stats_.antientropy_skipped.BindTo(metrics_, "site.antientropy_skipped");
  stats_.ledger_persists.BindTo(metrics_, "site.ledger_persists");
  stats_.ledger_loads.BindTo(metrics_, "site.ledger_loads");
  ship_us_.BindTo(metrics_, "site.ship_us");
  queue_depth_.BindTo(metrics_, "site.queue_depth");
}

int SiteReplicator::AddSite(const std::string& name, SiteStore* store) {
  Site site;
  site.name = name;
  site.store = store;
  sites_.push_back(std::move(site));
  return static_cast<int>(sites_.size()) - 1;
}

void SiteReplicator::SetLink(int a, int b, WanLink* link) {
  links_[{std::min(a, b), std::max(a, b)}] = link;
  if (link != nullptr) {
    link->AttachMetrics(&metrics_);
  }
}

WanLink* SiteReplicator::LinkBetween(int a, int b) const {
  auto it = links_.find({std::min(a, b), std::max(a, b)});
  return it == links_.end() ? nullptr : it->second;
}

void SiteReplicator::SetSiteQuarantined(int site, bool quarantined) {
  sites_[site].quarantined = quarantined;
}

bool SiteReplicator::SiteQuarantined(int site) const {
  return sites_[site].quarantined;
}

bool SiteReplicator::SiteAvailable(int site) const {
  if (site < 0 || static_cast<size_t>(site) >= sites_.size()) {
    return false;
  }
  if (sites_[site].quarantined) {
    return false;
  }
  bool has_link = false;
  for (const auto& [pair, link] : links_) {
    if (pair.first != site && pair.second != site) {
      continue;
    }
    has_link = true;
    if (link != nullptr && !link->Partitioned()) {
      return true;
    }
  }
  // A site with no WAN wiring at all is local-only: reachable by definition.
  return !has_link;
}

uint32_t SiteReplicator::PeerMask(int site) const {
  uint32_t mask = 0;
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (static_cast<int>(i) != site) {
      mask |= 1u << i;
    }
  }
  return mask;
}

bool SiteReplicator::PeerReachable(int src, int dst) const {
  if (dst < 0 || static_cast<size_t>(dst) >= sites_.size()) {
    return false;
  }
  WanLink* link = LinkBetween(src, dst);
  return link != nullptr && !link->Partitioned();
}

Status SiteReplicator::EnqueueSegment(int site, uint32_t tseg) {
  Site& s = sites_[site];
  uint32_t crc = 0;
  const bool has_crc = s.store->SegmentCrc(tseg, &crc);

  auto it = s.ledger.find(tseg);
  if (it != s.ledger.end() && has_crc && it->second.crc != crc) {
    // Content changed since the last shipment: every peer needs it again.
    it->second.crc = crc;
    it->second.shipped_mask = 0;
    s.ledger_dirty = true;
  }
  if (it != s.ledger.end() &&
      (it->second.shipped_mask & PeerMask(site)) == PeerMask(site)) {
    return OkStatus();  // Fully shipped already.
  }
  if (s.pending.count(tseg) != 0) {
    return OkStatus();  // Already queued.
  }
  if (s.queue.size() >= config_.max_queue) {
    stats_.queue_overflow++;
    return Status(ErrorCode::kBusy, "site replicator: shipment queue full");
  }
  const SimTime now = clock_->Now();
  s.queue.push_back({tseg, now});
  s.pending.insert(tseg);
  if (it == s.ledger.end()) {
    s.ledger[tseg] = LedgerEntry{crc, 0, now};
  } else {
    it->second.queued_at = now;
  }
  s.ledger_dirty = true;
  stats_.segments_enqueued++;
  UpdateQueueGauge();
  return OkStatus();
}

Result<uint32_t> SiteReplicator::EnqueueNewSegments(int site) {
  Site& s = sites_[site];
  const uint32_t peers = PeerMask(site);
  uint32_t enqueued = 0;
  for (uint32_t tseg : s.store->ReplicableSegments()) {
    auto it = s.ledger.find(tseg);
    if (it != s.ledger.end() && (it->second.shipped_mask & peers) == peers) {
      uint32_t crc = 0;
      if (!s.store->SegmentCrc(tseg, &crc) || crc == it->second.crc) {
        continue;  // Shipped everywhere and unchanged since.
      }
    }
    const size_t before = s.queue.size();
    Status status = EnqueueSegment(site, tseg);
    if (!status.ok()) {
      // Queue full: the rest waits for a later pass.
      return enqueued;
    }
    if (s.queue.size() > before) {
      enqueued++;
    }
  }
  return enqueued;
}

Status SiteReplicator::ReadSourceImage(Site& src, uint32_t tseg,
                                       std::vector<uint8_t>* image,
                                       uint32_t* crc) {
  ASSIGN_OR_RETURN(*image, src.store->ReadSegmentImage(tseg));
  const uint32_t computed = Crc32(*image);
  uint32_t stamp = 0;
  if (src.store->SegmentCrc(tseg, &stamp)) {
    if (stamp != computed) {
      // Never replicate bytes the local catalog says are corrupt — the
      // scrubber has to repair this segment first.
      return Corruption("site replicator: source image fails catalog CRC");
    }
  } else {
    // No stamp (fresh mount): this read is the verification; restamp so the
    // catalogs both sites compare during anti-entropy stay in agreement.
    src.store->StampSegmentCrc(tseg, computed);
  }
  *crc = computed;
  return OkStatus();
}

Result<std::vector<uint8_t>> SiteReplicator::TransferVerified(
    WanLink* link, const std::vector<uint8_t>& image, uint32_t crc) {
  Status last = OkStatus();
  for (int try_no = 1; try_no <= kTransferRetry.max_attempts; ++try_no) {
    if (try_no > 1) {
      clock_->Advance(kTransferRetry.BackoffFor(try_no - 1));
    }
    std::vector<uint8_t> payload = image;
    last = link->Transfer(payload);
    if (!last.ok()) {
      stats_.ship_failures++;
      continue;
    }
    if (Crc32(payload) != crc) {
      // Bits flipped in flight; the receiver-side checksum catches it and
      // the image is simply sent again.
      stats_.corrupt_transfers++;
      last = IoError("site replicator: payload corrupted in flight");
      continue;
    }
    return payload;
  }
  return last;
}

Status SiteReplicator::ShipImage(int src, int dst, uint32_t tseg,
                                 const std::vector<uint8_t>& image,
                                 uint32_t crc) {
  WanLink* link = LinkBetween(src, dst);
  if (link == nullptr) {
    return IoError("site replicator: no link between sites");
  }
  // Nests under whatever drove the ship — an anti-entropy round's span, a
  // Pump round, a scrub repair — and parents the WAN transfer spans below.
  SpanScope span(spans_, "site_ship", "site");
  span.Annotate("src", sites_[src].name);
  span.Annotate("dst", sites_[dst].name);
  span.Annotate("tseg", std::to_string(tseg));
  ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                   TransferVerified(link, image, crc));
  RETURN_IF_ERROR(sites_[dst].store->InstallSegmentImage(tseg, payload));
  stats_.segments_shipped++;
  stats_.bytes_shipped += payload.size();
  return OkStatus();
}

Status SiteReplicator::Pump() {
  for (size_t i = 0; i < sites_.size(); ++i) {
    Site& s = sites_[i];
    const uint32_t peers = PeerMask(static_cast<int>(i));
    const size_t batch = std::min(kShipBatch, s.queue.size());
    for (size_t n = 0; n < batch; ++n) {
      PendingShipment item = s.queue.front();
      s.queue.pop_front();
      LedgerEntry& entry = s.ledger[item.tseg];

      std::vector<uint8_t> image;
      uint32_t crc = 0;
      bool image_loaded = false;
      bool read_failed = false;
      for (size_t d = 0; d < sites_.size(); ++d) {
        const uint32_t bit = 1u << d;
        if ((peers & bit) == 0 || (entry.shipped_mask & bit) != 0) {
          continue;
        }
        if (sites_[d].quarantined ||
            !PeerReachable(static_cast<int>(i), static_cast<int>(d))) {
          continue;  // Dead or partitioned peer: defer, never drop.
        }
        if (!image_loaded) {
          Status read = ReadSourceImage(s, item.tseg, &image, &crc);
          if (!read.ok()) {
            stats_.ship_failures++;
            read_failed = true;
            break;
          }
          image_loaded = true;
          if (entry.crc != crc) {
            entry.crc = crc;
            s.ledger_dirty = true;
          }
        }
        Status shipped = ShipImage(static_cast<int>(i), static_cast<int>(d),
                                   item.tseg, image, crc);
        if (shipped.ok()) {
          entry.shipped_mask |= bit;
          s.ledger_dirty = true;
        }
      }

      if (!read_failed && (entry.shipped_mask & peers) == peers) {
        s.pending.erase(item.tseg);
        ship_us_.Observe(clock_->Now() - item.queued_at);
      } else {
        // Some peer still owed: back of the queue, original timestamp.
        s.queue.push_back(item);
        stats_.ship_deferred++;
      }
    }
    if (s.ledger_dirty) {
      RETURN_IF_ERROR(PersistLedger(static_cast<int>(i)));
    }
  }
  UpdateQueueGauge();
  return OkStatus();
}

Status SiteReplicator::RunUntilIdle() {
  while (true) {
    size_t backlog = 0;
    for (const Site& s : sites_) {
      backlog += s.queue.size();
    }
    if (backlog == 0) {
      return OkStatus();
    }
    const uint64_t shipped_before = stats_.segments_shipped.value();
    RETURN_IF_ERROR(Pump());
    size_t backlog_after = 0;
    for (const Site& s : sites_) {
      backlog_after += s.queue.size();
    }
    if (backlog_after == backlog &&
        stats_.segments_shipped.value() == shipped_before) {
      // Everything left is stuck behind a partition or a dead peer.
      return OkStatus();
    }
  }
}

Result<SiteReplicator::AntiEntropyStats> SiteReplicator::AntiEntropyRound(
    int src, int dst, uint32_t max_segments) {
  if (src == dst || static_cast<size_t>(src) >= sites_.size() ||
      static_cast<size_t>(dst) >= sites_.size()) {
    return InvalidArgument("anti-entropy: bad site pair");
  }
  WanLink* link = LinkBetween(src, dst);
  if (link == nullptr) {
    return IoError("anti-entropy: no link between sites");
  }
  Site& s = sites_[src];
  AntiEntropyStats round;
  const SimTime start = clock_->Now();
  stats_.antientropy_rounds++;
  SpanScope round_span(spans_, "antientropy_round", "site");
  round_span.Annotate("src", sites_[src].name);
  round_span.Annotate("dst", sites_[dst].name);

  std::vector<uint32_t> segs = s.store->ReplicableSegments();
  std::sort(segs.begin(), segs.end());
  // Resume where the last (interrupted or capped) round stopped. The
  // cursor stores the next tseg *value*, so a catalog that grew or shrank
  // in between still resumes at the right place.
  uint32_t& cursor = ae_cursor_[{src, dst}];
  auto it = std::lower_bound(segs.begin(), segs.end(), cursor);
  const uint32_t dst_bit = 1u << dst;
  bool stopped_early = false;

  for (; it != segs.end(); ++it) {
    if (max_segments != 0 && round.compared >= max_segments) {
      cursor = *it;
      stopped_early = true;
      break;
    }
    const uint32_t tseg = *it;
    round.compared++;
    stats_.antientropy_compared++;

    uint32_t src_crc = 0;
    const bool src_stamped = s.store->SegmentCrc(tseg, &src_crc);
    uint32_t dst_crc = 0;
    const bool dst_stamped = sites_[dst].store->SegmentCrc(tseg, &dst_crc);
    if (src_stamped && dst_stamped && src_crc == dst_crc) {
      round.skipped_synced++;
      stats_.antientropy_skipped++;
      continue;
    }

    std::vector<uint8_t> image;
    uint32_t crc = 0;
    Status read = ReadSourceImage(s, tseg, &image, &crc);
    if (!read.ok()) {
      round.divergent++;
      stats_.antientropy_divergent++;
      round.failed++;
      continue;  // Local corruption: the scrubber's problem, keep walking.
    }
    if (dst_stamped && dst_crc == crc) {
      // The catalog stamp was just missing on the source side.
      round.skipped_synced++;
      stats_.antientropy_skipped++;
      continue;
    }
    round.divergent++;
    stats_.antientropy_divergent++;
    Status shipped = ShipImage(src, dst, tseg, image, crc);
    if (!shipped.ok()) {
      // WAN down: remember where we stopped and resume after it heals —
      // everything already verified this round stays verified.
      round.failed++;
      cursor = tseg;
      stopped_early = true;
      break;
    }
    round.shipped++;
    round.bytes_shipped += image.size();
    LedgerEntry& entry = s.ledger[tseg];
    entry.crc = crc;
    entry.shipped_mask |= dst_bit;
    s.ledger_dirty = true;
  }
  if (!stopped_early) {
    cursor = 0;  // Full pass done; the next round starts over.
  }

  // The catalog rows themselves crossed the WAN (tseg + CRC per entry).
  clock_->Advance(link->TransferCost(round.compared * kCatalogRowBytes));
  round.elapsed_us = clock_->Now() - start;
  round_span.Annotate("compared", std::to_string(round.compared));
  round_span.Annotate("divergent", std::to_string(round.divergent));
  round_span.Annotate("shipped", std::to_string(round.shipped));
  if (s.ledger_dirty) {
    RETURN_IF_ERROR(PersistLedger(src));
  }
  return round;
}

uint32_t SiteReplicator::DivergentCountVs(int src, int dst) const {
  if (src == dst || static_cast<size_t>(src) >= sites_.size() ||
      static_cast<size_t>(dst) >= sites_.size()) {
    return 0;
  }
  const Site& s = sites_[src];
  uint32_t divergent = 0;
  for (uint32_t tseg : s.store->ReplicableSegments()) {
    uint32_t src_crc = 0;
    uint32_t dst_crc = 0;
    if (!s.store->SegmentCrc(tseg, &src_crc) ||
        !sites_[dst].store->SegmentCrc(tseg, &dst_crc) ||
        src_crc != dst_crc) {
      divergent++;
    }
  }
  return divergent;
}

Result<std::vector<uint8_t>> SiteReplicator::FetchVerifiedImage(
    int site, uint32_t tseg) {
  // Links the remote-repair WAN hop (the transfer spans below) into the
  // caller's tree — a failover fetch or scrub repair shows its WAN child.
  SpanScope span(spans_, "site_fetch_image", "site");
  span.Annotate("site", site < static_cast<int>(sites_.size())
                            ? sites_[site].name
                            : std::to_string(site));
  span.Annotate("tseg", std::to_string(tseg));
  for (size_t p = 0; p < sites_.size(); ++p) {
    if (static_cast<int>(p) == site || sites_[p].quarantined ||
        !PeerReachable(site, static_cast<int>(p))) {
      continue;
    }
    Site& peer = sites_[p];
    Result<std::vector<uint8_t>> image = peer.store->ReadSegmentImage(tseg);
    if (!image.ok()) {
      continue;
    }
    const uint32_t computed = Crc32(*image);
    uint32_t stamp = 0;
    if (peer.store->SegmentCrc(tseg, &stamp) && stamp != computed) {
      continue;  // The peer's copy is corrupt too.
    }
    Result<std::vector<uint8_t>> payload = TransferVerified(
        LinkBetween(site, static_cast<int>(p)), *image, computed);
    if (!payload.ok()) {
      continue;
    }
    stats_.bytes_shipped += payload->size();
    span.Annotate("peer", peer.name);
    return payload;
  }
  return NotFound("site replicator: no reachable peer holds a verified copy");
}

Status SiteReplicator::PersistLedger(int site) {
  Site& s = sites_[site];
  std::vector<uint8_t> blob(kLedgerHeaderBytes +
                            kLedgerEntryBytes * s.ledger.size());
  Writer w(blob);
  w.PutBytes(kLedgerMagic, sizeof(kLedgerMagic));
  w.PutU32(kLedgerVersion);
  w.PutU32(static_cast<uint32_t>(s.ledger.size()));
  for (const auto& [tseg, entry] : s.ledger) {
    w.PutU32(tseg);
    w.PutU32(entry.crc);
    w.PutU32(entry.shipped_mask);
    w.PutU64(entry.queued_at);
  }
  RETURN_IF_ERROR(s.store->PersistBlob(kLedgerBlob, blob));
  s.ledger_dirty = false;
  stats_.ledger_persists++;
  return OkStatus();
}

Status SiteReplicator::LoadLedger(int site) {
  Site& s = sites_[site];
  Result<std::vector<uint8_t>> blob = s.store->LoadBlob(kLedgerBlob);
  if (!blob.ok()) {
    if (blob.status().code() == ErrorCode::kNotFound) {
      return OkStatus();  // Fresh site: nothing shipped yet.
    }
    return blob.status();
  }
  Reader r(*blob);
  char magic[4] = {};
  r.GetBytes(magic, sizeof(magic));
  if (!r.Ok() || std::memcmp(magic, kLedgerMagic, sizeof(magic)) != 0) {
    return Corruption("replication ledger: bad magic");
  }
  if (r.GetU32() != kLedgerVersion) {
    return Corruption("replication ledger: unknown version");
  }
  const uint32_t count = r.GetU32();
  std::map<uint32_t, LedgerEntry> loaded;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t tseg = r.GetU32();
    LedgerEntry entry;
    entry.crc = r.GetU32();
    entry.shipped_mask = r.GetU32();
    entry.queued_at = r.GetU64();
    loaded[tseg] = entry;
  }
  RETURN_IF_ERROR(r.ToStatus("replication ledger"));
  s.ledger = std::move(loaded);
  s.ledger_dirty = false;
  stats_.ledger_loads++;

  // Anything the crash interrupted mid-shipment goes back on the queue.
  const uint32_t peers = PeerMask(site);
  for (const auto& [tseg, entry] : s.ledger) {
    if ((entry.shipped_mask & peers) == peers ||
        s.pending.count(tseg) != 0 || s.queue.size() >= config_.max_queue) {
      continue;
    }
    s.queue.push_back({tseg, entry.queued_at});
    s.pending.insert(tseg);
  }
  UpdateQueueGauge();
  return OkStatus();
}

SimTime SiteReplicator::ReplicationLag(int site) const {
  const Site& s = sites_[site];
  if (s.queue.empty()) {
    return 0;
  }
  SimTime oldest = s.queue.front().queued_at;
  for (const PendingShipment& item : s.queue) {
    oldest = std::min(oldest, item.queued_at);
  }
  return clock_->Now() - oldest;
}

void SiteReplicator::UpdateQueueGauge() {
  int64_t total = 0;
  for (const Site& s : sites_) {
    total += static_cast<int64_t>(s.queue.size());
  }
  queue_depth_.Set(total);
}

}  // namespace hl

#include "tertiary/jukebox.h"

#include <algorithm>
#include <cassert>

namespace hl {

Jukebox::Jukebox(JukeboxProfile profile, SimClock* clock, Resource* bus,
                 bool write_once_media)
    : profile_(std::move(profile)),
      clock_(clock),
      bus_(bus),
      robot_(profile_.name + ".robot") {
  slots_.reserve(profile_.num_slots);
  for (int i = 0; i < profile_.num_slots; ++i) {
    slots_.push_back(std::make_unique<Volume>(
        profile_.name + ".vol" + std::to_string(i),
        profile_.volume_capacity_bytes, write_once_media));
  }
  drives_.reserve(profile_.num_drives);
  for (int i = 0; i < profile_.num_drives; ++i) {
    drives_.emplace_back(profile_.name + ".drive" + std::to_string(i));
  }
  insertions_.assign(slots_.size(), 0);
}

void Jukebox::AttachFaults(FaultInjector* injector) {
  if (injector == nullptr) {
    return;
  }
  faults_ = injector->Channel("jukebox." + profile_.name);
  for (auto& slot : slots_) {
    slot->AttachFaults(injector->Channel("volume." + slot->label()));
  }
}

void Jukebox::SetSpans(SpanTracer* spans) {
  spans_ = spans;
  span_track_ = "jukebox." + profile_.name;
}

void Jukebox::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  const std::string prefix = "jukebox." + profile_.name + ".";
  media_swaps_.BindTo(*registry, prefix + "media_swaps");
  bytes_read_.BindTo(*registry, prefix + "bytes_read");
  bytes_written_.BindTo(*registry, prefix + "bytes_written");
  mounted_transfers_.BindTo(*registry, prefix + "mounted_transfers");
}

Result<int> Jukebox::EnsureMounted(int slot, bool for_write, SimTime earliest,
                                   SimTime* ready_at) {
  if (slot < 0 || slot >= num_slots()) {
    return OutOfRange(profile_.name + ": no slot " + std::to_string(slot));
  }
  // Already mounted?
  for (size_t i = 0; i < drives_.size(); ++i) {
    if (drives_[i].loaded_slot == slot) {
      ++mounted_transfers_;
      *ready_at = earliest;
      return static_cast<int>(i);
    }
  }
  int chosen = ChooseDrive(for_write);
  Drive& drive = drives_[chosen];
  // Swap: robot + drive are busy for media_swap_us; a non-disconnecting
  // driver also holds the SCSI bus hostage for the whole swap.
  SimTime begin = std::max({earliest, robot_.free_at(), drive.res.free_at()});
  SimTime end;
  if (bus_ != nullptr && profile_.swap_hogs_bus) {
    end = robot_.ScheduleWith(*bus_, begin, profile_.media_swap_us);
  } else {
    end = robot_.Schedule(begin, profile_.media_swap_us);
  }
  drive.res.Schedule(begin, end - begin);
  drive.loaded_slot = slot;
  drive.head_pos = 0;
  ++media_swaps_;
  if (spans_ != nullptr) {
    // The swap occupies robot + drive in the device's future; parent it to
    // whatever span is open on the caller's stack right now.
    SpanId id = spans_->AddComplete("media_swap", span_track_,
                                    spans_->current(), begin, end);
    spans_->Annotate(id, "slot", std::to_string(slot));
    spans_->Annotate(id, "drive", std::to_string(chosen));
  }
  ++insertions_[slot];
  *ready_at = end;
  return chosen;
}

int Jukebox::ChooseDrive(bool for_write) const {
  // Writes go to drive 0 (the dedicated write drive); reads use the
  // least-recently-used drive other than 0 when possible.
  int chosen = 0;
  if (!for_write && drives_.size() > 1) {
    chosen = 1;
    for (size_t i = 2; i < drives_.size(); ++i) {
      if (drives_[i].last_used < drives_[chosen].last_used) {
        chosen = static_cast<int>(i);
      }
    }
  }
  return chosen;
}

Status Jukebox::ChargeFailedLoad(int slot, bool for_write, SimTime earliest) {
  // The robot goes through the whole load motion before timing out, so the
  // swap latency (and the bus hold) is paid; the medium never seats, and
  // whatever the drive held before is back in its slot.
  Drive& drive = drives_[ChooseDrive(for_write)];
  SimTime begin = std::max({earliest, robot_.free_at(), drive.res.free_at()});
  SimTime end;
  if (bus_ != nullptr && profile_.swap_hogs_bus) {
    end = robot_.ScheduleWith(*bus_, begin, profile_.media_swap_us);
  } else {
    end = robot_.Schedule(begin, profile_.media_swap_us);
  }
  drive.res.Schedule(begin, end - begin);
  drive.loaded_slot = -1;
  drive.head_pos = 0;
  return IoError(profile_.name + ": robot load timeout for slot " +
                 std::to_string(slot));
}

Result<SimTime> Jukebox::Transfer(SimTime earliest, int slot, uint64_t offset,
                                  size_t bytes, bool is_write) {
  SimTime ready = earliest;
  ASSIGN_OR_RETURN(int drive_index,
                   EnsureMounted(slot, is_write, earliest, &ready));
  Drive& drive = drives_[drive_index];
  const TertiaryDriveProfile& d = profile_.drive;
  SimTime dur = d.per_op_overhead_us;
  uint64_t dist = offset > drive.head_pos ? offset - drive.head_pos
                                          : drive.head_pos - offset;
  dur += d.SeekTime(dist);
  dur += d.TransferTime(bytes, is_write);
  drive.head_pos = offset + bytes;
  SimTime end = bus_ ? drive.res.ScheduleWith(*bus_, ready, dur)
                     : drive.res.Schedule(ready, dur);
  drive.last_used = end;
  if (spans_ != nullptr) {
    SpanId id =
        spans_->AddComplete(is_write ? "xfer_write" : "xfer_read",
                            span_track_, spans_->current(), end - dur, end);
    spans_->Annotate(id, "slot", std::to_string(slot));
    spans_->Annotate(id, "bytes", std::to_string(bytes));
  }
  return end;
}

Result<SimTime> Jukebox::ScheduleRead(SimTime earliest, int slot,
                                      uint64_t offset, uint64_t len,
                                      std::vector<ChunkRef>* out,
                                      uint32_t* crc) {
  if (slot < 0 || slot >= num_slots()) {
    return OutOfRange(profile_.name + ": no slot " + std::to_string(slot));
  }
  if (faults_ != nullptr && !IsMounted(slot) &&
      faults_->Decide(FaultOp::kLoad, static_cast<uint64_t>(slot), 1) ==
          FaultOutcome::kLoadTimeout) {
    return ChargeFailedLoad(slot, /*for_write=*/false, earliest);
  }
  const FaultOutcome fault =
      faults_ != nullptr ? faults_->Decide(FaultOp::kRead, offset, len)
                         : FaultOutcome::kNone;
  if (fault != FaultOutcome::kNone) {
    // The drive mounts, seeks and transfers before the failure surfaces.
    RETURN_IF_ERROR(
        Transfer(earliest, slot, offset, len, /*is_write=*/false).status());
    return IoError(profile_.name + ": injected read failure (" +
                   FaultOutcomeName(fault) + ")");
  }
  Status media = slots_[slot]->Read(offset, len, out, crc);
  if (!media.ok()) {
    if (media.code() == ErrorCode::kIoError) {
      // A latent sector error is discovered only after the full transfer.
      RETURN_IF_ERROR(
          Transfer(earliest, slot, offset, len, /*is_write=*/false).status());
    }
    return media;
  }
  ASSIGN_OR_RETURN(SimTime end, Transfer(earliest, slot, offset, len,
                                         /*is_write=*/false));
  bytes_read_ += len;
  return end;
}

Result<SimTime> Jukebox::ScheduleWrite(SimTime earliest, int slot,
                                       uint64_t offset,
                                       std::span<const uint8_t> data,
                                       uint32_t* crc) {
  if (slot < 0 || slot >= num_slots()) {
    return OutOfRange(profile_.name + ": no slot " + std::to_string(slot));
  }
  if (faults_ != nullptr && !IsMounted(slot) &&
      faults_->Decide(FaultOp::kLoad, static_cast<uint64_t>(slot), 1) ==
          FaultOutcome::kLoadTimeout) {
    return ChargeFailedLoad(slot, /*for_write=*/true, earliest);
  }
  const FaultOutcome fault =
      faults_ != nullptr
          ? faults_->Decide(FaultOp::kWrite, offset, data.size())
          : FaultOutcome::kNone;
  if (fault != FaultOutcome::kNone) {
    // The drive mounts, seeks and transfers before the failure surfaces.
    RETURN_IF_ERROR(
        Transfer(earliest, slot, offset, data.size(), /*is_write=*/true)
            .status());
    return IoError(profile_.name + ": injected write failure (" +
                   FaultOutcomeName(fault) + ")");
  }
  // Genuine media conditions (end-of-medium, WORM rewrite) surface before
  // any time is charged: the drive detects them at the start of the write.
  // Injected media faults (kIoError) cost the full transfer below.
  Status media = slots_[slot]->Write(offset, data, crc);
  if (!media.ok()) {
    if (media.code() == ErrorCode::kIoError) {
      RETURN_IF_ERROR(
          Transfer(earliest, slot, offset, data.size(), /*is_write=*/true)
              .status());
    }
    return media;
  }
  ASSIGN_OR_RETURN(SimTime end, Transfer(earliest, slot, offset, data.size(),
                                         /*is_write=*/true));
  bytes_written_ += data.size();
  return end;
}

Status Jukebox::Read(int slot, uint64_t offset, std::span<uint8_t> out,
                     uint32_t* crc) {
  std::vector<ChunkRef> chunks;
  ASSIGN_OR_RETURN(SimTime end, ScheduleRead(clock_->Now(), slot, offset,
                                             out.size(), &chunks, crc));
  clock_->AdvanceTo(end);
  CopyChunks(chunks, out);
  return OkStatus();
}

Status Jukebox::Write(int slot, uint64_t offset,
                      std::span<const uint8_t> data, uint32_t* crc) {
  ASSIGN_OR_RETURN(SimTime end,
                   ScheduleWrite(clock_->Now(), slot, offset, data, crc));
  clock_->AdvanceTo(end);
  return OkStatus();
}

Status Jukebox::Rewrite(int slot, uint64_t offset,
                        std::span<const uint8_t> data, uint32_t* crc) {
  if (slot < 0 || slot >= num_slots()) {
    return OutOfRange(profile_.name + ": no slot " + std::to_string(slot));
  }
  Status media = slots_[slot]->Rewrite(offset, data, crc);
  if (!media.ok()) {
    if (media.code() == ErrorCode::kIoError) {
      ASSIGN_OR_RETURN(SimTime failed_end,
                       Transfer(clock_->Now(), slot, offset, data.size(),
                                /*is_write=*/true));
      clock_->AdvanceTo(failed_end);
    }
    return media;
  }
  ASSIGN_OR_RETURN(SimTime end, Transfer(clock_->Now(), slot, offset,
                                         data.size(), /*is_write=*/true));
  clock_->AdvanceTo(end);
  bytes_written_ += data.size();
  return OkStatus();
}

}  // namespace hl

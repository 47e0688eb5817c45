#include "blockdev/sim_disk.h"

#include <cstring>
#include <new>

namespace hl {

SimDisk::SimDisk(std::string name, uint32_t num_blocks, DiskProfile profile,
                 SimClock* clock, Resource* bus)
    : name_(std::move(name)),
      num_blocks_(num_blocks),
      profile_(std::move(profile)),
      clock_(clock),
      spindle_(name_ + ".spindle"),
      bus_(bus) {
  const size_t bytes = static_cast<size_t>(num_blocks) * kBlockSize;
  data_.reset(static_cast<uint8_t*>(std::calloc(bytes, 1)));
  if (data_ == nullptr && bytes > 0) {
    throw std::bad_alloc();
  }
  // The timing model scales seeks by capacity; use the actual simulated size
  // so that address distance maps onto arm travel sensibly.
  profile_.capacity_bytes = bytes;
}

void SimDisk::AttachFaults(FaultInjector* injector) {
  if (injector != nullptr) {
    faults_ = injector->Channel("disk." + name_);
  }
}

void SimDisk::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  const std::string prefix = "disk." + name_ + ".";
  reads_.BindTo(*registry, prefix + "reads");
  writes_.BindTo(*registry, prefix + "writes");
  bytes_read_.BindTo(*registry, prefix + "bytes_read");
  bytes_written_.BindTo(*registry, prefix + "bytes_written");
  seeks_.BindTo(*registry, prefix + "seeks");
}

Status SimDisk::CheckRange(uint32_t block, uint32_t count) const {
  if (count == 0) {
    return InvalidArgument("zero-length I/O on " + name_);
  }
  if (block >= num_blocks_ || count > num_blocks_ - block) {
    return OutOfRange(name_ + ": blocks [" + std::to_string(block) + ", " +
                      std::to_string(block + count) + ") beyond device end " +
                      std::to_string(num_blocks_));
  }
  return OkStatus();
}

SimTime SimDisk::ServiceTime(uint64_t byte_offset, uint64_t bytes,
                             bool is_write) {
  SimTime t = profile_.per_op_overhead_us;
  uint64_t distance =
      byte_offset > arm_byte_pos_ ? byte_offset - arm_byte_pos_
                                  : arm_byte_pos_ - byte_offset;
  if (distance != 0) {
    t += profile_.SeekTime(distance);
    t += profile_.rotational_us;
    ++seeks_;
  }
  t += profile_.TransferTime(bytes, is_write);
  arm_byte_pos_ = byte_offset + bytes;
  return t;
}

Result<SimTime> SimDisk::ScheduleReadAt(SimTime earliest, uint32_t block,
                                        uint32_t count,
                                        std::span<uint8_t> out) {
  RETURN_IF_ERROR(CheckRange(block, count));
  if (out.size() != static_cast<size_t>(count) * kBlockSize) {
    return InvalidArgument(name_ + ": read buffer size mismatch");
  }
  uint64_t offset = static_cast<uint64_t>(block) * kBlockSize;
  FaultOutcome fault = FaultOutcome::kNone;
  if (fail_ops_ > 0) {
    --fail_ops_;
    fault = FaultOutcome::kTransient;
  } else if (faults_ != nullptr) {
    fault = faults_->Decide(FaultOp::kRead, offset, out.size());
  }
  if (fault != FaultOutcome::kNone) {
    // A failed read still costs the seek and the rotation.
    SimTime dur = ServiceTime(offset, out.size(), /*is_write=*/false);
    (void)(bus_ ? spindle_.ScheduleWith(*bus_, earliest, dur)
                : spindle_.Schedule(earliest, dur));
    return IoError(name_ + ": injected read failure (" +
                   FaultOutcomeName(fault) + ")");
  }
  std::memcpy(out.data(), data_.get() + offset, out.size());
  if (faults_ != nullptr) {
    faults_->MaybeCorruptRead(out, offset);
  }
  SimTime dur = ServiceTime(offset, out.size(), /*is_write=*/false);
  SimTime end = bus_ ? spindle_.ScheduleWith(*bus_, earliest, dur)
                     : spindle_.Schedule(earliest, dur);
  ++reads_;
  bytes_read_ += out.size();
  return end;
}

Result<SimTime> SimDisk::ScheduleWriteAt(SimTime earliest, uint32_t block,
                                         uint32_t count,
                                         std::span<const uint8_t> data) {
  RETURN_IF_ERROR(CheckRange(block, count));
  if (data.size() != static_cast<size_t>(count) * kBlockSize) {
    return InvalidArgument(name_ + ": write buffer size mismatch");
  }
  uint64_t offset = static_cast<uint64_t>(block) * kBlockSize;
  // Bytes lent out by InPlaceBytes for exactly this range are already in
  // place; any other overlap with the range would be a memcpy between
  // overlapping buffers.
  uint8_t* dst = data_.get() + offset;
  const bool in_place = data.data() == dst;
  const auto src_at = reinterpret_cast<uintptr_t>(data.data());
  const auto dst_at = reinterpret_cast<uintptr_t>(dst);
  if (!in_place && src_at < dst_at + data.size() &&
      dst_at < src_at + data.size()) {
    return InvalidArgument(name_ + ": write source overlaps its destination");
  }
  FaultOutcome fault = FaultOutcome::kNone;
  if (fail_ops_ > 0) {
    --fail_ops_;
    fault = FaultOutcome::kTransient;
  } else if (faults_ != nullptr) {
    fault = faults_->Decide(FaultOp::kWrite, offset, data.size());
  }
  if (fault != FaultOutcome::kNone) {
    // A failed write still costs the seek and the rotation; no data lands
    // (bytes a caller filled in place stay as filled).
    SimTime dur = ServiceTime(offset, data.size(), /*is_write=*/true);
    (void)(bus_ ? spindle_.ScheduleWith(*bus_, earliest, dur)
                : spindle_.Schedule(earliest, dur));
    return IoError(name_ + ": injected write failure (" +
                   FaultOutcomeName(fault) + ")");
  }
  if (!in_place) {
    std::memcpy(dst, data.data(), data.size());
  }
  if (faults_ != nullptr) {
    faults_->NoteWrite(offset, data.size());
  }
  SimTime dur = ServiceTime(offset, data.size(), /*is_write=*/true);
  SimTime end = bus_ ? spindle_.ScheduleWith(*bus_, earliest, dur)
                     : spindle_.Schedule(earliest, dur);
  ++writes_;
  bytes_written_ += data.size();
  return end;
}

std::span<uint8_t> SimDisk::InPlaceBytes(uint32_t block, uint32_t count) {
  if (!CheckRange(block, count).ok()) {
    return {};
  }
  return {data_.get() + static_cast<uint64_t>(block) * kBlockSize,
          static_cast<size_t>(count) * kBlockSize};
}

Status SimDisk::ReadBlocks(uint32_t block, uint32_t count,
                           std::span<uint8_t> out) {
  ASSIGN_OR_RETURN(SimTime end, ScheduleReadAt(clock_->Now(), block, count, out));
  clock_->AdvanceTo(end);
  return OkStatus();
}

Status SimDisk::WriteBlocks(uint32_t block, uint32_t count,
                            std::span<const uint8_t> data) {
  ASSIGN_OR_RETURN(SimTime end,
                   ScheduleWriteAt(clock_->Now(), block, count, data));
  clock_->AdvanceTo(end);
  return OkStatus();
}

}  // namespace hl

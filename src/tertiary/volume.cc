#include "tertiary/volume.h"

#include <algorithm>

namespace hl {

Status Volume::CheckInjectedFault(FaultOp op, uint64_t offset,
                                  uint64_t len) const {
  if (faults_ == nullptr) {
    return OkStatus();
  }
  switch (faults_->Decide(op, offset, len)) {
    case FaultOutcome::kNone:
      return OkStatus();
    case FaultOutcome::kMediaError:
      return IoError(label_ + ": latent sector error at byte " +
                     std::to_string(offset));
    default:
      return IoError(label_ + ": injected media " +
                     std::string(op == FaultOp::kRead ? "read" : "write") +
                     " failure");
  }
}

Status Volume::Read(uint64_t offset, uint64_t len,
                    std::vector<ChunkRef>* out, uint32_t* crc) const {
  if (offset + len > nominal_capacity_) {
    return OutOfRange(label_ + ": read past end of medium");
  }
  RETURN_IF_ERROR(CheckInjectedFault(FaultOp::kRead, offset, len));
  uint32_t sum = store_.Share(offset, len, out);
  if (faults_ != nullptr && faults_->profile().read_corrupt_p > 0) {
    // Bit flips land in a copy of the delivered bytes, never on the medium.
    std::vector<uint8_t> bytes(len);
    CopyChunks(*out, bytes);
    if (faults_->MaybeCorruptRead(bytes, offset)) {
      sum = CopyToChunks(bytes, out);
    }
  }
  if (crc != nullptr) {
    *crc = sum;
  }
  return OkStatus();
}

const Chunk* Volume::ChunkAt(uint64_t offset) const {
  return store_.ChunkAt(offset);
}

void Volume::Store(uint64_t offset, std::span<const uint8_t> data,
                   uint32_t* crc) {
  // Every write asks for the CRC, so each written chunk's stored CRC stays
  // current for Read.
  uint32_t sum = 0;
  store_.Write(offset, data, crc != nullptr ? crc : &sum);
  bytes_written_ += data.size();
  if (faults_ != nullptr) {
    faults_->NoteWrite(offset, data.size());
  }
}

Status Volume::Write(uint64_t offset, std::span<const uint8_t> data,
                     uint32_t* crc) {
  if (offset + data.size() > nominal_capacity_) {
    return OutOfRange(label_ + ": write past nominal end of medium");
  }
  if (offset + data.size() > actual_capacity_) {
    // Device-level compression fell short; report end-of-medium before
    // writing anything so the caller can redo the segment on a new volume.
    return Status(ErrorCode::kEndOfMedium,
                  label_ + ": end of medium at byte " +
                      std::to_string(actual_capacity_));
  }
  if (write_once_ && RangeWritten(offset, offset + data.size())) {
    return Status(ErrorCode::kNotSupported,
                  label_ + ": rewrite of WORM extent");
  }
  RETURN_IF_ERROR(CheckInjectedFault(FaultOp::kWrite, offset, data.size()));
  Store(offset, data, crc);
  high_water_ = std::max(high_water_, offset + data.size());
  RecordRange(offset, offset + data.size());
  return OkStatus();
}

Status Volume::Rewrite(uint64_t offset, std::span<const uint8_t> data,
                       uint32_t* crc) {
  if (write_once_) {
    return Status(ErrorCode::kNotSupported,
                  label_ + ": rewrite of WORM extent");
  }
  if (offset + data.size() > high_water_) {
    return OutOfRange(label_ + ": rewrite past high-water mark");
  }
  RETURN_IF_ERROR(CheckInjectedFault(FaultOp::kWrite, offset, data.size()));
  Store(offset, data, crc);
  return OkStatus();
}

Status Volume::Erase() {
  if (write_once_) {
    return Status(ErrorCode::kNotSupported, label_ + ": cannot erase WORM");
  }
  store_.Clear();
  written_ranges_.clear();
  high_water_ = 0;
  return OkStatus();
}

bool Volume::RangeWritten(uint64_t start, uint64_t end) const {
  // Any overlap with a recorded range counts as written.
  auto it = written_ranges_.upper_bound(start);
  if (it != written_ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > start) {
      return true;
    }
  }
  return it != written_ranges_.end() && it->first < end;
}

void Volume::RecordRange(uint64_t start, uint64_t end) {
  // Merge with adjacent/overlapping ranges to keep the map small.
  auto it = written_ranges_.upper_bound(start);
  if (it != written_ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {
      start = prev->first;
      end = std::max(end, prev->second);
      it = written_ranges_.erase(prev);
    }
  }
  while (it != written_ranges_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = written_ranges_.erase(it);
  }
  written_ranges_[start] = end;
}

}  // namespace hl

#include "tertiary/volume.h"

#include <algorithm>
#include <cstring>

#include "util/crc32.h"

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

Status Volume::Read(uint64_t offset, std::span<uint8_t> out,
                    uint32_t* crc) const {
  if (offset + out.size() > nominal_capacity_) {
    return OutOfRange(label_ + ": read past end of medium");
  }
  RETURN_IF_ERROR(CheckInjectedFault(FaultOp::kRead, offset, out.size()));
  uint32_t sum = 0;
  size_t done = 0;
  while (done < out.size()) {
    uint64_t pos = offset + done;
    uint64_t chunk_index = pos / kChunkSize;
    uint64_t chunk_off = pos % kChunkSize;
    size_t take = static_cast<size_t>(
        std::min<uint64_t>(kChunkSize - chunk_off, out.size() - done));
    std::span<uint8_t> dst = out.subspan(done, take);
    auto it = chunks_.find(chunk_index);
    if (it == chunks_.end()) {
      std::memset(dst.data(), 0, take);
      if (crc != nullptr) {
        sum = Crc32(dst, sum);
      }
    } else {
      std::span<const uint8_t> src(it->second.data() + chunk_off, take);
      if (crc != nullptr) {
        sum = Crc32Copy(dst, src, sum);
      } else {
        std::memcpy(dst.data(), src.data(), take);
      }
    }
    done += take;
  }
  const bool corrupted =
      faults_ != nullptr && faults_->MaybeCorruptRead(out, offset);
  if (crc != nullptr) {
    // Injected bit flips are part of what was delivered.
    *crc = corrupted ? Crc32(out) : sum;
  }
  return OkStatus();
}

void Volume::CopyIn(uint64_t offset, std::span<const uint8_t> data) {
  size_t done = 0;
  while (done < data.size()) {
    uint64_t pos = offset + done;
    uint64_t chunk_index = pos / kChunkSize;
    uint64_t chunk_off = pos % kChunkSize;
    size_t take = static_cast<size_t>(
        std::min<uint64_t>(kChunkSize - chunk_off, data.size() - done));
    auto [it, inserted] = chunks_.try_emplace(chunk_index);
    if (inserted) {
      it->second.assign(kChunkSize, 0);
    }
    std::memcpy(it->second.data() + chunk_off, data.data() + done, take);
    done += take;
  }
}

Status Volume::Write(uint64_t offset, std::span<const uint8_t> data) {
  if (marked_full_) {
    return Status(ErrorCode::kEndOfMedium, label_ + ": volume marked full");
  }
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
  CopyIn(offset, data);
  bytes_written_ += data.size();
  high_water_ = std::max(high_water_, offset + data.size());
  RecordRange(offset, offset + data.size());
  if (faults_ != nullptr) {
    faults_->NoteWrite(offset, data.size());
  }
  return OkStatus();
}

Status Volume::Rewrite(uint64_t offset, std::span<const uint8_t> data) {
  if (write_once_) {
    return Status(ErrorCode::kNotSupported,
                  label_ + ": rewrite of WORM extent");
  }
  if (offset + data.size() > high_water_) {
    return OutOfRange(label_ + ": rewrite past high-water mark");
  }
  RETURN_IF_ERROR(CheckInjectedFault(FaultOp::kWrite, offset, data.size()));
  CopyIn(offset, data);
  bytes_written_ += data.size();
  if (faults_ != nullptr) {
    faults_->NoteWrite(offset, data.size());
  }
  return OkStatus();
}

Status Volume::Erase() {
  if (write_once_) {
    return Status(ErrorCode::kNotSupported, label_ + ": cannot erase WORM");
  }
  chunks_.clear();
  written_ranges_.clear();
  marked_full_ = false;
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

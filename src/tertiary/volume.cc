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

namespace {

constexpr uint64_t kChunkSize = Chunk::kBytes;

// What an unwritten chunk reads as.
const ChunkRef& ZeroChunk() {
  static const ChunkRef zero = [] {
    auto chunk = std::make_shared<Chunk>();  // Value-initialised: all zero.
    chunk->crc = Crc32(chunk->bytes);
    return ChunkRef(std::move(chunk));
  }();
  return zero;
}

}  // namespace

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
      std::span<const uint8_t> src(it->second->bytes + chunk_off, take);
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

bool Volume::CanShare(uint64_t offset, uint64_t len) const {
  return offset % kChunkSize == 0 && len % kChunkSize == 0 &&
         (faults_ == nullptr || faults_->profile().read_corrupt_p <= 0);
}

Status Volume::ReadShared(uint64_t offset, uint64_t len,
                          std::vector<ChunkRef>* out, uint32_t* crc) const {
  if (!CanShare(offset, len)) {
    return Status(ErrorCode::kNotSupported,
                  label_ + ": extent cannot be read by reference");
  }
  if (offset + len > nominal_capacity_) {
    return OutOfRange(label_ + ": read past end of medium");
  }
  // The same draw as Read; CanShare ruled out the corruption draw.
  RETURN_IF_ERROR(CheckInjectedFault(FaultOp::kRead, offset, len));
  out->clear();
  uint32_t sum = 0;
  auto it = chunks_.lower_bound(offset / kChunkSize);
  for (uint64_t index = offset / kChunkSize;
       index < (offset + len) / kChunkSize; ++index) {
    if (it != chunks_.end() && it->first == index) {
      out->push_back(it->second);
      ++it;
    } else {
      out->push_back(ZeroChunk());
    }
    sum = Crc32Combine(sum, out->back()->crc, kChunkSize);
  }
  if (crc != nullptr) {
    *crc = sum;
  }
  return OkStatus();
}

const Chunk* Volume::ChunkAt(uint64_t offset) const {
  auto it = chunks_.find(offset / kChunkSize);
  return it == chunks_.end() ? nullptr : it->second.get();
}

uint32_t Volume::CopyIn(uint64_t offset, std::span<const uint8_t> data) {
  uint32_t sum = 0;
  size_t done = 0;
  while (done < data.size()) {
    uint64_t pos = offset + done;
    uint64_t chunk_index = pos / kChunkSize;
    size_t chunk_off = static_cast<size_t>(pos % kChunkSize);
    size_t take = static_cast<size_t>(
        std::min<uint64_t>(kChunkSize - chunk_off, data.size() - done));
    const bool whole = take == kChunkSize;
    std::shared_ptr<Chunk>& chunk = chunks_[chunk_index];
    if (chunk == nullptr || chunk.use_count() > 1) {
      // Copy-on-write: whoever holds the old chunk keeps its bytes. The
      // copy below fills a whole chunk, so only a partial write needs the
      // bytes around it (zeros on first write).
      std::shared_ptr<Chunk> fresh = std::make_shared_for_overwrite<Chunk>();
      if (!whole) {
        if (chunk == nullptr) {
          std::memset(fresh->bytes, 0, kChunkSize);
        } else {
          std::memcpy(fresh->bytes, chunk->bytes, kChunkSize);
        }
      }
      chunk = std::move(fresh);
    }
    const uint32_t piece =
        Crc32Copy(std::span<uint8_t>(chunk->bytes + chunk_off, take),
                  data.subspan(done, take));
    if (whole) {
      chunk->crc = piece;
    } else {
      const size_t tail = chunk_off + take;
      const uint32_t head =
          Crc32(std::span<const uint8_t>(chunk->bytes, chunk_off));
      chunk->crc = Crc32Combine(
          Crc32Combine(head, piece, take),
          Crc32(std::span<const uint8_t>(chunk->bytes + tail,
                                         kChunkSize - tail)),
          kChunkSize - tail);
    }
    sum = Crc32Combine(sum, piece, take);
    done += take;
  }
  return sum;
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
  const uint32_t sum = CopyIn(offset, data);
  if (crc != nullptr) {
    *crc = sum;
  }
  bytes_written_ += data.size();
  high_water_ = std::max(high_water_, offset + data.size());
  RecordRange(offset, offset + data.size());
  if (faults_ != nullptr) {
    faults_->NoteWrite(offset, data.size());
  }
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
  const uint32_t sum = CopyIn(offset, data);
  if (crc != nullptr) {
    *crc = sum;
  }
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

#include "util/chunk.h"

#include <algorithm>
#include <cstring>

#include "util/crc32.h"

namespace hl {

namespace {

constexpr uint64_t kChunkSize = Chunk::kBytes;

const ChunkRef& ZeroChunk() {
  static const ChunkRef zero = [] {
    auto chunk = std::make_shared<Chunk>();  // Value-initialised: all zero.
    chunk->crc = Crc32(chunk->bytes);
    return ChunkRef(std::move(chunk));
  }();
  return zero;
}

// Fresh chunks holding `len` bytes, the last one zero-padded, where
// `fill(done, dst)` copies the bytes from `done` on into `dst` and returns
// their Crc32. Returns Crc32 of the `len` bytes.
template <typename Fill>
uint32_t FreshChunks(uint64_t len, std::vector<ChunkRef>* out, Fill fill) {
  out->clear();
  uint32_t sum = 0;
  for (uint64_t done = 0; done < len; done += kChunkSize) {
    const size_t take = std::min<uint64_t>(kChunkSize, len - done);
    std::shared_ptr<Chunk> chunk = std::make_shared_for_overwrite<Chunk>();
    std::memset(chunk->bytes + take, 0, kChunkSize - take);
    const uint32_t piece = fill(done, std::span<uint8_t>(chunk->bytes, take));
    chunk->crc = take == kChunkSize ? piece : Crc32(chunk->bytes);
    sum = Crc32Combine(sum, piece, take);
    out->push_back(std::move(chunk));
  }
  return sum;
}

}  // namespace

void CopyChunks(std::span<const ChunkRef> chunks, std::span<uint8_t> out) {
  for (size_t done = 0, i = 0; done < out.size(); done += kChunkSize, ++i) {
    std::memcpy(out.data() + done, chunks[i]->bytes,
                std::min<size_t>(kChunkSize, out.size() - done));
  }
}

uint32_t CopyToChunks(std::span<const uint8_t> bytes,
                      std::vector<ChunkRef>* out) {
  return FreshChunks(bytes.size(), out,
                     [&](uint64_t done, std::span<uint8_t> dst) {
                       return Crc32Copy(dst, bytes.subspan(done, dst.size()));
                     });
}

void ChunkStore::Read(uint64_t offset, std::span<uint8_t> out,
                      uint32_t* crc) const {
  uint32_t sum = 0;
  for (size_t done = 0, take = 0; done < out.size(); done += take) {
    const uint64_t pos = offset + done;
    const size_t at = pos % kChunkSize;
    take = std::min<size_t>(kChunkSize - at, out.size() - done);
    std::span<uint8_t> dst = out.subspan(done, take);
    const Chunk* chunk = ChunkAt(pos);
    if (chunk == nullptr) {
      std::memset(dst.data(), 0, take);
      if (crc != nullptr) {
        sum = Crc32(dst, sum);
      }
    } else if (crc != nullptr) {
      sum = Crc32Copy(dst, {chunk->bytes + at, take}, sum);
    } else {
      std::memcpy(dst.data(), chunk->bytes + at, take);
    }
  }
  if (crc != nullptr) {
    *crc = sum;
  }
}

void ChunkStore::Write(uint64_t offset, std::span<const uint8_t> data,
                       uint32_t* crc) {
  const size_t end =
      data.empty() ? 0 : (offset + data.size() - 1) / kChunkSize + 1;
  chunks_.resize(std::max(chunks_.size(), end));
  uint32_t sum = 0;
  for (size_t done = 0, take = 0; done < data.size(); done += take) {
    const uint64_t pos = offset + done;
    const size_t at = pos % kChunkSize;
    take = std::min<size_t>(kChunkSize - at, data.size() - done);
    const bool whole = take == kChunkSize;
    std::shared_ptr<Chunk>& chunk = chunks_[pos / kChunkSize];
    if (chunk == nullptr || chunk.use_count() > 1) {
      // Copy-on-write: whoever holds the old chunk keeps its bytes. Only a
      // partial write needs the bytes around it (zeros on first write).
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
    chunk->crc_stale = crc == nullptr;
    if (crc == nullptr) {
      std::memcpy(chunk->bytes + at, data.data() + done, take);
      continue;
    }
    const uint32_t piece =
        Crc32Copy({chunk->bytes + at, take}, data.subspan(done, take));
    sum = Crc32Combine(sum, piece, take);
    if (whole) {
      chunk->crc = piece;
    } else {
      // Join the untouched head and tail around the piece.
      const size_t tail = at + take;
      chunk->crc = Crc32Combine(
          Crc32Combine(Crc32({chunk->bytes, at}), piece, take),
          Crc32({chunk->bytes + tail, kChunkSize - tail}), kChunkSize - tail);
    }
  }
  if (crc != nullptr) {
    *crc = sum;
  }
}

uint32_t ChunkStore::Share(uint64_t offset, uint64_t len,
                           std::vector<ChunkRef>* refs) const {
  if (offset % kChunkSize != 0 || len % kChunkSize != 0) {
    return FreshChunks(len, refs, [&](uint64_t done, std::span<uint8_t> dst) {
      uint32_t piece = 0;
      Read(offset + done, dst, &piece);
      return piece;
    });
  }
  refs->clear();
  uint32_t sum = 0;
  for (uint64_t pos = offset; pos < offset + len; pos += kChunkSize) {
    const uint64_t index = pos / kChunkSize;
    if (index >= chunks_.size() || chunks_[index] == nullptr) {
      refs->push_back(ZeroChunk());
    } else {
      Chunk& chunk = *chunks_[index];
      if (chunk.crc_stale) {
        chunk.crc = Crc32(chunk.bytes);
        chunk.crc_stale = false;
      }
      refs->push_back(chunks_[index]);
    }
    sum = Crc32Combine(sum, refs->back()->crc, kChunkSize);
  }
  return sum;
}

void ChunkStore::Install(uint64_t offset, std::span<const ChunkRef> refs) {
  const uint64_t first = offset / kChunkSize;
  chunks_.resize(std::max<size_t>(chunks_.size(), first + refs.size()));
  for (size_t i = 0; i < refs.size(); ++i) {
    // Every chunk was made non-const, and a store writes into one only
    // while it is the sole holder.
    chunks_[first + i] = std::const_pointer_cast<Chunk>(refs[i]);
  }
}

}  // namespace hl

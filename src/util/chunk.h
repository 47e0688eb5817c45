// Chunk: 64 KB of tertiary image bytes, refcounted and copy-on-write.
//
// A Volume stores what is written to it as chunks. A demand fetch hands
// references to the same chunks to the raw disk, which keeps them as the
// installed cache line (BlockDevice::WriteShared) instead of copying the
// bytes. Nobody changes a chunk another holder can see: a writer that finds
// its chunk shared (use_count() > 1) fills a fresh one instead, so every
// holder keeps exactly the bytes it took. `crc` is Crc32 of `bytes`, and
// every write keeps it current, so a run of chunks is checked by combining
// stored values (Crc32Combine) rather than hashing the bytes again.

#ifndef HIGHLIGHT_UTIL_CHUNK_H_
#define HIGHLIGHT_UTIL_CHUNK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace hl {

struct Chunk {
  static constexpr size_t kBytes = 64 * 1024;
  uint32_t crc = 0;
  uint8_t bytes[kBytes];
};

using ChunkRef = std::shared_ptr<const Chunk>;

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_CHUNK_H_

// ChunkStore: the one representation of a simulated medium's bytes, under
// the raw disks (SimDisk) and the tertiary volumes (Volume) alike.
//
// A store keeps one refcounted 64 KB Chunk per chunk index, allocated when
// the chunk is first written; an index never written reads as zeros. Share
// hands out references to a store's chunks, and Install makes references
// the bytes of a range: a demand fetch shares a volume's chunks and
// installs them as the cache line on disk. One copy-on-write rule covers
// every holder: a writer that finds its chunk shared (use_count() > 1)
// fills a fresh one, so every holder keeps exactly the bytes it took.
//
// `crc` is Crc32 of `bytes` whenever anyone but the writer can see the
// chunk. A write that asks for a CRC keeps it current in the copy that
// stores the bytes; one that does not (every disk write) leaves it stale,
// and Share computes it before first handing the chunk out. A run of shared
// chunks is then checked by combining stored values (Crc32Combine).

#ifndef HIGHLIGHT_UTIL_CHUNK_H_
#define HIGHLIGHT_UTIL_CHUNK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace hl {

struct Chunk {
  static constexpr size_t kBytes = 64 * 1024;
  uint32_t crc = 0;
  bool crc_stale = false;  // A write changed `bytes` without updating `crc`.
  uint8_t bytes[kBytes];
};

using ChunkRef = std::shared_ptr<const Chunk>;

class ChunkStore {
 public:
  // Copies the bytes at `offset` into `out`; with `crc` set, also reports
  // Crc32 of them, computed in the copy.
  void Read(uint64_t offset, std::span<uint8_t> out,
            uint32_t* crc = nullptr) const;

  // Stores `data` at `offset`, copy-on-write; a whole-chunk write skips the
  // zero-fill a first partial write needs. With `crc` set, reports Crc32 of
  // `data` and keeps each touched chunk's CRC current; without, it does no
  // CRC work.
  void Write(uint64_t offset, std::span<const uint8_t> data,
             uint32_t* crc = nullptr);

  // Read by reference of whole chunks (`offset` and `len` multiples of
  // Chunk::kBytes): `refs` receives the chunks in order (an unwritten one
  // is a shared zero chunk), and the return value is Crc32 of their bytes
  // joined from the stored CRCs. Filling in a stale CRC changes no bytes.
  uint32_t Share(uint64_t offset, uint64_t len,
                 std::vector<ChunkRef>* refs) const;

  // Makes `refs` the chunks from `offset` (a multiple of Chunk::kBytes) on.
  void Install(uint64_t offset, std::span<const ChunkRef> refs);

  // The chunk holding byte `offset`, or null where nothing was written.
  const Chunk* ChunkAt(uint64_t offset) const {
    const uint64_t index = offset / Chunk::kBytes;
    return index < chunks_.size() ? chunks_[index].get() : nullptr;
  }

  // Drops every chunk; chunks someone else holds stay alive with them.
  void Clear() { chunks_.clear(); }

 private:
  std::vector<std::shared_ptr<Chunk>> chunks_;  // By chunk index.
};

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_CHUNK_H_

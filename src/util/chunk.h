// ChunkStore: the one representation of a simulated medium's bytes, under
// the raw disks (SimDisk) and the tertiary volumes (Volume) alike.
//
// A store keeps one refcounted 64 KB Chunk per chunk index, allocated when
// the chunk is first written; an index never written reads as zeros. Share
// is the one read by reference: it hands out references to a store's
// chunks, and Install makes references the bytes of a range. Every tertiary
// read shares a volume's chunks, and a demand fetch or read-ahead installs
// them as the cache line on disk. Share alone decides when a read copies:
// an extent off the 64 KB grid is copied into fresh chunks. One
// copy-on-write rule covers every holder: a writer that finds its chunk
// shared (use_count() > 1) fills a fresh one, so every holder keeps exactly
// the bytes it took.
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

// Copies the first `out.size()` bytes `chunks` hold, in order, into `out`.
void CopyChunks(std::span<const ChunkRef> chunks, std::span<uint8_t> out);

// Copies `bytes` into fresh chunks (`out`), the last one zero-padded, and
// returns Crc32 of `bytes`.
uint32_t CopyToChunks(std::span<const uint8_t> bytes,
                      std::vector<ChunkRef>* out);

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

  // Read by reference of [offset, offset + len): `refs` receives the
  // chunks in order and the return value is Crc32 of the `len` bytes. On
  // the grid (`offset` and `len` multiples of Chunk::kBytes) they are the
  // store's own chunks (an unwritten one is a shared zero chunk), their
  // stored CRCs joined; filling in a stale CRC changes no bytes. Off the
  // grid the bytes are copied into fresh chunks, the last one zero-padded.
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

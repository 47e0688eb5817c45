// BufferCache: an LRU block cache standing in for the 4.4BSD buffer cache.
//
// The evaluation machine had 3.2 MB of buffer cache; Table 2 flushes it
// before each phase, so the cache is explicit and flushable here. It caches
// clean blocks only — dirty data live in the file system's per-inode dirty
// maps until the segment writer assigns them disk addresses — so eviction
// never loses data.
//
// Storage is a slab of at most `capacity` slots threaded by an intrusive
// doubly-linked recency list (indices, not node allocations): promotions
// and evictions relink two integers, and an evicted slot's block buffer is
// recycled for the next insert instead of freed — after warm-up the steady
// state allocates nothing (see DESIGN.md "Engine performance"). The segment
// writer hands each freshly written data buffer over with Adopt, so a block
// enters the cache without a copy.

#ifndef HIGHLIGHT_LFS_BUFFER_CACHE_H_
#define HIGHLIGHT_LFS_BUFFER_CACHE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace hl {

class BufferCache {
 public:
  explicit BufferCache(uint32_t capacity_blocks)
      : capacity_(capacity_blocks) {}

  // Returns true and fills `out` on a hit; records nothing on a miss.
  bool Lookup(uint32_t daddr, std::span<uint8_t> out);

  // Zero-copy Lookup: the cached bytes on a hit, an empty span on a miss,
  // with the same hit/miss counts and LRU promotion. The view stays valid
  // until the next Insert, Adopt, Invalidate or Flush.
  std::span<const uint8_t> Find(uint32_t daddr);

  // Inserts (or refreshes) the block, evicting LRU entries as needed.
  void Insert(uint32_t daddr, std::span<const uint8_t> block);

  // Insert that takes ownership of `block` instead of copying it: the
  // slot's previous buffer is released. Hits, misses, LRU order and
  // evictions are exactly Insert's.
  void Adopt(uint32_t daddr, std::vector<uint8_t> block);

  // Drops one block (used when a block is reassigned a new address).
  void Invalidate(uint32_t daddr);

  // Drops everything (the benchmarks' pre-phase flush). Slot buffers are
  // kept for reuse; only the index empties.
  void Flush();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t size() const { return entries_.size(); }
  uint32_t capacity() const { return capacity_; }
  // Bytes of block-buffer arena currently retained (telemetry).
  size_t arena_bytes() const;

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Slot {
    uint32_t daddr = 0;
    uint32_t prev = kNil;  // Toward the most-recent end.
    uint32_t next = kNil;  // Toward the least-recent end.
    std::vector<uint8_t> data;  // Reused across occupants.
  };

  void Unlink(uint32_t s);
  void LinkFront(uint32_t s);
  // The slot that holds `daddr` after an insert, most recent in LRU order
  // (evicting as needed); kNil when the cache has no capacity.
  uint32_t SlotFor(uint32_t daddr);

  uint32_t capacity_;
  std::vector<Slot> slots_;        // Grows to capacity_, then recycles.
  std::vector<uint32_t> free_;     // Unoccupied slot indices.
  uint32_t head_ = kNil;           // Most recent.
  uint32_t tail_ = kNil;           // Least recent (eviction victim).
  std::unordered_map<uint32_t, uint32_t> entries_;  // daddr -> slot index.
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace hl

#endif  // HIGHLIGHT_LFS_BUFFER_CACHE_H_

#include "lfs/buffer_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace hl {

void BufferCache::Unlink(uint32_t s) {
  Slot& slot = slots_[s];
  if (slot.prev != kNil) {
    slots_[slot.prev].next = slot.next;
  } else {
    head_ = slot.next;
  }
  if (slot.next != kNil) {
    slots_[slot.next].prev = slot.prev;
  } else {
    tail_ = slot.prev;
  }
  slot.prev = kNil;
  slot.next = kNil;
}

void BufferCache::LinkFront(uint32_t s) {
  Slot& slot = slots_[s];
  slot.prev = kNil;
  slot.next = head_;
  if (head_ != kNil) {
    slots_[head_].prev = s;
  }
  head_ = s;
  if (tail_ == kNil) {
    tail_ = s;
  }
}

std::span<const uint8_t> BufferCache::Find(uint32_t daddr) {
  auto it = entries_.find(daddr);
  if (it == entries_.end()) {
    ++misses_;
    return {};
  }
  ++hits_;
  if (head_ != it->second) {
    Unlink(it->second);
    LinkFront(it->second);
  }
  return slots_[it->second].data;
}

bool BufferCache::Lookup(uint32_t daddr, std::span<uint8_t> out) {
  std::span<const uint8_t> data = Find(daddr);
  if (data.empty()) {
    return false;
  }
  std::memcpy(out.data(), data.data(), std::min(out.size(), data.size()));
  return true;
}

uint32_t BufferCache::SlotFor(uint32_t daddr) {
  auto it = entries_.find(daddr);
  if (it != entries_.end()) {
    if (head_ != it->second) {
      Unlink(it->second);
      LinkFront(it->second);
    }
    return it->second;
  }
  while (entries_.size() >= capacity_ && tail_ != kNil) {
    uint32_t victim = tail_;
    entries_.erase(slots_[victim].daddr);
    Unlink(victim);
    free_.push_back(victim);  // Buffer retained for reuse.
  }
  if (capacity_ == 0) {
    return kNil;
  }
  uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    s = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[s].daddr = daddr;
  LinkFront(s);
  entries_[daddr] = s;
  return s;
}

void BufferCache::Insert(uint32_t daddr, std::span<const uint8_t> block) {
  uint32_t s = SlotFor(daddr);
  if (s != kNil) {
    slots_[s].data.assign(block.begin(), block.end());
  }
}

void BufferCache::Adopt(uint32_t daddr, std::vector<uint8_t> block) {
  uint32_t s = SlotFor(daddr);
  if (s != kNil) {
    slots_[s].data = std::move(block);
  }
}

void BufferCache::Invalidate(uint32_t daddr) {
  auto it = entries_.find(daddr);
  if (it != entries_.end()) {
    Unlink(it->second);
    free_.push_back(it->second);
    entries_.erase(it);
  }
}

void BufferCache::Flush() {
  entries_.clear();
  head_ = kNil;
  tail_ = kNil;
  free_.resize(slots_.size());
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    free_[s] = s;
  }
}

size_t BufferCache::arena_bytes() const {
  size_t bytes = 0;
  for (const Slot& slot : slots_) {
    bytes += slot.data.capacity();
  }
  return bytes;
}

}  // namespace hl

// ChunkStore, the one representation of every simulated medium's bytes,
// checked against a flat reference image.
//  * Seeded mixes of whole-chunk and partial writes (with and without a CRC
//    request), reads, shares, installs and clears: the bytes always match
//    the reference, every shared chunk's stored CRC is Crc32 of its bytes,
//    and references taken earlier keep their bytes.
//  * A write without a CRC request does no CRC work: the chunk's CRC stays
//    stale until the chunk is first shared.
//  * Chunks are allocated on first write only.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/chunk.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace hl {
namespace {

constexpr size_t kChunk = Chunk::kBytes;

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

std::vector<uint8_t> Concat(const std::vector<ChunkRef>& chunks) {
  std::vector<uint8_t> out;
  for (const ChunkRef& c : chunks) {
    out.insert(out.end(), c->bytes, c->bytes + kChunk);
  }
  return out;
}

uint32_t CrcOf(const Chunk& chunk) {
  return Crc32(std::span<const uint8_t>(chunk.bytes));
}

TEST(ChunkStoreTest, SeededOpMixesMatchAFlatReferenceImage) {
  constexpr uint64_t kChunks = 32;
  constexpr uint64_t kCapacity = kChunks * kChunk;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChunkStore store;
    std::vector<uint8_t> model(kCapacity, 0);
    struct Held {
      std::vector<ChunkRef> chunks;
      std::vector<uint8_t> bytes;  // What the chunks held when taken.
    };
    std::vector<Held> held;
    Rng rng(seed);
    auto expect_image = [&](int op) {
      std::vector<uint8_t> all(kCapacity);
      store.Read(0, all);
      EXPECT_TRUE(all == model) << "op " << op;
    };
    for (int op = 0; op < 240; ++op) {
      const uint64_t kind = rng.Below(12);
      const bool want_crc = rng.Below(2) == 0;
      uint32_t crc = 0;
      if (kind < 3) {  // Whole chunks.
        const uint64_t n = 1 + rng.Below(4);
        const uint64_t off = rng.Below(kChunks - n + 1) * kChunk;
        const auto data = Pattern(n * kChunk, seed * 1000 + op);
        store.Write(off, data, want_crc ? &crc : nullptr);
        if (want_crc) {
          EXPECT_EQ(crc, Crc32(data)) << "op " << op;
        }
        std::copy(data.begin(), data.end(), model.begin() + off);
      } else if (kind < 6) {  // Partial, at any byte.
        const uint64_t len = 1 + rng.Below(3 * kChunk);
        const uint64_t off = rng.Below(kCapacity - len + 1);
        const auto data = Pattern(len, seed * 1000 + op);
        store.Write(off, data, want_crc ? &crc : nullptr);
        if (want_crc) {
          EXPECT_EQ(crc, Crc32(data)) << "op " << op;
        }
        std::copy(data.begin(), data.end(), model.begin() + off);
      } else if (kind < 7) {  // Copying read of any extent.
        const uint64_t len = 1 + rng.Below(2 * kChunk);
        const uint64_t off = rng.Below(kCapacity - len + 1);
        std::vector<uint8_t> out(len);
        store.Read(off, out, want_crc ? &crc : nullptr);
        EXPECT_TRUE(std::equal(out.begin(), out.end(), model.begin() + off))
            << "op " << op;
        if (want_crc) {
          EXPECT_EQ(crc, Crc32(out)) << "op " << op;
        }
      } else if (kind < 10) {  // Share whole chunks.
        const uint64_t n = 1 + rng.Below(4);
        const uint64_t off = rng.Below(kChunks - n + 1) * kChunk;
        Held h;
        crc = store.Share(off, n * kChunk, &h.chunks);
        ASSERT_EQ(h.chunks.size(), n);
        h.bytes = Concat(h.chunks);
        EXPECT_TRUE(std::equal(h.bytes.begin(), h.bytes.end(),
                               model.begin() + off))
            << "op " << op;
        EXPECT_EQ(crc, Crc32(h.bytes)) << "op " << op;
        for (uint64_t i = 0; i < n; ++i) {
          EXPECT_EQ(h.chunks[i]->crc, CrcOf(*h.chunks[i]))
              << "op " << op << " chunk " << i;
          const Chunk* mine = store.ChunkAt(off + i * kChunk);
          if (mine != nullptr) {
            EXPECT_EQ(h.chunks[i].get(), mine);  // A reference, not a copy.
          }
        }
        held.push_back(std::move(h));
      } else if (kind < 11) {  // Install chunks someone shared earlier.
        if (held.empty()) {
          continue;
        }
        const Held& h = held[rng.Below(held.size())];
        const uint64_t n = h.chunks.size();
        const uint64_t off = rng.Below(kChunks - n + 1) * kChunk;
        store.Install(off, h.chunks);
        std::copy(h.bytes.begin(), h.bytes.end(), model.begin() + off);
        for (uint64_t i = 0; i < n; ++i) {
          EXPECT_EQ(store.ChunkAt(off + i * kChunk), h.chunks[i].get());
        }
      } else if (rng.Below(4) == 0) {  // Clear, now and then.
        store.Clear();
        std::fill(model.begin(), model.end(), 0);
      }
      if (op % 20 == 0) {
        expect_image(op);
      }
    }
    expect_image(-1);
    for (const Held& h : held) {
      EXPECT_TRUE(Concat(h.chunks) == h.bytes);
      for (const ChunkRef& c : h.chunks) {
        EXPECT_EQ(c->crc, CrcOf(*c));
      }
    }
  }
}

TEST(ChunkStoreTest, WriteWithoutCrcLeavesItStaleUntilShared) {
  ChunkStore store;
  const auto data = Pattern(kChunk + 100, 7);
  store.Write(kChunk - 50, data);  // Parts of three chunks, no CRC asked.
  for (uint64_t i = 0; i < 3; ++i) {
    const Chunk* chunk = store.ChunkAt(i * kChunk);
    ASSERT_NE(chunk, nullptr);
    EXPECT_TRUE(chunk->crc_stale) << i;
  }
  std::vector<ChunkRef> refs;
  const uint32_t crc = store.Share(0, 3 * kChunk, &refs);
  std::vector<uint8_t> image(3 * kChunk);
  store.Read(0, image);
  EXPECT_EQ(crc, Crc32(image));
  for (const ChunkRef& c : refs) {
    EXPECT_FALSE(c->crc_stale);
    EXPECT_EQ(c->crc, CrcOf(*c));
  }
  // A write that asks keeps the CRC current; the shared chunk it would
  // have changed is copied first, so the reference keeps its bytes.
  uint32_t wrote = 0;
  store.Write(10, Pattern(20, 8), &wrote);
  EXPECT_EQ(wrote, Crc32(Pattern(20, 8)));
  const Chunk* fresh = store.ChunkAt(0);
  EXPECT_NE(fresh, refs[0].get());
  EXPECT_FALSE(fresh->crc_stale);
  EXPECT_EQ(fresh->crc, CrcOf(*fresh));
  EXPECT_EQ(refs[0]->crc, CrcOf(*refs[0]));
  EXPECT_TRUE(std::equal(refs[0]->bytes, refs[0]->bytes + kChunk,
                         image.begin()));
}

TEST(ChunkStoreTest, ChunksAreAllocatedOnFirstWriteOnly) {
  ChunkStore store;
  EXPECT_EQ(store.ChunkAt(0), nullptr);
  std::vector<uint8_t> out(3 * kChunk, 0xAB);
  store.Read(5 * kChunk, out);  // Reading allocates nothing.
  EXPECT_TRUE(out == std::vector<uint8_t>(3 * kChunk, 0));
  EXPECT_EQ(store.ChunkAt(5 * kChunk), nullptr);

  store.Write(9 * kChunk + 4096, Pattern(4096, 1));
  for (uint64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(store.ChunkAt(i * kChunk) != nullptr, i == 9) << i;
  }
  // Sharing an unwritten chunk hands out the zero chunk and allocates none
  // in the store.
  std::vector<ChunkRef> refs;
  const uint32_t crc = store.Share(10 * kChunk, 2 * kChunk, &refs);
  EXPECT_EQ(crc, Crc32(std::vector<uint8_t>(2 * kChunk, 0)));
  EXPECT_EQ(refs[0].get(), refs[1].get());
  EXPECT_EQ(store.ChunkAt(10 * kChunk), nullptr);
  store.Clear();
  EXPECT_EQ(store.ChunkAt(9 * kChunk), nullptr);
}

}  // namespace
}  // namespace hl

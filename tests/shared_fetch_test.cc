// Recall by reference: every tertiary read hands out the source volume's
// chunks, and a demand fetch or read-ahead installs them into the cache
// line instead of copying them.
//  * Crc32Combine joins stored CRCs exactly as Crc32 of the concatenation.
//  * Every chunk's stored CRC describes its bytes after any mix of writes;
//    a read of any extent, under any fault profile, delivers the medium's
//    bytes unless a flip fired, reports Crc32 of what it delivered, draws
//    what a copying read drew, and never changes the medium.
//  * WriteShared is charged exactly as WriteBlocks of the same bytes,
//    installs the chunks themselves only as whole chunks on the disk's
//    chunk grid, and ConcatDriver forwards it only within one component.
//  * Copy-on-write holds both ways: volume writes leave an installed line
//    alone, disk writes leave the volume alone, and a remount reads exact.
//  * Fetches and read-ahead share on a default deployment; a corrupting
//    volume is rejected by its CRC, and where a layer must copy (a segment
//    that is not whole chunks, a line across two disks) it reads back
//    exact.
// Which chunks a disk shares is read with SimDisk::ChunkAt and
// Volume::ChunkAt: a shared range holds the very chunk the other holder
// has.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "blockdev/concat_driver.h"
#include "blockdev/sim_disk.h"
#include "highlight/highlight.h"
#include "tertiary/volume.h"
#include "util/crc32.h"
#include "util/fault_injector.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "volume_bytes.h"

namespace hl {
namespace {

constexpr size_t kChunk = Chunk::kBytes;
constexpr uint32_t kChunkBlocks = Chunk::kBytes / kBlockSize;

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

std::vector<uint8_t> Concat(std::span<const ChunkRef> chunks) {
  std::vector<uint8_t> out;
  for (const ChunkRef& c : chunks) {
    out.insert(out.end(), c->bytes, c->bytes + kChunk);
  }
  return out;
}

std::vector<ChunkRef> MakeChunks(size_t n, uint64_t seed) {
  std::vector<ChunkRef> chunks;
  for (size_t i = 0; i < n; ++i) {
    auto chunk = std::make_shared<Chunk>();
    const auto bytes = Pattern(kChunk, seed * 131 + i);
    std::copy(bytes.begin(), bytes.end(), chunk->bytes);
    chunk->crc = Crc32(bytes);
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

// --- Crc32Combine ------------------------------------------------------------

TEST(Crc32CombineTest, EqualsCrcOfConcatenationAtEvery4KSplit) {
  for (uint64_t seed : {1, 2}) {
    const auto buf = Pattern(1 << 20, seed);
    const std::span<const uint8_t> all(buf);
    const uint32_t whole = Crc32(all);
    for (size_t split = 0; split <= buf.size(); split += 4096) {
      const uint32_t a = Crc32(all.first(split));
      const uint32_t b = Crc32(all.subspan(split));
      EXPECT_EQ(Crc32Combine(a, b, buf.size() - split), whole)
          << "seed " << seed << " split " << split;
    }
  }
  // Byte-granular splits of a short buffer, and two empty halves.
  const auto small = Pattern(97, 3);
  for (size_t split = 0; split <= small.size(); ++split) {
    const std::span<const uint8_t> s(small);
    EXPECT_EQ(Crc32Combine(Crc32(s.first(split)), Crc32(s.subspan(split)),
                           small.size() - split),
              Crc32(s));
  }
  EXPECT_EQ(Crc32Combine(0, 0, 0), 0u);
}

// --- Volume chunks -----------------------------------------------------------

// Every written chunk's stored CRC is Crc32 of its bytes.
void ExpectStoredCrcsHold(const Volume& volume) {
  for (uint64_t off = 0; off < volume.nominal_capacity(); off += kChunk) {
    const Chunk* chunk = volume.ChunkAt(off);
    if (chunk != nullptr) {
      EXPECT_EQ(chunk->crc, Crc32(std::span<const uint8_t>(chunk->bytes)))
          << "chunk at " << off;
    }
  }
}

// Seeded mixes of whole-chunk and partial writes, rewrites, erases and
// reads of any extent, some under a profile that can corrupt reads, checked
// against a byte model of the volume. A read delivers the model's bytes
// unless a flip fired, reports Crc32 of what it delivered, and hands out
// the volume's own chunks for a whole-chunk extent no flip touched; a flip
// never reaches the medium, so a later clean read equals the model.
// References a read took keep the bytes they had, whatever the volume does
// next.
TEST(VolumeChunkTest, StoredCrcsAndSharedReadsHoldOverSeededOpMixes) {
  constexpr uint64_t kCapacity = 32 * kChunk;
  FaultProfile corrupt;
  corrupt.read_corrupt_p = 0.5;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimClock clock;
    FaultInjector faults(&clock, seed);
    Volume volume("v", kCapacity);
    volume.AttachFaults(faults.Channel("volume.v"));
    std::vector<uint8_t> model(kCapacity, 0);
    struct Held {
      std::vector<ChunkRef> chunks;
      std::vector<uint8_t> bytes;
    };
    std::vector<Held> held;
    int shared = 0;
    int flipped_reads = 0;
    Rng rng(seed);
    for (int op = 0; op < 150; ++op) {
      const uint64_t kind = rng.Below(10);
      if (kind < 3) {  // Whole-chunk write.
        const uint64_t n = 1 + rng.Below(4);
        const uint64_t off = rng.Below(32 - n + 1) * kChunk;
        const auto data = Pattern(n * kChunk, seed * 1000 + op);
        uint32_t crc = 0;
        ASSERT_TRUE(volume.Write(off, data, &crc).ok());
        EXPECT_EQ(crc, Crc32(data));
        std::copy(data.begin(), data.end(), model.begin() + off);
      } else if (kind < 5) {  // Partial write at any byte.
        const uint64_t len = 1 + rng.Below(3 * kChunk);
        const uint64_t off = rng.Below(kCapacity - len + 1);
        const auto data = Pattern(len, seed * 1000 + op);
        uint32_t crc = 0;
        ASSERT_TRUE(volume.Write(off, data, &crc).ok());
        EXPECT_EQ(crc, Crc32(data));
        std::copy(data.begin(), data.end(), model.begin() + off);
      } else if (kind < 6) {  // Rewrite below the high-water mark.
        if (volume.high_water() == 0) {
          continue;
        }
        const uint64_t len = 1 + rng.Below(std::min<uint64_t>(
                                     volume.high_water(), 2 * kChunk));
        const uint64_t off = rng.Below(volume.high_water() - len + 1);
        const auto data = Pattern(len, seed * 1000 + op);
        uint32_t crc = 0;
        ASSERT_TRUE(volume.Rewrite(off, data, &crc).ok());
        EXPECT_EQ(crc, Crc32(data));
        std::copy(data.begin(), data.end(), model.begin() + off);
      } else if (kind < 7) {
        if (rng.Below(3) == 0) {
          ASSERT_TRUE(volume.Erase().ok());
          std::fill(model.begin(), model.end(), 0);
        }
      } else {  // A read of whole chunks or of any extent, maybe corrupting.
        const bool whole = rng.Below(2) == 0;
        uint64_t off = 0;
        uint64_t len = 0;
        if (whole) {
          const uint64_t n = 1 + rng.Below(4);
          off = rng.Below(32 - n + 1) * kChunk;
          len = n * kChunk;
        } else {
          len = 1 + rng.Below(3 * kChunk);
          off = rng.Below(kCapacity - len + 1);
        }
        volume.fault_channel()->set_profile(
            rng.Below(3) == 0 ? corrupt : FaultProfile{});
        const uint64_t corruptions = faults.stats().corruptions;
        Held h;
        uint32_t crc = 0;
        ASSERT_TRUE(volume.Read(off, len, &h.chunks, &crc).ok());
        const bool flipped = faults.stats().corruptions > corruptions;
        volume.fault_channel()->set_profile(FaultProfile{});
        ASSERT_EQ(h.chunks.size(), (len + kChunk - 1) / kChunk);
        h.bytes = Concat(h.chunks);
        const std::span<const uint8_t> delivered(h.bytes.data(), len);
        EXPECT_EQ(crc, Crc32(delivered)) << "op " << op;
        if (!flipped) {
          EXPECT_TRUE(std::equal(delivered.begin(), delivered.end(),
                                 model.begin() + off))
              << "op " << op;
        } else {
          ++flipped_reads;
          std::vector<uint8_t> clean(len);
          ASSERT_TRUE(ReadBytes(volume, off, clean).ok());
          EXPECT_TRUE(std::equal(clean.begin(), clean.end(),
                                 model.begin() + off))
              << "op " << op;
        }
        for (uint64_t i = 0; i < h.chunks.size(); ++i) {
          const Chunk* mine = volume.ChunkAt(off + i * kChunk);
          if (whole && !flipped) {
            if (mine != nullptr) {
              EXPECT_EQ(h.chunks[i].get(), mine);  // A reference, not a copy.
              ++shared;
            }
          } else {
            EXPECT_EQ(h.chunks[i].use_count(), 1);  // A fresh private chunk.
          }
        }
        held.push_back(std::move(h));
      }
      ExpectStoredCrcsHold(volume);
    }
    EXPECT_GT(shared, 0);
    EXPECT_GT(flipped_reads, 0);
    std::vector<uint8_t> all(kCapacity);
    ASSERT_TRUE(ReadBytes(volume, 0, all).ok());
    EXPECT_TRUE(all == model);
    for (const Held& h : held) {
      EXPECT_TRUE(Concat(h.chunks) == h.bytes);
      for (const ChunkRef& c : h.chunks) {
        EXPECT_EQ(c->crc, Crc32(std::span<const uint8_t>(c->bytes)));
      }
    }
  }
}

// The reads a volume used to refuse to share are served: extents off the
// chunk grid, and any read under a profile that can corrupt it. Each makes
// exactly the draws of a copying read (the media fault draw, then the
// corruption draw over a copy of the delivered bytes), made here by hand
// on a twin channel with the same seed, and delivers the same bytes. The
// medium keeps its chunks and its bytes.
TEST(VolumeChunkTest, OffGridAndCorruptingReadsDrawLikeACopyingRead) {
  SimClock clock;
  FaultInjector faults(&clock, 5);
  FaultInjector twin_faults(&clock, 5);
  Volume volume("v", 8 * kChunk);
  volume.AttachFaults(faults.Channel("volume.v"));
  FaultChannel* twin = twin_faults.Channel("volume.v");
  const auto image = Pattern(4 * kChunk, 1);
  ASSERT_TRUE(volume.Write(0, image).ok());
  std::vector<const Chunk*> stored;
  for (uint64_t i = 0; i < 4; ++i) {
    stored.push_back(volume.ChunkAt(i * kChunk));
  }

  FaultProfile corrupt;
  corrupt.read_corrupt_p = 0.5;
  struct Extent {
    uint64_t offset;
    uint64_t len;
  };
  const Extent extents[] = {{kChunk / 2, kChunk},      // Unaligned start.
                            {0, 24 * kBlockSize},      // Not whole chunks.
                            {kChunk, 2 * kChunk},      // Whole chunks.
                            {3 * kChunk + 7, 5}};
  for (const FaultProfile& profile : {FaultProfile{}, corrupt}) {
    volume.fault_channel()->set_profile(profile);
    twin->set_profile(profile);
    for (int round = 0; round < 4; ++round) {
      for (const Extent& e : extents) {
        std::vector<ChunkRef> out;
        uint32_t crc = 0;
        ASSERT_TRUE(volume.Read(e.offset, e.len, &out, &crc).ok());
        std::vector<uint8_t> got(e.len);
        CopyChunks(out, got);
        std::vector<uint8_t> want(image.begin() + e.offset,
                                  image.begin() + e.offset + e.len);
        ASSERT_EQ(twin->Decide(FaultOp::kRead, e.offset, e.len),
                  FaultOutcome::kNone);
        twin->MaybeCorruptRead(want, e.offset);
        EXPECT_TRUE(got == want) << "round " << round << " at " << e.offset;
        EXPECT_EQ(crc, Crc32(got));
        for (const ChunkRef& c : out) {
          EXPECT_EQ(c->crc, Crc32(std::span<const uint8_t>(c->bytes)));
        }
      }
    }
  }
  EXPECT_GT(faults.stats().corruptions, 0u);
  EXPECT_EQ(faults.stats().corruptions, twin_faults.stats().corruptions);
  volume.fault_channel()->set_profile(FaultProfile{});
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(volume.ChunkAt(i * kChunk), stored[i]);
  }
  std::vector<uint8_t> all(4 * kChunk);
  ASSERT_TRUE(ReadBytes(volume, 0, all).ok());
  EXPECT_TRUE(all == image);

  // Past the end: the range check a copying read makes.
  std::vector<ChunkRef> out;
  EXPECT_EQ(volume.Read(6 * kChunk, 4 * kChunk, &out).code(),
            ErrorCode::kOutOfRange);
  // Unwritten chunks are shared zeros with the zero CRC.
  uint32_t crc = 0;
  ASSERT_TRUE(volume.Read(4 * kChunk, 2 * kChunk, &out, &crc).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(crc, Crc32(std::vector<uint8_t>(2 * kChunk, 0)));
  EXPECT_TRUE(Concat(out) == std::vector<uint8_t>(2 * kChunk, 0));
}

// --- WriteShared on the raw disk ---------------------------------------------

// Two identical disks, each on its own clock behind its own fault injector
// with the same seed and some write failures. One takes WriteBlocks of a
// run of chunks' bytes, the other WriteShared of the chunks, on a chunk
// boundary (installed by reference) or at any block (copied); ordinary
// writes and reads land on both. Completion times, seeks, fault draws,
// disk.* counters and every byte read agree op for op.
TEST(SharedWriteTest, WriteSharedChargesLikeWriteBlocks) {
  SimClock copying_clock;
  SimClock sharing_clock;
  FaultInjector copying_faults(&copying_clock, 42);
  FaultInjector sharing_faults(&sharing_clock, 42);
  MetricsRegistry copying_metrics;
  MetricsRegistry sharing_metrics;
  SimDisk copying("d", 512, Rz57Profile(), &copying_clock);
  SimDisk sharing("d", 512, Rz57Profile(), &sharing_clock);
  copying.AttachFaults(&copying_faults);
  sharing.AttachFaults(&sharing_faults);
  copying.AttachMetrics(&copying_metrics);
  sharing.AttachMetrics(&sharing_metrics);
  FaultProfile flaky;
  flaky.write_transient_p = 0.3;
  copying.fault_channel()->set_profile(flaky);
  sharing.fault_channel()->set_profile(flaky);

  Rng rng(7);
  int shared_ok = 0;
  int copied_ok = 0;
  int failures = 0;
  for (int op = 0; op < 120; ++op) {
    const uint64_t kind = rng.Below(3);
    if (kind == 0) {  // A run of chunks, on a chunk boundary or anywhere.
      const uint32_t n = 1 + static_cast<uint32_t>(rng.Below(3));
      const uint32_t count = n * kChunkBlocks;
      const bool aligned = op % 2 == 0;
      const uint32_t block =
          aligned ? static_cast<uint32_t>(rng.Below(32 - n + 1)) * kChunkBlocks
                  : static_cast<uint32_t>(rng.Below(512 - count + 1));
      const std::vector<ChunkRef> chunks = MakeChunks(n, op);
      Status a = copying.WriteBlocks(block, count, Concat(chunks));
      Status b = sharing.WriteShared(block, count, chunks);
      ASSERT_EQ(a.ok(), b.ok()) << "op " << op;
      if (!b.ok()) {
        ++failures;
      } else if (block % kChunkBlocks == 0) {
        ++shared_ok;
        for (uint32_t i = 0; i < n; ++i) {
          EXPECT_EQ(sharing.ChunkAt(block + i * kChunkBlocks),
                    chunks[i].get());
        }
      } else {
        ++copied_ok;  // Off the chunk grid: copied, not referenced.
        EXPECT_NE(sharing.ChunkAt(block), chunks[0].get());
      }
    } else if (kind == 1) {  // An ordinary write over whatever is there.
      const uint32_t count = 1 + static_cast<uint32_t>(rng.Below(40));
      const uint32_t block = static_cast<uint32_t>(rng.Below(512 - count + 1));
      const auto data = Pattern(count * kBlockSize, 500 + op);
      Status a = copying.WriteBlocks(block, count, data);
      Status b = sharing.WriteBlocks(block, count, data);
      ASSERT_EQ(a.ok(), b.ok()) << "op " << op;
    } else {  // A read across flat and shared blocks.
      const uint32_t count = 1 + static_cast<uint32_t>(rng.Below(80));
      const uint32_t block = static_cast<uint32_t>(rng.Below(512 - count + 1));
      std::vector<uint8_t> a(count * kBlockSize);
      std::vector<uint8_t> b(count * kBlockSize);
      ASSERT_TRUE(copying.ReadBlocks(block, count, a).ok());
      ASSERT_TRUE(sharing.ReadBlocks(block, count, b).ok());
      EXPECT_TRUE(a == b) << "op " << op;
    }
    ASSERT_EQ(copying_clock.Now(), sharing_clock.Now()) << "op " << op;
    copying_clock.Advance(5'000);
    sharing_clock.Advance(5'000);
  }
  EXPECT_GT(shared_ok, 0);
  EXPECT_GT(copied_ok, 0);
  EXPECT_GT(failures, 0);
  std::vector<uint8_t> a(512 * kBlockSize);
  std::vector<uint8_t> b(512 * kBlockSize);
  ASSERT_TRUE(copying.ReadBlocks(0, 512, a).ok());
  ASSERT_TRUE(sharing.ReadBlocks(0, 512, b).ok());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(copying.seeks(), sharing.seeks());
  EXPECT_EQ(copying.busy_time(), sharing.busy_time());
  EXPECT_EQ(copying_faults.stats().transients,
            sharing_faults.stats().transients);
  const MetricsSnapshot ma = copying_metrics.Snapshot();
  const MetricsSnapshot mb = sharing_metrics.Snapshot();
  for (const char* counter :
       {"disk.d.writes", "disk.d.bytes_written", "disk.d.seeks",
        "disk.d.reads", "disk.d.bytes_read"}) {
    EXPECT_EQ(ma.Value(counter), mb.Value(counter)) << counter;
  }
}

TEST(SharedWriteTest, WriteSharedChecksRangeAndSizeBeforeAnyCharge) {
  SimClock clock;
  SimDisk disk("d", 64, Rz57Profile(), &clock);
  const std::vector<ChunkRef> one = MakeChunks(1, 1);
  EXPECT_EQ(disk.WriteShared(56, 16, one).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.WriteShared(64, 16, one).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.WriteShared(0, 0, {}).code(), ErrorCode::kInvalidArgument);
  // The chunks `count` blocks need, no more and no fewer: on the grid and
  // off it.
  const std::vector<ChunkRef> two = MakeChunks(2, 2);
  EXPECT_EQ(disk.WriteShared(0, 32, one).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(disk.WriteShared(0, 8, two).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(disk.WriteShared(8, 16, two).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(disk.writes(), 0u);
  for (uint32_t b = 0; b < 64; b += kChunkBlocks) {
    EXPECT_EQ(disk.ChunkAt(b), nullptr) << b;
  }
  EXPECT_EQ(clock.Now(), 0u);
  ASSERT_TRUE(disk.WriteShared(48, 16, one).ok());
  EXPECT_EQ(disk.ChunkAt(48), one[0].get());
  EXPECT_EQ(disk.ChunkAt(63), one[0].get());
  EXPECT_EQ(disk.ChunkAt(47), nullptr);
  // A last chunk only partly used: its head is copied in.
  ASSERT_TRUE(disk.WriteShared(0, 24, two).ok());
  EXPECT_NE(disk.ChunkAt(0), two[0].get());
  std::vector<uint8_t> out(24 * kBlockSize);
  ASSERT_TRUE(disk.ReadBlocks(0, 24, out).ok());
  const std::vector<uint8_t> both = Concat(two);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), both.begin()));
}

TEST(SharedWriteTest, ConcatForwardsSharedWriteWithinOneComponentOnly) {
  SimClock clock;
  SimDisk a("a", 100, Rz57Profile(), &clock);
  SimDisk b("b", 200, Rz58Profile(), &clock);
  ConcatDriver cat("cat", {&a, &b});
  const std::vector<ChunkRef> first = MakeChunks(1, 1);
  const std::vector<ChunkRef> second = MakeChunks(2, 2);
  const std::vector<ChunkRef> straddler = MakeChunks(1, 3);

  ASSERT_TRUE(cat.WriteShared(80, 16, first).ok());
  EXPECT_EQ(a.ChunkAt(80), first[0].get());
  ASSERT_TRUE(cat.WriteShared(116, 32, second).ok());
  EXPECT_EQ(b.ChunkAt(16), second[0].get());
  EXPECT_EQ(b.ChunkAt(47), second[1].get());
  EXPECT_EQ(a.writes(), 1u);
  EXPECT_EQ(b.writes(), 1u);

  // Across the boundary no one component holds the range: it is copied,
  // one write to each side, and the partly overwritten chunk on `a` is
  // replaced by a copy of its own, leaving `first` as it was.
  ASSERT_TRUE(cat.WriteShared(92, 16, straddler).ok());
  EXPECT_EQ(a.writes(), 2u);
  EXPECT_EQ(b.writes(), 2u);
  EXPECT_NE(a.ChunkAt(80), first[0].get());
  EXPECT_NE(b.ChunkAt(0), straddler[0].get());
  EXPECT_EQ(b.ChunkAt(16), second[0].get());
  EXPECT_EQ(b.ChunkAt(32), second[1].get());
  std::vector<uint8_t> out(16 * kBlockSize);
  ASSERT_TRUE(cat.ReadBlocks(92, 16, out).ok());
  EXPECT_TRUE(out == Concat(straddler));
  std::vector<uint8_t> head(12 * kBlockSize);
  ASSERT_TRUE(cat.ReadBlocks(80, 12, head).ok());
  const std::vector<uint8_t> first_bytes = Concat(first);
  EXPECT_TRUE(std::equal(head.begin(), head.end(), first_bytes.begin()));
  // A shared range off the component's chunk grid is copied too: a's block
  // 8 is not on one of its chunk boundaries.
  ASSERT_TRUE(cat.WriteShared(8, 16, first).ok());
  EXPECT_EQ(a.writes(), 3u);
  EXPECT_NE(a.ChunkAt(8), first[0].get());
  EXPECT_NE(a.ChunkAt(16), first[0].get());
  ASSERT_TRUE(cat.ReadBlocks(8, 16, out).ok());
  EXPECT_TRUE(out == first_bytes);

  EXPECT_EQ(cat.WriteShared(299, 16, first).code(), ErrorCode::kOutOfRange);
}

// --- Copy-on-write, both ways ------------------------------------------------

class CopyOnWriteTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kLine = 16;  // First block of the line.

  void SetUp() override {
    image_ = Pattern(4 * kChunk, 21);
    ASSERT_TRUE(volume_.Write(kChunk, image_).ok());
    std::vector<ChunkRef> chunks;
    ASSERT_TRUE(volume_.Read(kChunk, 4 * kChunk, &chunks).ok());
    ASSERT_TRUE(disk_.WriteShared(kLine, 4 * kChunkBlocks, chunks).ok());
    ASSERT_EQ(ChunksSharedWithVolume(), 4u);
  }

  // How many of the line's four chunks are the very chunks the volume holds
  // for the same bytes.
  uint32_t ChunksSharedWithVolume() const {
    uint32_t shared = 0;
    for (uint32_t i = 0; i < 4; ++i) {
      const Chunk* held = disk_.ChunkAt(kLine + i * kChunkBlocks);
      shared += held != nullptr && held == volume_.ChunkAt((1 + i) * kChunk);
    }
    return shared;
  }

  std::vector<uint8_t> Line() {
    std::vector<uint8_t> out(4 * kChunk);
    EXPECT_TRUE(disk_.ReadBlocks(kLine, 4 * kChunkBlocks, out).ok());
    return out;
  }
  std::vector<uint8_t> OnVolume() {
    std::vector<uint8_t> out(4 * kChunk);
    EXPECT_TRUE(ReadBytes(volume_, kChunk, out).ok());
    return out;
  }

  SimClock clock_;
  Volume volume_{"v", 8 * kChunk};
  SimDisk disk_{"d", 512, Rz57Profile(), &clock_};
  std::vector<uint8_t> image_;
};

TEST_F(CopyOnWriteTest, VolumeWritesLeaveTheInstalledLineUnchanged) {
  // Whole chunks, a partial chunk, a rewrite and an erase: the volume
  // changes every time, the line never does.
  const auto other = Pattern(4 * kChunk, 22);
  ASSERT_TRUE(volume_.Write(kChunk, other).ok());
  EXPECT_TRUE(OnVolume() == other);
  EXPECT_TRUE(Line() == image_);
  EXPECT_EQ(ChunksSharedWithVolume(), 0u);

  std::vector<ChunkRef> chunks;
  ASSERT_TRUE(volume_.Read(kChunk, 4 * kChunk, &chunks).ok());
  ASSERT_TRUE(disk_.WriteShared(kLine, 4 * kChunkBlocks, chunks).ok());
  ASSERT_TRUE(volume_.Write(kChunk + 1000, Pattern(300, 23)).ok());
  ASSERT_TRUE(volume_.Rewrite(2 * kChunk + 5, Pattern(kChunk, 24)).ok());
  EXPECT_TRUE(Line() == other);
  EXPECT_FALSE(OnVolume() == other);

  ASSERT_TRUE(volume_.Erase().ok());
  EXPECT_TRUE(OnVolume() == std::vector<uint8_t>(4 * kChunk, 0));
  EXPECT_TRUE(Line() == other);
  for (uint32_t b = kLine; b < kLine + 4 * kChunkBlocks; b += kChunkBlocks) {
    const Chunk* held = disk_.ChunkAt(b);
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(held->crc, Crc32(std::span<const uint8_t>(held->bytes)));
  }
}

TEST_F(CopyOnWriteTest, DiskWritesLeaveTheVolumeUnchanged) {
  std::vector<uint8_t> expect = image_;
  // Part of one chunk: the disk copies that chunk and writes the copy, the
  // others stay shared.
  const auto part = Pattern(3 * kBlockSize, 31);
  ASSERT_TRUE(disk_.WriteBlocks(kLine + kChunkBlocks + 5, 3, part).ok());
  std::copy(part.begin(), part.end(),
            expect.begin() + (kChunkBlocks + 5) * kBlockSize);
  EXPECT_EQ(ChunksSharedWithVolume(), 3u);
  EXPECT_NE(disk_.ChunkAt(kLine + kChunkBlocks), volume_.ChunkAt(2 * kChunk));
  EXPECT_TRUE(Line() == expect);
  EXPECT_TRUE(OnVolume() == image_);

  // A write across a chunk boundary and past the line's start.
  const auto across = Pattern(24 * kBlockSize, 32);
  ASSERT_TRUE(disk_.WriteBlocks(kLine - 4, 24, across).ok());
  std::copy(across.begin() + 4 * kBlockSize, across.end(), expect.begin());
  EXPECT_EQ(ChunksSharedWithVolume(), 2u);
  EXPECT_TRUE(Line() == expect);
  EXPECT_TRUE(OnVolume() == image_);

  // The whole line.
  const auto all = Pattern(4 * kChunk, 33);
  ASSERT_TRUE(disk_.WriteBlocks(kLine, 4 * kChunkBlocks, all).ok());
  EXPECT_EQ(ChunksSharedWithVolume(), 0u);
  EXPECT_TRUE(Line() == all);
  EXPECT_TRUE(OnVolume() == image_);
}

// --- Fetches on a deployment -------------------------------------------------

class SharedFetchTest : public ::testing::TestWithParam<bool> {
 protected:
  void Create(uint32_t seg_blocks, uint32_t second_disk_blocks = 0,
              uint32_t cache_lines = 8, bool readahead = false) {
    HighLightConfig::Builder builder;
    builder.AddDisk(Rz57Profile(), 8 * 1024);
    if (second_disk_blocks != 0) {
      builder.AddDisk(Rz57Profile(), second_disk_blocks);
    }
    Result<HighLightConfig> config = builder.AddJukebox(Hp6300MoProfile())
                                         .SegSizeBlocks(seg_blocks)
                                         .CacheMaxSegments(cache_lines)
                                         .AsyncReadPipeline(GetParam())
                                         .SequentialReadahead(readahead)
                                         .Build();
    ASSERT_TRUE(config.ok()) << config.status().ToString();
    auto made = HighLightFs::Create(*config, &clock_);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    hl_ = std::move(*made);
  }

  // Writes and migrates each file, then drops the cache.
  void MigrateCold(const std::map<std::string, std::vector<uint8_t>>& files,
                   const MigratorOptions& opts = {}) {
    std::vector<uint32_t> inos;
    for (const auto& [path, data] : files) {
      Result<uint32_t> ino = hl_->fs().Create(path);
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(hl_->fs().Write(*ino, 0, data).ok());
      inos.push_back(*ino);
    }
    ASSERT_TRUE(hl_->Internals().migrator.MigrateFiles(inos, opts).ok());
    ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  }

  void ExpectReadsBack(
      const std::map<std::string, std::vector<uint8_t>>& files) {
    hl_->fs().FlushBufferCache();
    for (const auto& [path, data] : files) {
      Result<uint32_t> ino = hl_->fs().LookupPath(path);
      ASSERT_TRUE(ino.ok()) << path;
      std::vector<uint8_t> out(data.size());
      ASSERT_TRUE(hl_->fs().Read(*ino, 0, out).ok()) << path;
      EXPECT_TRUE(out == data) << path;
    }
  }

  uint32_t LineFirstBlock(uint32_t line) const {
    return kDefaultReservedBlocks +
           line * hl_->fs().superblock().seg_size_blocks;
  }

  // True when every chunk of cache line `line` (on disk 0) is the very
  // chunk the volume holds for `tseg`.
  bool LineSharesVolumeChunks(uint32_t line, uint32_t tseg) {
    auto internals = hl_->Internals();
    Result<Volume*> volume = internals.footprint.GetVolume(
        static_cast<int>(internals.address_map.VolumeOfTseg(tseg)));
    const uint64_t offset = internals.address_map.ByteOffsetOnVolume(tseg);
    const uint32_t seg_blocks = hl_->fs().superblock().seg_size_blocks;
    bool all = volume.ok();
    for (uint32_t b = 0; all && b < seg_blocks; b += kChunkBlocks) {
      const Chunk* held = internals.disk(0).ChunkAt(LineFirstBlock(line) + b);
      all = held != nullptr &&
            held == (*volume)->ChunkAt(offset + uint64_t{b} * kBlockSize);
    }
    return all;
  }

  // Every chunk some volume holds.
  std::set<const Chunk*> VolumeChunks() {
    auto internals = hl_->Internals();
    std::set<const Chunk*> chunks;
    for (int v = 0; v < internals.footprint.NumVolumes(); ++v) {
      Result<Volume*> volume = internals.footprint.GetVolume(v);
      EXPECT_TRUE(volume.ok());
      for (uint64_t off = 0; volume.ok() && off < (*volume)->high_water();
           off += kChunk) {
        if (const Chunk* chunk = (*volume)->ChunkAt(off)) {
          chunks.insert(chunk);
        }
      }
    }
    return chunks;
  }

  // Blocks of disk `d` whose chunk is one a volume holds: what the disk
  // shares with tertiary.
  uint32_t BlocksSharedWithVolumes(size_t d) {
    const SimDisk& disk = hl_->Internals().disk(d);
    const std::set<const Chunk*> shared = VolumeChunks();
    uint32_t blocks = 0;
    for (uint32_t b = 0; b < disk.NumBlocks(); b += kChunkBlocks) {
      if (shared.count(disk.ChunkAt(b)) > 0) {
        blocks += kChunkBlocks;
      }
    }
    return blocks;
  }

  SimClock clock_;
  std::unique_ptr<HighLightFs> hl_;
};

// The default 1 MB segments: a demand fetch, in each pipeline, leaves the
// line holding the volume's own chunks, and the file reads back from them.
TEST_P(SharedFetchTest, DemandFetchSharesTheVolumeChunks) {
  Create(HighLightConfig().lfs.seg_size_blocks);
  const std::map<std::string, std::vector<uint8_t>> files = {
      {"/f", Pattern(900 * 1024, 41)}};
  MigrateCold(files);
  const std::vector<uint32_t> tsegs = hl_->FetchableSegments();
  ASSERT_EQ(tsegs.size(), 1u);
  auto internals = hl_->Internals();
  const uint64_t verified = internals.io_server.stats().crc_verified;
  Result<FetchOutcome> fetched = hl_->FetchSegment(tsegs[0]);
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(fetched->status.ok()) << fetched->status.ToString();
  const uint32_t line = internals.cache.Lookup(tsegs[0]);
  ASSERT_NE(line, kNoSegment);
  EXPECT_TRUE(LineSharesVolumeChunks(line, tsegs[0]));
  EXPECT_EQ(BlocksSharedWithVolumes(0),
            hl_->fs().superblock().seg_size_blocks);
  // Verified against the catalog from the stored CRCs.
  EXPECT_EQ(internals.io_server.stats().crc_verified, verified + 1);
  ExpectReadsBack(files);
}

// Volume writes, then disk writes, around shared lines; then a crash-like
// remount re-fetches everything and reads it back exact.
TEST_P(SharedFetchTest, CopyOnWriteBothWaysThenRemountReadsExact) {
  Create(64);
  std::map<std::string, std::vector<uint8_t>> files;
  for (int i = 0; i < 3; ++i) {
    files["/f" + std::to_string(i)] = Pattern(200 * 1024, 50 + i);
  }
  MigrateCold(files);
  ExpectReadsBack(files);  // Fetches every segment into a line.
  auto internals = hl_->Internals();
  const std::vector<uint32_t> tsegs = hl_->FetchableSegments();
  ASSERT_EQ(tsegs.size(), 3u);
  std::map<uint32_t, std::vector<uint8_t>> images;
  std::map<uint32_t, std::vector<uint8_t>> lines;
  std::map<uint32_t, const Chunk*> fetched_chunk;  // A line's first chunk.
  for (uint32_t tseg : tsegs) {
    const uint32_t line = internals.cache.Lookup(tseg);
    ASSERT_NE(line, kNoSegment);
    ASSERT_TRUE(LineSharesVolumeChunks(line, tseg));
    fetched_chunk[tseg] = internals.disk(0).ChunkAt(LineFirstBlock(line));
    Result<std::vector<uint8_t>> image = hl_->ReadSegmentImage(tseg);
    ASSERT_TRUE(image.ok());
    images[tseg] = *image;
    lines[tseg].resize(image->size());
    ASSERT_TRUE(internals.disk(0)
                    .ReadBlocks(LineFirstBlock(line), 64, lines[tseg])
                    .ok());
    EXPECT_TRUE(lines[tseg] == *image);
  }
  auto expect_lines_unchanged = [&] {
    for (uint32_t tseg : tsegs) {
      std::vector<uint8_t> now(lines[tseg].size());
      ASSERT_TRUE(internals.disk(0)
                      .ReadBlocks(LineFirstBlock(internals.cache.Lookup(tseg)),
                                  64, now)
                      .ok());
      EXPECT_TRUE(now == lines[tseg]) << "tseg " << tseg;
    }
  };

  // Volume side: a scrub-style rewrite of the first segment, a plain write
  // of the second's own bytes, then an erase of the whole volume and a
  // rebuild of every segment (what site recovery does).
  const AddressMap& amap = internals.address_map;
  const int volume = static_cast<int>(amap.VolumeOfTseg(tsegs[0]));
  ASSERT_TRUE(internals.footprint
                  .RepairWrite(volume, amap.ByteOffsetOnVolume(tsegs[0]),
                               images[tsegs[0]])
                  .ok());
  EXPECT_FALSE(
      LineSharesVolumeChunks(internals.cache.Lookup(tsegs[0]), tsegs[0]));
  ASSERT_TRUE(internals.footprint
                  .Write(volume, amap.ByteOffsetOnVolume(tsegs[1]),
                         images[tsegs[1]])
                  .ok());
  expect_lines_unchanged();
  for (uint32_t tseg : tsegs) {
    ASSERT_EQ(static_cast<int>(amap.VolumeOfTseg(tseg)), volume);
  }
  ASSERT_TRUE(internals.footprint.EraseVolume(volume).ok());
  expect_lines_unchanged();
  ExpectReadsBack(files);  // Served from the lines.
  for (uint32_t tseg : tsegs) {
    ASSERT_TRUE(hl_->InstallSegmentImage(tseg, images[tseg]).ok());
  }

  // Disk side: with the lines dropped, overwrite one whole and another in
  // part; the volume keeps every image.
  std::vector<uint32_t> freed;
  for (uint32_t tseg : tsegs) {
    freed.push_back(internals.cache.Lookup(tseg));
  }
  ASSERT_TRUE(hl_->DropCleanCacheLines().ok());
  ASSERT_TRUE(internals.disk(0)
                  .WriteBlocks(LineFirstBlock(freed[0]), 64,
                               Pattern(64 * kBlockSize, 60))
                  .ok());
  ASSERT_TRUE(internals.disk(0)
                  .WriteBlocks(LineFirstBlock(freed[1]) + 20, 7,
                               Pattern(7 * kBlockSize, 61))
                  .ok());
  for (uint32_t tseg : tsegs) {
    Result<std::vector<uint8_t>> image = hl_->ReadSegmentImage(tseg);
    ASSERT_TRUE(image.ok());
    EXPECT_TRUE(*image == images[tseg]) << "tseg " << tseg;
  }

  ASSERT_TRUE(hl_->Remount().ok());
  ExpectReadsBack(files);
  // The line no disk write touched still holds, by reference, the chunk
  // its fetch installed: the volume erase and the remount copied nothing.
  EXPECT_EQ(hl_->Internals().disk(0).ChunkAt(LineFirstBlock(freed[2])),
            fetched_chunk[tsegs[2]]);
}

// A source volume whose profile corrupts every read hands out private
// flipped chunks. With a replica on a clean volume, the corrupt primary is
// tried and rejected by its CRC on every attempt, and the replica's chunks
// are shared.
TEST_P(SharedFetchTest, CorruptibleVolumeIsRejectedAndTheReplicaShares) {
  Create(64);
  const std::map<std::string, std::vector<uint8_t>> files = {
      {"/f", Pattern(200 * 1024, 70)}};
  MigratorOptions opts;
  opts.replicas = 1;
  MigrateCold(files, opts);
  auto internals = hl_->Internals();
  uint32_t primary = kNoSegment;
  uint32_t replica = kNoSegment;
  for (uint32_t t = 0; t < internals.tseg_table.size(); ++t) {
    if (internals.tseg_table.Get(t).flags & kSegReplica) {
      primary = internals.tseg_table.Get(t).cache_tseg;
      replica = t;
      break;
    }
  }
  ASSERT_NE(primary, kNoSegment);
  const uint32_t volume = internals.address_map.VolumeOfTseg(primary);
  ASSERT_NE(internals.address_map.VolumeOfTseg(replica), volume);
  Result<Volume*> medium =
      internals.footprint.GetVolume(static_cast<int>(volume));
  ASSERT_TRUE(medium.ok());
  // Seat the primary's volume, so the fetch tries it first.
  std::vector<uint8_t> sector(kBlockSize);
  ASSERT_TRUE(
      internals.footprint.Read(static_cast<int>(volume), 0, sector).ok());
  FaultProfile corrupt;
  corrupt.read_corrupt_p = 1.0;
  (*medium)->fault_channel()->set_profile(corrupt);

  const IoServer::Stats& io = internals.io_server.stats();
  const uint64_t mismatches = io.crc_mismatches;
  const uint64_t failovers = io.failovers;
  Result<FetchOutcome> fetched = hl_->FetchSegment(primary);
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(fetched->status.ok()) << fetched->status.ToString();
  EXPECT_EQ(io.crc_mismatches - mismatches,
            static_cast<uint64_t>(RetryPolicy().max_attempts));
  EXPECT_EQ(io.failovers - failovers, 1u);
  const uint32_t line = internals.cache.Lookup(primary);
  ASSERT_NE(line, kNoSegment);
  EXPECT_TRUE(LineSharesVolumeChunks(line, replica));
  ExpectReadsBack(files);
}

// The only copy sits on a volume whose profile could corrupt a read (though
// none fires): the fetch shares the volume's own chunks, verifies, and
// reads back exact.
TEST_P(SharedFetchTest, CorruptibleOnlyCopyIsSharedExact) {
  Create(64);
  const std::map<std::string, std::vector<uint8_t>> files = {
      {"/f", Pattern(200 * 1024, 71)}};
  MigrateCold(files);
  auto internals = hl_->Internals();
  const std::vector<uint32_t> tsegs = hl_->FetchableSegments();
  ASSERT_EQ(tsegs.size(), 1u);
  Result<Volume*> medium = internals.footprint.GetVolume(
      static_cast<int>(internals.address_map.VolumeOfTseg(tsegs[0])));
  ASSERT_TRUE(medium.ok());
  FaultProfile rare;
  rare.read_corrupt_p = 1e-12;
  (*medium)->fault_channel()->set_profile(rare);
  const uint64_t verified = internals.io_server.stats().crc_verified;
  ExpectReadsBack(files);
  const uint32_t line = internals.cache.Lookup(tsegs[0]);
  ASSERT_NE(line, kNoSegment);
  EXPECT_TRUE(LineSharesVolumeChunks(line, tsegs[0]));
  EXPECT_EQ(BlocksSharedWithVolumes(0), 64u);
  EXPECT_EQ(internals.io_server.stats().crc_verified, verified + 1);
}

// 24-block (96 KB) segments are not whole chunks: the volume's read copies
// each extent into fresh chunks, the last one partly used, and the disk
// copies those in. Nothing is shared, and everything reads back exact.
TEST_P(SharedFetchTest, SegmentsOfPartChunksAreCopiedExact) {
  Create(24);
  std::map<std::string, std::vector<uint8_t>> files;
  for (int i = 0; i < 3; ++i) {
    files["/f" + std::to_string(i)] = Pattern(150 * 1024, 80 + i);
  }
  MigrateCold(files);
  const uint64_t fetched = hl_->Internals().io_server.stats().segments_fetched;
  ExpectReadsBack(files);
  EXPECT_GT(hl_->Internals().io_server.stats().segments_fetched, fetched);
  EXPECT_EQ(BlocksSharedWithVolumes(0), 0u);
}

// Disk segment 127 of 64 blocks spans [8144, 8208), across the end of the
// 8192-block first disk. With two cache lines it is one of them
// and segment 128, wholly on the second disk, the other. Installs into 127
// are copied, 128 shares, and everything reads back exact.
TEST_P(SharedFetchTest, LineAcrossTwoDisksIsCopiedExact) {
  Create(64, /*second_disk_blocks=*/96, /*cache_lines=*/2);
  ASSERT_EQ(hl_->fs().NumSegments(), 129u);
  std::map<std::string, std::vector<uint8_t>> files = {
      {"/f", Pattern(5 * 200 * 1024, 90)}};
  MigrateCold(files);
  auto internals = hl_->Internals();
  const uint64_t fetched = internals.io_server.stats().segments_fetched;
  ExpectReadsBack(files);
  EXPECT_GE(internals.io_server.stats().segments_fetched, fetched + 5);
  std::vector<uint32_t> lines;
  for (const SegmentCache::LineInfo& line : internals.cache.Lines()) {
    lines.push_back(line.disk_seg);
  }
  std::sort(lines.begin(), lines.end());
  ASSERT_EQ(lines, (std::vector<uint32_t>{127, 128}));
  // Disk 1 holds the straddler's last 16 blocks, copied, and all of
  // segment 128, shared.
  EXPECT_EQ(BlocksSharedWithVolumes(0), 0u);
  EXPECT_EQ(BlocksSharedWithVolumes(1), 64u);
  const std::set<const Chunk*> shared = VolumeChunks();
  EXPECT_EQ(shared.count(internals.disk(1).ChunkAt(0)), 0u);
  EXPECT_EQ(shared.count(
                internals.disk(1).ChunkAt(LineFirstBlock(128) - 8 * 1024)),
            1u);
}

// Sequential read-ahead holds the volume's chunks until the predicted miss,
// and that miss installs them by reference: after a sequential read of a
// three-segment file every cached line holds the very chunks its volume
// holds.
TEST_P(SharedFetchTest, ReadaheadInstallsTheVolumeChunks) {
  Create(64, /*second_disk_blocks=*/0, /*cache_lines=*/8, /*readahead=*/true);
  const std::map<std::string, std::vector<uint8_t>> files = {
      {"/f", Pattern(3 * 200 * 1024, 95)}};
  MigrateCold(files);
  auto internals = hl_->Internals();
  ASSERT_EQ(hl_->FetchableSegments().size(), 3u);
  const uint64_t consumed =
      hl_->Metrics().Value("service.readaheads_consumed");
  ExpectReadsBack(files);
  EXPECT_GE(hl_->Metrics().Value("service.readaheads_consumed"),
            consumed + 1);
  std::vector<SegmentCache::LineInfo> lines = internals.cache.Lines();
  EXPECT_EQ(lines.size(), 3u);
  for (const SegmentCache::LineInfo& line : lines) {
    EXPECT_TRUE(LineSharesVolumeChunks(line.disk_seg, line.tseg))
        << "tseg " << line.tseg;
  }
  EXPECT_EQ(BlocksSharedWithVolumes(0), 3 * 64u);
}

INSTANTIATE_TEST_SUITE_P(SyncAndAsync, SharedFetchTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "AsyncPipeline" : "SyncFetch";
                         });

}  // namespace
}  // namespace hl

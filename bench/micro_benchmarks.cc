// Micro-benchmarks (google-benchmark) for the hot paths of the
// implementation itself: checksums, on-media (de)serialization, partial-
// segment assembly, buffer-cache operations, bmap resolution, and directory
// lookups. These measure real CPU cost (not simulated time) and guard
// against performance regressions in the library.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <string_view>

#include "blockdev/sim_disk.h"
#include "lfs/buffer_cache.h"
#include "lfs/cleaner.h"
#include "lfs/format.h"
#include "lfs/lfs.h"
#include "lfs/segment_builder.h"
#include "tertiary/volume.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace hl {
namespace {

std::vector<uint8_t> RandomBuffer(size_t bytes) {
  std::vector<uint8_t> buf(bytes);
  Rng rng(bytes);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

// Checksum throughput in bytes/s over a block, a 256 KB segment and a 1 MB
// segment: the dispatched hl::Crc32, and each slower tier run directly
// (skipped where the CPU lacks it), so the gaps between kernels stay visible.
void Crc32Rate(benchmark::State& state,
               uint32_t (*crc)(std::span<const uint8_t>, uint32_t),
               size_t bytes) {
  const std::vector<uint8_t> buf = RandomBuffer(bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(buf, 0));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}

void TierRate(benchmark::State& state, std::string_view tier, size_t bytes) {
  for (const Crc32Kernel& k : Crc32Kernels()) {
    if (k.name != tier) {
      continue;
    }
    if (!k.supported()) {
      const std::string why = std::string("CPU lacks ") + k.missing_feature;
      state.SkipWithError(why.c_str());
      return;
    }
    Crc32Rate(state, k.crc, bytes);
    return;
  }
  state.SkipWithError("no such CRC tier");
}

void BM_Crc32_4K(benchmark::State& s) { Crc32Rate(s, Crc32, 4096); }
BENCHMARK(BM_Crc32_4K);
void BM_Crc32_256K(benchmark::State& s) { Crc32Rate(s, Crc32, 256 << 10); }
BENCHMARK(BM_Crc32_256K);
void BM_Crc32_1M(benchmark::State& s) { Crc32Rate(s, Crc32, 1 << 20); }
BENCHMARK(BM_Crc32_1M);
void BM_Crc32Pclmul128_256K(benchmark::State& s) {
  TierRate(s, "pclmul128", 256 << 10);
}
BENCHMARK(BM_Crc32Pclmul128_256K);
void BM_Crc32Slice8_4K(benchmark::State& s) { TierRate(s, "slice8", 4096); }
BENCHMARK(BM_Crc32Slice8_4K);
void BM_Crc32Slice8_256K(benchmark::State& s) {
  TierRate(s, "slice8", 256 << 10);
}
BENCHMARK(BM_Crc32Slice8_256K);
void BM_Crc32Slice8_1M(benchmark::State& s) {
  TierRate(s, "slice8", 1 << 20);
}
BENCHMARK(BM_Crc32Slice8_1M);

// The fused copy + checksum the write side runs (the segment builder's
// arena fill, a volume write) over one 256 KB segment image, beside a plain
// memcpy of the same bytes: the gap between the two is what checksumming
// costs once it rides the copy. No tertiary read copies any more.
void BM_Crc32Copy_256K(benchmark::State& state) {
  const std::vector<uint8_t> src = RandomBuffer(256 << 10);
  std::vector<uint8_t> dst(src.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32Copy(dst, src, 0));
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_Crc32Copy_256K);

void BM_Memcpy_256K(benchmark::State& state) {
  const std::vector<uint8_t> src = RandomBuffer(256 << 10);
  std::vector<uint8_t> dst(src.size());
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), src.size());
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_Memcpy_256K);

// What every tertiary read runs instead of a copy: one read by reference
// of a 256 KB segment (four chunk references, their stored CRCs joined by
// Crc32Combine), and one combine of a 64 KB chunk's CRC on its own.
void BM_VolumeRead_256K(benchmark::State& state) {
  constexpr size_t kSeg = 256 << 10;
  Volume volume("v", 4 * kSeg);
  (void)volume.Write(kSeg, RandomBuffer(kSeg));
  std::vector<ChunkRef> chunks;
  for (auto _ : state) {
    uint32_t crc = 0;
    benchmark::DoNotOptimize(volume.Read(kSeg, kSeg, &chunks, &crc));
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kSeg));
}
BENCHMARK(BM_VolumeRead_256K);

void BM_Crc32Combine(benchmark::State& state) {
  const std::vector<uint8_t> chunk = RandomBuffer(Chunk::kBytes);
  const uint32_t chunk_crc = Crc32(chunk);
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32Combine(crc, chunk_crc, chunk.size());
    benchmark::DoNotOptimize(crc);
  }
}
BENCHMARK(BM_Crc32Combine);

void BM_InodeSerialize(benchmark::State& state) {
  DInode inode;
  inode.ino = 42;
  inode.type = FileType::kRegular;
  inode.size = 123456;
  std::vector<uint8_t> buf(kInodeSize);
  for (auto _ : state) {
    inode.Serialize(buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_InodeSerialize);

void BM_InodeDeserialize(benchmark::State& state) {
  DInode inode;
  inode.ino = 42;
  std::vector<uint8_t> buf(kInodeSize);
  inode.Serialize(buf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DInode::Deserialize(buf));
  }
}
BENCHMARK(BM_InodeDeserialize);

void BM_SummarySerialize(benchmark::State& state) {
  SegSummary sum;
  for (int f = 0; f < 16; ++f) {
    FInfo fi;
    fi.ino = 100 + f;
    for (int b = 0; b < 12; ++b) {
      fi.lbns.push_back(b);
    }
    sum.finfos.push_back(std::move(fi));
  }
  sum.inode_daddrs = {1, 2, 3};
  std::vector<uint8_t> block(kBlockSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sum.SerializeToBlock(block).ok());
  }
}
BENCHMARK(BM_SummarySerialize);

void BM_SegmentBuilderFullSegment(benchmark::State& state) {
  std::vector<uint8_t> block(kBlockSize, 0x77);
  std::vector<uint8_t> arena;
  for (auto _ : state) {
    SegmentBuilder builder(&arena, 1000, 256, 7, 1, 1);
    for (uint32_t i = 0; i < 200; ++i) {
      benchmark::DoNotOptimize(builder.AddBlock(5, 1, i, block));
    }
    DInode inode;
    inode.ino = 5;
    benchmark::DoNotOptimize(builder.AddInode(inode));
    benchmark::DoNotOptimize(builder.Finish());
  }
  state.SetBytesProcessed(state.iterations() * 200 * kBlockSize);
}
BENCHMARK(BM_SegmentBuilderFullSegment);

void BM_BufferCacheHit(benchmark::State& state) {
  BufferCache cache(1024);
  std::vector<uint8_t> block(kBlockSize, 1);
  for (uint32_t i = 0; i < 1024; ++i) {
    cache.Insert(i, block);
  }
  std::vector<uint8_t> out(kBlockSize);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Lookup(static_cast<uint32_t>(rng.Below(1024)), out));
  }
}
BENCHMARK(BM_BufferCacheHit);

void BM_BufferCacheInsertEvict(benchmark::State& state) {
  BufferCache cache(256);
  std::vector<uint8_t> block(kBlockSize, 2);
  uint32_t next = 0;
  for (auto _ : state) {
    cache.Insert(next++, block);
  }
}
BENCHMARK(BM_BufferCacheInsertEvict);

// Fixture-style helpers that stand up a real file system once.
struct FsFixture {
  SimClock clock;
  std::unique_ptr<SimDisk> disk;
  std::unique_ptr<Lfs> fs;
  uint32_t big_ino = 0;

  FsFixture() {
    disk = std::make_unique<SimDisk>("d0", 32 * 1024, Rz57Profile(), &clock);
    fs = std::move(Lfs::Mkfs(disk.get(), &clock, LfsParams{})).value();
    big_ino = *fs->Create("/big");
    std::vector<uint8_t> mb(1 << 20, 0x3C);
    for (int i = 0; i < 8; ++i) {
      (void)fs->Write(big_ino, static_cast<uint64_t>(i) << 20, mb);
    }
    (void)fs->Sync();
    for (int i = 0; i < 64; ++i) {
      (void)fs->Create("/dir-entry-" + std::to_string(i));
    }
    (void)fs->Sync();
  }
};

void BM_BmapThroughIndirect(benchmark::State& state) {
  static FsFixture* fixture = new FsFixture();
  Rng rng(3);
  std::vector<BlockRef> refs(1);
  for (auto _ : state) {
    refs[0] = BlockRef{fixture->big_ino, 0,
                       static_cast<uint32_t>(rng.Below(2000)), 0};
    benchmark::DoNotOptimize(fixture->fs->BmapV(refs));
  }
}
BENCHMARK(BM_BmapThroughIndirect);

void BM_PathLookup(benchmark::State& state) {
  static FsFixture* fixture = new FsFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture->fs->LookupPath("/dir-entry-63"));
  }
}
BENCHMARK(BM_PathLookup);

void BM_CachedRead64K(benchmark::State& state) {
  static FsFixture* fixture = new FsFixture();
  std::vector<uint8_t> out(64 * 1024);
  uint64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture->fs->Read(fixture->big_ino, offset, out));
    offset = (offset + out.size()) % (8ull << 20);
  }
  state.SetBytesProcessed(state.iterations() * out.size());
}
BENCHMARK(BM_CachedRead64K);

// The whole write path for 1 MB: Lfs::Write of an overwrite into dirty
// buffers, then Sync through the segment builder to the disk image and the
// buffer cache. The previous copy is all dead, so when clean segments run
// low the cleaner reclaims them outside the timed region.
void BM_LfsWriteSync(benchmark::State& state) {
  SimClock clock;
  SimDisk disk("d0", 32 * 1024, Rz57Profile(), &clock);
  std::unique_ptr<Lfs> fs =
      std::move(Lfs::Mkfs(&disk, &clock, LfsParams{})).value();
  Cleaner cleaner(fs.get());
  uint32_t ino = *fs->Create("/big");
  const std::vector<uint8_t> mb = RandomBuffer(1 << 20);
  for (auto _ : state) {
    if (fs->CleanSegmentCount() < 8) {
      state.PauseTiming();
      benchmark::DoNotOptimize(cleaner.CleanUntil(fs->NumSegments() / 2));
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(fs->Write(ino, 0, mb));
    benchmark::DoNotOptimize(fs->Sync());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(mb.size()));
}
BENCHMARK(BM_LfsWriteSync);

// One cleaner pass over one 1 MB segment that is ~16% live: the rest of
// segment 0 after mkfs takes /keep (a sixth) and /drop, which spills into
// segment 1 and is then deleted. Each iteration formats a fresh file system
// outside the timed region, so segment 0 is always the only candidate; the
// timed Clean(1) parses it, relocates the live blocks and inodes, syncs and
// checkpoints.
void BM_CleanSegment(benchmark::State& state) {
  const std::vector<uint8_t> data = RandomBuffer(1 << 20);
  uint64_t live_blocks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SimClock clock;
    SimDisk disk("d0", 8 * 1024, Rz57Profile(), &clock);
    std::unique_ptr<Lfs> fs =
        std::move(Lfs::Mkfs(&disk, &clock, LfsParams{})).value();
    uint32_t keep = *fs->Create("/keep");
    uint32_t drop = *fs->Create("/drop");
    size_t left =
        size_t{fs->superblock().seg_size_blocks - fs->cur_offset()} *
        kBlockSize;
    size_t keep_bytes = left / 6 / kBlockSize * kBlockSize;
    benchmark::DoNotOptimize(fs->Write(
        keep, 0, std::span<const uint8_t>(data.data(), keep_bytes)));
    benchmark::DoNotOptimize(fs->Write(
        drop, 0,
        std::span<const uint8_t>(data.data(), left - keep_bytes +
                                                  16 * kBlockSize)));
    benchmark::DoNotOptimize(fs->Sync());
    benchmark::DoNotOptimize(fs->Unlink("/drop"));
    benchmark::DoNotOptimize(fs->Checkpoint());
    Cleaner cleaner(fs.get());
    state.ResumeTiming();
    benchmark::DoNotOptimize(cleaner.Clean(1));
    state.PauseTiming();
    live_blocks += cleaner.stats().blocks_live;
    state.ResumeTiming();
  }
  state.counters["live_blocks"] = benchmark::Counter(
      static_cast<double>(live_blocks), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CleanSegment);

}  // namespace
}  // namespace hl

BENCHMARK_MAIN();

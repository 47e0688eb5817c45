// End-to-end tests of the base LFS: namespace operations, file I/O, large
// files through indirect blocks, truncation, and segment-log behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "blockdev/sim_disk.h"
#include "lfs/buffer_cache.h"
#include "lfs/lfs.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace hl {
namespace {

constexpr uint32_t kTestDiskBlocks = 16 * 1024;  // 64 MB.

class LfsBasicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<SimDisk>("d0", kTestDiskBlocks, Rz57Profile(),
                                      &clock_);
    LfsParams params;
    params.seg_size_blocks = 64;  // 256 KB segments: more log turnover.
    auto fs = Lfs::Mkfs(disk_.get(), &clock_, params);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(*fs);
  }

  std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<uint8_t> v(n);
    for (auto& b : v) {
      b = static_cast<uint8_t>(rng.Next());
    }
    return v;
  }

  SimClock clock_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<Lfs> fs_;
};

TEST_F(LfsBasicTest, RootExistsAfterMkfs) {
  Result<StatInfo> st = fs_->StatPath("/");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->ino, kRootInode);
  EXPECT_EQ(st->type, FileType::kDirectory);
}

TEST_F(LfsBasicTest, CreateWriteReadSmallFile) {
  Result<uint32_t> ino = fs_->Create("/hello.txt");
  ASSERT_TRUE(ino.ok()) << ino.status().ToString();
  std::string text = "hello, tertiary world";
  ASSERT_TRUE(fs_->Write(*ino, 0,
                         std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t*>(text.data()),
                             text.size()))
                  .ok());
  std::vector<uint8_t> out(text.size());
  Result<size_t> n = fs_->Read(*ino, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, text.size());
  EXPECT_EQ(std::string(out.begin(), out.end()), text);
}

TEST_F(LfsBasicTest, CreateDuplicateFails) {
  ASSERT_TRUE(fs_->Create("/a").ok());
  EXPECT_EQ(fs_->Create("/a").status().code(), ErrorCode::kExists);
}

TEST_F(LfsBasicTest, LookupMissingFails) {
  EXPECT_EQ(fs_->LookupPath("/nope").status().code(), ErrorCode::kNotFound);
}

TEST_F(LfsBasicTest, NestedDirectories) {
  ASSERT_TRUE(fs_->Mkdir("/data").ok());
  ASSERT_TRUE(fs_->Mkdir("/data/satellite").ok());
  Result<uint32_t> ino = fs_->Create("/data/satellite/img001");
  ASSERT_TRUE(ino.ok());
  EXPECT_TRUE(fs_->LookupPath("/data/satellite/img001").ok());

  Result<std::vector<DirEntry>> entries = fs_->ReadDir(
      *fs_->LookupPath("/data/satellite"));
  ASSERT_TRUE(entries.ok());
  // ".", "..", "img001".
  EXPECT_EQ(entries->size(), 3u);
}

TEST_F(LfsBasicTest, UnlinkFreesAndForgets) {
  Result<uint32_t> ino = fs_->Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(8192, 1)).ok());
  ASSERT_TRUE(fs_->Unlink("/f").ok());
  EXPECT_FALSE(fs_->LookupPath("/f").ok());
  EXPECT_FALSE(fs_->Stat(*ino).ok());
  // The inode number is recycled eventually.
  Result<uint32_t> again = fs_->Create("/g");
  ASSERT_TRUE(again.ok());
}

TEST_F(LfsBasicTest, RmdirOnlyWhenEmpty) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  ASSERT_TRUE(fs_->Create("/d/x").ok());
  EXPECT_EQ(fs_->Rmdir("/d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(fs_->Unlink("/d/x").ok());
  EXPECT_TRUE(fs_->Rmdir("/d").ok());
  EXPECT_FALSE(fs_->LookupPath("/d").ok());
}

TEST_F(LfsBasicTest, UnlinkDirectoryRejected) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  EXPECT_EQ(fs_->Unlink("/d").code(), ErrorCode::kIsADirectory);
}

TEST_F(LfsBasicTest, RenameMovesFile) {
  Result<uint32_t> ino = fs_->Create("/old");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Mkdir("/sub").ok());
  ASSERT_TRUE(fs_->Rename("/old", "/sub/new").ok());
  EXPECT_FALSE(fs_->LookupPath("/old").ok());
  Result<uint32_t> moved = fs_->LookupPath("/sub/new");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, *ino);
}

TEST_F(LfsBasicTest, OverwriteInMiddleOfFile) {
  Result<uint32_t> ino = fs_->Create("/f");
  ASSERT_TRUE(ino.ok());
  auto data = Pattern(64 * 1024, 2);
  ASSERT_TRUE(fs_->Write(*ino, 0, data).ok());
  // Overwrite an unaligned 1000-byte span in the middle.
  auto patch = Pattern(1000, 3);
  ASSERT_TRUE(fs_->Write(*ino, 12345, patch).ok());
  std::memcpy(data.data() + 12345, patch.data(), patch.size());

  std::vector<uint8_t> out(data.size());
  Result<size_t> n = fs_->Read(*ino, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(out, data);
}

TEST_F(LfsBasicTest, ReadPastEofReturnsShort) {
  Result<uint32_t> ino = fs_->Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(100, 4)).ok());
  std::vector<uint8_t> out(1000);
  Result<size_t> n = fs_->Read(*ino, 50, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 50u);
  EXPECT_EQ(*fs_->Read(*ino, 100, out), 0u);
  EXPECT_EQ(*fs_->Read(*ino, 5000, out), 0u);
}

TEST_F(LfsBasicTest, SparseFileReadsZeros) {
  Result<uint32_t> ino = fs_->Create("/sparse");
  ASSERT_TRUE(ino.ok());
  auto tail = Pattern(4096, 5);
  ASSERT_TRUE(fs_->Write(*ino, 1 << 20, tail).ok());  // Hole below 1 MB.
  std::vector<uint8_t> out(4096, 0xFF);
  ASSERT_TRUE(fs_->Read(*ino, 4096, out).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
  ASSERT_TRUE(fs_->Read(*ino, 1 << 20, out).ok());
  EXPECT_EQ(out, tail);
}

TEST_F(LfsBasicTest, LargeFileThroughIndirectBlocks) {
  Result<uint32_t> ino = fs_->Create("/big");
  ASSERT_TRUE(ino.ok());
  // 6 MB spans direct + single-indirect + double-indirect ranges.
  const size_t kSize = 6u << 20;
  auto data = Pattern(kSize, 6);
  ASSERT_TRUE(fs_->Write(*ino, 0, data).ok()) << "write failed";
  ASSERT_TRUE(fs_->Sync().ok());
  fs_->FlushBufferCache();

  std::vector<uint8_t> out(kSize);
  Result<size_t> n = fs_->Read(*ino, 0, out);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, kSize);
  EXPECT_EQ(out, data);

  Result<StatInfo> st = fs_->Stat(*ino);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, kSize);
  // Blocks: 1536 data + 1 single indirect + 1 dind root + 1 dind child.
  EXPECT_GE(st->blocks, 1536u);
}

TEST_F(LfsBasicTest, TruncateShrinksAndFrees) {
  Result<uint32_t> ino = fs_->Create("/t");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(1 << 20, 7)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  uint32_t blocks_before = fs_->Stat(*ino)->blocks;
  ASSERT_TRUE(fs_->Truncate(*ino, 8192).ok());
  Result<StatInfo> st = fs_->Stat(*ino);
  EXPECT_EQ(st->size, 8192u);
  EXPECT_LT(st->blocks, blocks_before);
  // Data below the cut survives.
  std::vector<uint8_t> out(8192);
  ASSERT_TRUE(fs_->Read(*ino, 0, out).ok());
  std::vector<uint8_t> expected = Pattern(1 << 20, 7);
  expected.resize(8192);
  EXPECT_EQ(out, expected);
}

TEST_F(LfsBasicTest, TimesMaintained) {
  Result<uint32_t> ino = fs_->Create("/times");
  ASSERT_TRUE(ino.ok());
  uint64_t t0 = fs_->Stat(*ino)->mtime;
  clock_.Advance(5 * kUsPerSec);
  ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(10, 8)).ok());
  EXPECT_GT(fs_->Stat(*ino)->mtime, t0);
  clock_.Advance(5 * kUsPerSec);
  std::vector<uint8_t> out(10);
  ASSERT_TRUE(fs_->Read(*ino, 0, out).ok());
  EXPECT_GT(fs_->Stat(*ino)->atime, fs_->Stat(*ino)->mtime);
}

TEST_F(LfsBasicTest, SyncWritesSegmentsAndAdvancesLog) {
  Result<uint32_t> ino = fs_->Create("/f");
  ASSERT_TRUE(ino.ok());
  uint64_t psegs_before = fs_->stats().psegs_written;
  ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(1 << 20, 9)).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  EXPECT_GT(fs_->stats().psegs_written, psegs_before);
  EXPECT_EQ(fs_->DirtyBytes(), 0u);
}

TEST_F(LfsBasicTest, ManySmallFiles) {
  for (int i = 0; i < 200; ++i) {
    std::string path = "/file" + std::to_string(i);
    Result<uint32_t> ino = fs_->Create(path);
    ASSERT_TRUE(ino.ok()) << path << ": " << ino.status().ToString();
    ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(1024, 100 + i)).ok());
  }
  ASSERT_TRUE(fs_->Checkpoint().ok());
  for (int i = 0; i < 200; i += 17) {
    std::string path = "/file" + std::to_string(i);
    Result<uint32_t> ino = fs_->LookupPath(path);
    ASSERT_TRUE(ino.ok());
    std::vector<uint8_t> out(1024);
    ASSERT_TRUE(fs_->Read(*ino, 0, out).ok());
    EXPECT_EQ(out, Pattern(1024, 100 + i));
  }
}

TEST_F(LfsBasicTest, FileTooLargeRejected) {
  Result<uint32_t> ino = fs_->Create("/huge");
  ASSERT_TRUE(ino.ok());
  uint64_t beyond = (kMaxFileBlocks + 1) * kBlockSize;
  std::vector<uint8_t> byte(1, 0);
  EXPECT_EQ(fs_->Write(*ino, beyond, byte).code(),
            ErrorCode::kFileTooLarge);
}

TEST_F(LfsBasicTest, InodeMapGrowsOnDemand) {
  LfsParams params;
  params.seg_size_blocks = 64;
  params.initial_max_inodes = 8;  // Tiny: forces growth.
  SimDisk disk2("d2", kTestDiskBlocks, Rz57Profile(), &clock_);
  auto fs = Lfs::Mkfs(&disk2, &clock_, params);
  ASSERT_TRUE(fs.ok());
  for (int i = 0; i < 30; ++i) {
    Result<uint32_t> ino = (*fs)->Create("/f" + std::to_string(i));
    ASSERT_TRUE(ino.ok()) << i << ": " << ino.status().ToString();
  }
  ASSERT_TRUE((*fs)->Checkpoint().ok());
}

// Bmap reads indirect pointers where they lie. Each state of the single
// indirect block, the double-indirect root and one of its children: dirty
// (the dirty copy wins), cached (hits, no device read) and uncached
// (exactly one device read and one miss per block, which it then caches).
TEST_F(LfsBasicTest, BmapReadsIndirectPointersInPlace) {
  constexpr uint32_t kSingleLbn = kNumDirect + 1;
  constexpr uint32_t kChild = 1;
  constexpr uint32_t kEntry = 5;
  constexpr uint32_t kDoubleLbn =
      kNumDirect + kPtrsPerBlock + kChild * kPtrsPerBlock + kEntry;
  Result<uint32_t> ino = fs_->Create("/sparse");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, uint64_t{kSingleLbn} * kBlockSize,
                         Pattern(kBlockSize, 1))
                  .ok());
  ASSERT_TRUE(fs_->Write(*ino, uint64_t{kDoubleLbn} * kBlockSize,
                         Pattern(kBlockSize, 2))
                  .ok());
  ASSERT_TRUE(fs_->Sync().ok());
  Result<DInode> inode = fs_->GetInode(*ino);
  ASSERT_TRUE(inode.ok());
  BufferCache& cache = fs_->buffer_cache();
  auto bmap = [&](uint32_t lbn) {
    return fs_->BmapV({BlockRef{*ino, inode->version, lbn, 0}})[0];
  };
  auto block_at = [&](uint32_t daddr) {
    std::vector<uint8_t> block(kBlockSize);
    EXPECT_TRUE(disk_->ReadBlocks(daddr, 1, block).ok());
    return block;
  };
  struct Cost {
    uint64_t hits, misses, reads;
  };
  auto cost_of = [&](auto&& fn) {
    Cost before{cache.hits(), cache.misses(), disk_->reads()};
    fn();
    return Cost{cache.hits() - before.hits, cache.misses() - before.misses,
                disk_->reads() - before.reads};
  };
  auto expect_cost = [](Cost c, uint64_t hits, uint64_t misses,
                        uint64_t reads) {
    EXPECT_EQ(c.hits, hits);
    EXPECT_EQ(c.misses, misses);
    EXPECT_EQ(c.reads, reads);
  };

  // Cached: the flush left every indirect block in the buffer cache.
  uint32_t single = 0;
  uint32_t dbl = 0;
  uint32_t child = 0;
  expect_cost(cost_of([&] { single = bmap(kSingleLbn); }), 1, 0, 0);
  expect_cost(cost_of([&] { dbl = bmap(kDoubleLbn); }), 2, 0, 0);
  expect_cost(cost_of([&] { child = bmap(DindChildLbn(kChild)); }), 1, 0, 0);
  EXPECT_TRUE(block_at(single) == Pattern(kBlockSize, 1));
  EXPECT_TRUE(block_at(dbl) == Pattern(kBlockSize, 2));

  // Uncached: one read and one miss per indirect block, then cached.
  cache.Invalidate(inode->indirect);
  expect_cost(cost_of([&] { EXPECT_EQ(bmap(kSingleLbn), single); }), 0, 1,
              1);
  expect_cost(cost_of([&] { EXPECT_EQ(bmap(kSingleLbn), single); }), 1, 0,
              0);
  cache.Invalidate(child);
  expect_cost(cost_of([&] { EXPECT_EQ(bmap(kDoubleLbn), dbl); }), 1, 1, 1);
  cache.Invalidate(inode->dindirect);
  cache.Invalidate(child);
  expect_cost(cost_of([&] { EXPECT_EQ(bmap(kDoubleLbn), dbl); }), 0, 2, 2);
  expect_cost(cost_of([&] { EXPECT_EQ(bmap(kDoubleLbn), dbl); }), 2, 0, 0);

  // Dirty: a dirty copy (here a relocation queued through RewriteBlocks,
  // with one pointer changed) is read instead of the cache or the disk.
  auto requeue_with_ptr = [&](uint32_t meta_lbn, uint32_t daddr,
                              uint32_t index, uint32_t value) {
    std::vector<uint8_t> content = block_at(daddr);
    Writer(std::span<uint8_t>(content).subspan(index * 4, 4)).PutU32(value);
    std::vector<std::vector<uint8_t>> data;
    data.push_back(std::move(content));
    Result<size_t> queued = fs_->RewriteBlocks(
        {BlockRef{*ino, inode->version, meta_lbn, daddr}}, std::move(data));
    ASSERT_TRUE(queued.ok());
    ASSERT_EQ(*queued, 1u);
  };
  requeue_with_ptr(kLbnSingleIndirect, inode->indirect,
                   kSingleLbn - kNumDirect, 111);
  expect_cost(cost_of([&] { EXPECT_EQ(bmap(kSingleLbn), 111u); }), 0, 0, 0);
  requeue_with_ptr(DindChildLbn(kChild), child, kEntry, 222);
  expect_cost(cost_of([&] { EXPECT_EQ(bmap(kDoubleLbn), 222u); }), 1, 0, 0);
  requeue_with_ptr(kLbnDoubleIndirect, inode->dindirect, kChild, 333);
  expect_cost(cost_of([&] { EXPECT_EQ(bmap(DindChildLbn(kChild)), 333u); }),
              0, 0, 0);
  // The dirty child is found by its lbn whatever the root says.
  expect_cost(cost_of([&] { EXPECT_EQ(bmap(kDoubleLbn), 222u); }), 0, 0, 0);
}

// Find and Adopt are Lookup and Insert without the copy: the same seeded op
// sequence through both pairs gives the same hits, misses, residency (so
// the same LRU order and evictions) and arena bytes.
TEST(BufferCacheTest, FindAndAdoptMatchLookupAndInsert) {
  constexpr uint32_t kCapacity = 64;
  constexpr uint32_t kKeys = 160;
  BufferCache copying(kCapacity);
  BufferCache zero_copy(kCapacity);
  Rng rng(5);
  std::vector<uint8_t> out(kBlockSize);
  auto block_for = [](uint32_t key, uint64_t stamp) {
    std::vector<uint8_t> block(kBlockSize);
    Writer w(block);
    w.PutU32(key);
    w.PutU64(stamp);
    return block;
  };
  for (uint64_t op = 0; op < 20000; ++op) {
    uint32_t key = static_cast<uint32_t>(rng.Below(kKeys));
    switch (rng.Below(20)) {
      case 0:
        copying.Invalidate(key);
        zero_copy.Invalidate(key);
        break;
      case 1:
        if (rng.Below(50) == 0) {
          copying.Flush();
          zero_copy.Flush();
        }
        break;
      case 2:
      case 3:
      case 4:
      case 5:
      case 6:
      case 7: {
        std::vector<uint8_t> block = block_for(key, op);
        copying.Insert(key, block);
        zero_copy.Adopt(key, std::move(block));
        break;
      }
      default: {
        bool hit = copying.Lookup(key, out);
        std::span<const uint8_t> found = zero_copy.Find(key);
        ASSERT_EQ(hit, !found.empty()) << "op " << op;
        if (hit) {
          ASSERT_TRUE(std::equal(found.begin(), found.end(), out.begin(),
                                 out.end()))
              << "op " << op;
        }
      }
    }
    ASSERT_EQ(copying.hits(), zero_copy.hits()) << "op " << op;
    ASSERT_EQ(copying.misses(), zero_copy.misses()) << "op " << op;
    ASSERT_EQ(copying.size(), zero_copy.size()) << "op " << op;
    ASSERT_EQ(copying.arena_bytes(), zero_copy.arena_bytes()) << "op " << op;
  }
  EXPECT_GT(copying.hits(), 0u);
  EXPECT_GT(copying.misses(), 0u);
  for (uint32_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(copying.Lookup(key, out), !zero_copy.Find(key).empty()) << key;
  }
}

}  // namespace
}  // namespace hl

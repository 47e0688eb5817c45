// Property-based tests for the LFS: a randomized operation fuzzer checked
// against an in-memory reference model, swept across segment sizes and
// workload lengths with TEST_P, plus invariant sweeps for bmap and the
// address arithmetic.

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "blockdev/sim_disk.h"
#include "lfs/fsck.h"
#include "lfs/lfs.h"
#include "util/rng.h"

namespace hl {
namespace {

// Reference model: path -> file bytes.
using Model = std::map<std::string, std::vector<uint8_t>>;

class LfsFuzzTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, int, uint64_t>> {
 protected:
  uint32_t SegBlocks() const { return std::get<0>(GetParam()); }
  int NumOps() const { return std::get<1>(GetParam()); }
  uint64_t Seed() const { return std::get<2>(GetParam()); }
};

TEST_P(LfsFuzzTest, RandomOpsMatchReferenceModel) {
  SimClock clock;
  SimDisk disk("d0", 24 * 1024, Rz57Profile(), &clock);  // 96 MB.
  LfsParams params;
  params.seg_size_blocks = SegBlocks();
  auto fs_or = Lfs::Mkfs(&disk, &clock, params);
  ASSERT_TRUE(fs_or.ok());
  std::unique_ptr<Lfs> fs = std::move(*fs_or);

  Model model;
  Rng rng(Seed());
  int next_file = 0;

  auto random_existing = [&]() -> std::string {
    if (model.empty()) {
      return "";
    }
    auto it = model.begin();
    std::advance(it, rng.Below(model.size()));
    return it->first;
  };

  for (int op = 0; op < NumOps(); ++op) {
    switch (rng.Below(10)) {
      case 0: {  // Create.
        std::string path = "/fz" + std::to_string(next_file++);
        ASSERT_TRUE(fs->Create(path).ok());
        model[path] = {};
        break;
      }
      case 1:
      case 2:
      case 3: {  // Write a random extent (64 B .. 256 KB).
        std::string path = random_existing();
        if (path.empty()) {
          break;
        }
        uint64_t max_off = model[path].size() + 8192;
        uint64_t off = rng.Below(max_off + 1);
        size_t len = 64 + rng.Below(256 * 1024);
        std::vector<uint8_t> data(len);
        for (auto& b : data) {
          b = static_cast<uint8_t>(rng.Next());
        }
        Result<uint32_t> ino = fs->LookupPath(path);
        ASSERT_TRUE(ino.ok());
        ASSERT_TRUE(fs->Write(*ino, off, data).ok());
        auto& ref = model[path];
        if (ref.size() < off + len) {
          ref.resize(off + len, 0);
        }
        std::copy(data.begin(), data.end(), ref.begin() + off);
        break;
      }
      case 4:
      case 5: {  // Read-verify a random extent.
        std::string path = random_existing();
        if (path.empty()) {
          break;
        }
        const auto& ref = model[path];
        uint64_t off = rng.Below(ref.size() + 100);
        size_t len = 1 + rng.Below(128 * 1024);
        std::vector<uint8_t> out(len);
        Result<uint32_t> ino = fs->LookupPath(path);
        ASSERT_TRUE(ino.ok());
        Result<size_t> n = fs->Read(*ino, off, out);
        ASSERT_TRUE(n.ok());
        size_t expect =
            off >= ref.size()
                ? 0
                : std::min<size_t>(len, ref.size() - off);
        ASSERT_EQ(*n, expect) << path << " @" << off;
        for (size_t i = 0; i < expect; ++i) {
          ASSERT_EQ(out[i], ref[off + i])
              << path << " byte " << off + i << " differs (op " << op << ")";
        }
        break;
      }
      case 6: {  // Truncate.
        std::string path = random_existing();
        if (path.empty()) {
          break;
        }
        auto& ref = model[path];
        uint64_t new_size = rng.Below(ref.size() + 4096);
        Result<uint32_t> ino = fs->LookupPath(path);
        ASSERT_TRUE(ino.ok());
        ASSERT_TRUE(fs->Truncate(*ino, new_size).ok());
        size_t old = ref.size();
        ref.resize(new_size, 0);
        if (new_size > old) {
          std::fill(ref.begin() + old, ref.end(), 0);
        }
        break;
      }
      case 7: {  // Unlink.
        std::string path = random_existing();
        if (path.empty()) {
          break;
        }
        ASSERT_TRUE(fs->Unlink(path).ok());
        model.erase(path);
        break;
      }
      case 8: {  // Sync or checkpoint.
        if (rng.Chance(0.5)) {
          ASSERT_TRUE(fs->Sync().ok());
        } else {
          ASSERT_TRUE(fs->Checkpoint().ok());
        }
        break;
      }
      case 9: {  // Buffer-cache flush (forces device reads).
        fs->FlushBufferCache();
        break;
      }
    }
  }

  // Final verification of every file, cold.
  ASSERT_TRUE(fs->Checkpoint().ok());
  fs->FlushBufferCache();
  for (const auto& [path, ref] : model) {
    Result<uint32_t> ino = fs->LookupPath(path);
    ASSERT_TRUE(ino.ok()) << path;
    std::vector<uint8_t> out(ref.size());
    Result<size_t> n = fs->Read(*ino, 0, out);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, ref.size());
    ASSERT_EQ(out, ref) << path << " differs after final verification";
  }

  // And the image is structurally sound.
  FsckReport report = CheckFs(*fs);
  EXPECT_TRUE(report.clean()) << (report.errors.empty() ? ""
                                                        : report.errors[0]);

  // The whole state survives a crash + remount.
  fs.reset();
  auto remounted = Lfs::Mount(&disk, &clock, params);
  ASSERT_TRUE(remounted.ok());
  for (const auto& [path, ref] : model) {
    Result<uint32_t> ino = (*remounted)->LookupPath(path);
    ASSERT_TRUE(ino.ok()) << path << " lost at remount";
    std::vector<uint8_t> out(ref.size());
    Result<size_t> n = (*remounted)->Read(*ino, 0, out);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(out, ref) << path << " differs after remount";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SegmentSizeSweep, LfsFuzzTest,
    ::testing::Values(
        std::make_tuple(32u, 150, 0xF00D01ull),   // 128 KB segments.
        std::make_tuple(64u, 150, 0xF00D02ull),   // 256 KB segments.
        std::make_tuple(128u, 150, 0xF00D03ull),  // 512 KB segments.
        std::make_tuple(256u, 120, 0xF00D04ull),  // 1 MB (paper default).
        std::make_tuple(64u, 300, 0xF00D05ull),   // Longer run.
        std::make_tuple(64u, 300, 0xF00D06ull),   // Different seed.
        std::make_tuple(128u, 250, 0xF00D07ull)));

// --- Bmap sweep: every lbn range (direct / single / double indirect). --------

class BmapRangeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BmapRangeTest, WriteReadAtBoundary) {
  SimClock clock;
  SimDisk disk("d0", 24 * 1024, Rz57Profile(), &clock);
  LfsParams params;
  params.seg_size_blocks = 64;
  auto fs = Lfs::Mkfs(&disk, &clock, params);
  ASSERT_TRUE(fs.ok());
  uint32_t lbn = GetParam();
  Result<uint32_t> ino = (*fs)->Create("/boundary");
  ASSERT_TRUE(ino.ok());

  // One block exactly at the boundary lbn, leaving holes below.
  Rng rng(lbn);
  std::vector<uint8_t> block(kBlockSize);
  for (auto& b : block) {
    b = static_cast<uint8_t>(rng.Next());
  }
  uint64_t off = static_cast<uint64_t>(lbn) * kBlockSize;
  ASSERT_TRUE((*fs)->Write(*ino, off, block).ok());
  ASSERT_TRUE((*fs)->Sync().ok());
  (*fs)->FlushBufferCache();

  std::vector<uint8_t> out(kBlockSize);
  Result<size_t> n = (*fs)->Read(*ino, off, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, block);
  // The hole below reads zero.
  if (lbn > 0) {
    std::vector<uint8_t> hole(kBlockSize, 0xFF);
    ASSERT_TRUE((*fs)->Read(*ino, off - kBlockSize, hole).ok());
    for (uint8_t b : hole) {
      EXPECT_EQ(b, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LbnBoundaries, BmapRangeTest,
    ::testing::Values(0u, 11u,                     // Direct range edges.
                      12u,                         // First single-indirect.
                      12u + 1023u,                 // Last single-indirect.
                      12u + 1024u,                 // First double-indirect.
                      12u + 1024u + 1023u,         // End of first dind child.
                      12u + 1024u + 1024u,         // Second dind child.
                      12u + 1024u + 5u * 1024u));  // Deeper dind child.

// --- Segment-size invariants across the format. ------------------------------

class SegmentGeometryTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SegmentGeometryTest, MkfsMountRoundTrip) {
  SimClock clock;
  SimDisk disk("d0", 16 * 1024, Rz57Profile(), &clock);
  LfsParams params;
  params.seg_size_blocks = GetParam();
  auto fs = Lfs::Mkfs(&disk, &clock, params);
  ASSERT_TRUE(fs.ok());
  uint32_t nsegs = (*fs)->NumSegments();
  EXPECT_EQ(nsegs,
            (16 * 1024 - kDefaultReservedBlocks) / GetParam());
  Result<uint32_t> ino = (*fs)->Create("/x");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE((*fs)->Write(*ino, 0, std::vector<uint8_t>(100, 7)).ok());
  ASSERT_TRUE((*fs)->Checkpoint().ok());
  fs->reset();
  auto mounted = Lfs::Mount(&disk, &clock, LfsParams{});
  ASSERT_TRUE(mounted.ok());
  EXPECT_EQ((*mounted)->NumSegments(), nsegs);
  EXPECT_TRUE((*mounted)->LookupPath("/x").ok());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SegmentGeometryTest,
                         ::testing::Values(16u, 32u, 64u, 128u, 256u, 512u));

}  // namespace
}  // namespace hl

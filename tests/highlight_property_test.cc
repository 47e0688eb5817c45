// Property tests for the full HighLight stack: randomized workloads of
// writes, migrations (whole-file and block-range), cache ejections, tertiary
// cleaning and remounts, checked against a reference model, swept over cache
// sizes and replacement policies.

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "highlight/highlight.h"
#include "lfs/fsck.h"
#include "util/rng.h"

namespace hl {
namespace {

using Model = std::map<std::string, std::vector<uint8_t>>;

class HighLightFuzzTest
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, CacheReplacement, uint64_t>> {
 protected:
  uint32_t CacheSegments() const { return std::get<0>(GetParam()); }
  CacheReplacement Replacement() const { return std::get<1>(GetParam()); }
  uint64_t Seed() const { return std::get<2>(GetParam()); }
};

TEST_P(HighLightFuzzTest, RandomHierarchyOpsMatchModel) {
  SimClock clock;
  HighLightConfig config;
  config.disks.push_back({Rz57Profile(), 16 * 1024});  // 64 MB.
  JukeboxProfile j = Hp6300MoProfile();
  j.num_slots = 6;
  j.volume_capacity_bytes = 24ull * 64 * kBlockSize;
  config.jukeboxes.push_back({j, false, 24});
  config.lfs.seg_size_blocks = 64;
  config.lfs.cache_max_segments = CacheSegments();
  config.cache_replacement = Replacement();
  auto hl_or = HighLightFs::Create(config, &clock);
  ASSERT_TRUE(hl_or.ok()) << hl_or.status().ToString();
  std::unique_ptr<HighLightFs> hl = std::move(*hl_or);

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
  auto verify = [&](const std::string& path) {
    const auto& ref = model[path];
    Result<uint32_t> ino = hl->fs().LookupPath(path);
    ASSERT_TRUE(ino.ok()) << path;
    std::vector<uint8_t> out(ref.size());
    Result<size_t> n = hl->fs().Read(*ino, 0, out);
    ASSERT_TRUE(n.ok()) << path << ": " << n.status().ToString();
    ASSERT_EQ(*n, ref.size());
    ASSERT_EQ(out, ref) << path << " contents diverged";
  };

  const int kOps = 120;
  for (int op = 0; op < kOps; ++op) {
    switch (rng.Below(12)) {
      case 0:
      case 1: {  // Create + write.
        std::string path = "/h" + std::to_string(next_file++);
        Result<uint32_t> ino = hl->fs().Create(path);
        ASSERT_TRUE(ino.ok());
        size_t len = 4096 + rng.Below(512 * 1024);
        std::vector<uint8_t> data(len);
        for (auto& b : data) {
          b = static_cast<uint8_t>(rng.Next());
        }
        ASSERT_TRUE(hl->fs().Write(*ino, 0, data).ok());
        model[path] = std::move(data);
        break;
      }
      case 2:
      case 3: {  // Overwrite an extent (possibly of a migrated file).
        std::string path = random_existing();
        if (path.empty()) {
          break;
        }
        auto& ref = model[path];
        uint64_t off = rng.Below(ref.size());
        size_t len = 1 + rng.Below(32 * 1024);
        std::vector<uint8_t> data(len);
        for (auto& b : data) {
          b = static_cast<uint8_t>(rng.Next());
        }
        Result<uint32_t> ino = hl->fs().LookupPath(path);
        ASSERT_TRUE(ino.ok());
        ASSERT_TRUE(hl->fs().Write(*ino, off, data).ok());
        if (ref.size() < off + len) {
          ref.resize(off + len, 0);
        }
        std::copy(data.begin(), data.end(), ref.begin() + off);
        break;
      }
      case 4:
      case 5: {  // Read-verify a whole file.
        std::string path = random_existing();
        if (!path.empty()) {
          verify(path);
        }
        break;
      }
      case 6: {  // Whole-file migration.
        std::string path = random_existing();
        if (path.empty()) {
          break;
        }
        Result<MigrationReport> r = hl->Migrate(MigrationRequest{.path = path});
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        break;
      }
      case 7: {  // Block-range migration of a cold prefix.
        std::string path = random_existing();
        if (path.empty()) {
          break;
        }
        Result<uint32_t> ino = hl->fs().LookupPath(path);
        ASSERT_TRUE(ino.ok());
        uint32_t nblocks = static_cast<uint32_t>(
            (model[path].size() + kBlockSize - 1) / kBlockSize);
        if (nblocks < 2) {
          break;
        }
        std::vector<uint32_t> lbns;
        for (uint32_t l = 0; l < nblocks / 2; ++l) {
          lbns.push_back(l);
        }
        MigratorOptions opts;
        ASSERT_TRUE(
            hl->Internals().migrator.MigrateBlocks({{*ino, lbns}}, opts).ok());
        break;
      }
      case 8: {  // Eject clean cache lines + flush buffer cache.
        ASSERT_TRUE(hl->DropCleanCacheLines().ok());
        break;
      }
      case 9: {  // Unlink.
        std::string path = random_existing();
        if (path.empty()) {
          break;
        }
        ASSERT_TRUE(hl->fs().Unlink(path).ok());
        model.erase(path);
        break;
      }
      case 10: {  // Checkpoint + remount (crash consistency).
        ASSERT_TRUE(hl->fs().Checkpoint().ok());
        ASSERT_TRUE(hl->Remount().ok());
        break;
      }
      case 11: {  // Clock jump (ages files for policies).
        clock.Advance(3600 * kUsPerSec);
        break;
      }
    }
  }

  // Full final verification: before the remount, after it through whatever
  // cache lines it kept, and cold after a cache drop.
  for (const auto& [path, ref] : model) {
    verify(path);
  }
  ASSERT_TRUE(hl->fs().Checkpoint().ok());
  ASSERT_TRUE(hl->Remount().ok());
  for (const auto& [path, ref] : model) {
    verify(path);
  }
  ASSERT_TRUE(hl->DropCleanCacheLines().ok());
  for (const auto& [path, ref] : model) {
    verify(path);
  }
  FsckReport report = CheckFs(hl->fs());
  EXPECT_TRUE(report.clean()) << (report.errors.empty() ? ""
                                                        : report.errors[0]);

  // Cache invariants: directory entries are unique and mirror the ifile.
  std::set<uint32_t> tsegs;
  for (const SegmentCache::LineInfo& line : hl->Internals().cache.Lines()) {
    EXPECT_TRUE(tsegs.insert(line.tseg).second) << "duplicate cache tag";
    const SegUsage& u = hl->fs().GetSegUsage(line.disk_seg);
    EXPECT_TRUE(u.flags & kSegCached);
    EXPECT_EQ(u.cache_tseg, line.tseg);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CacheConfigSweep, HighLightFuzzTest,
    ::testing::Combine(
        ::testing::Values(6u, 12u, 24u),
        ::testing::Values(CacheReplacement::kLru, CacheReplacement::kRandom,
                          CacheReplacement::kLeastWorthyFirstTouch),
        ::testing::Values(0xCAFE01ull)));

INSTANTIATE_TEST_SUITE_P(
    SeedSweep, HighLightFuzzTest,
    ::testing::Values(
        std::make_tuple(10u, CacheReplacement::kLru, 0xCAFE02ull),
        std::make_tuple(10u, CacheReplacement::kLru, 0xCAFE03ull),
        std::make_tuple(10u, CacheReplacement::kLru, 0xCAFE04ull)));

}  // namespace
}  // namespace hl

// Checkpoint- and ifile-focused tests: region alternation, ifile growth,
// pessimistic segment reservation, and roll-forward serial-chain edges.

#include <gtest/gtest.h>

#include "blockdev/sim_disk.h"
#include "lfs/lfs.h"
#include "util/fault_injector.h"
#include "util/rng.h"

namespace hl {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return v;
}

class LfsCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<SimDisk>("d0", 16 * 1024, Rz57Profile(),
                                      &clock_);
    params_.seg_size_blocks = 64;
    auto fs = Lfs::Mkfs(disk_.get(), &clock_, params_);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(*fs);
  }

  Result<CheckpointRegion> ReadRegion(uint32_t addr) {
    std::vector<uint8_t> block(kBlockSize);
    RETURN_IF_ERROR(disk_->ReadBlocks(addr, 1, block));
    return CheckpointRegion::Deserialize(block);
  }

  SimClock clock_;
  FaultInjector faults_{&clock_};
  LfsParams params_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<Lfs> fs_;
};

TEST_F(LfsCheckpointTest, RegionsAlternateWithIncreasingSerials) {
  // Mkfs wrote checkpoint #1. Two more checkpoints must land in different
  // slots with strictly increasing serials.
  ASSERT_TRUE(fs_->Checkpoint().ok());
  Result<CheckpointRegion> a1 = ReadRegion(kCheckpointBlockA);
  Result<CheckpointRegion> b1 = ReadRegion(kCheckpointBlockB);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(b1.ok());
  EXPECT_NE(a1->serial, b1->serial);

  ASSERT_TRUE(fs_->Checkpoint().ok());
  Result<CheckpointRegion> a2 = ReadRegion(kCheckpointBlockA);
  Result<CheckpointRegion> b2 = ReadRegion(kCheckpointBlockB);
  ASSERT_TRUE(a2.ok());
  ASSERT_TRUE(b2.ok());
  // Exactly one slot changed, and the global max serial advanced.
  uint64_t max1 = std::max(a1->serial, b1->serial);
  uint64_t max2 = std::max(a2->serial, b2->serial);
  EXPECT_EQ(max2, max1 + 1);
}

TEST_F(LfsCheckpointTest, MountUsesNewerRegion) {
  Result<uint32_t> ino = fs_->Create("/marker-old");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Checkpoint().ok());
  ASSERT_TRUE(fs_->Create("/marker-new").ok());
  ASSERT_TRUE(fs_->Checkpoint().ok());
  fs_.reset();
  auto fs = Lfs::Mount(disk_.get(), &clock_, params_);
  ASSERT_TRUE(fs.ok());
  // Both markers visible: the newer checkpoint was chosen.
  EXPECT_TRUE((*fs)->LookupPath("/marker-old").ok());
  EXPECT_TRUE((*fs)->LookupPath("/marker-new").ok());
}

TEST_F(LfsCheckpointTest, IfileGrowsWithInodePopulation) {
  LfsParams params;
  params.seg_size_blocks = 64;
  params.initial_max_inodes = 16;
  SimDisk disk2("d2", 16 * 1024, Rz57Profile(), &clock_);
  auto fs = Lfs::Mkfs(&disk2, &clock_, params);
  ASSERT_TRUE(fs.ok());
  uint64_t ifile_size_before = (*fs)->Stat(kIfileInode)->size;
  // Exceed the initial inode-map capacity several times over.
  for (int i = 0; i < 800; ++i) {
    Result<uint32_t> ino = (*fs)->Create("/n" + std::to_string(i));
    ASSERT_TRUE(ino.ok()) << i;
  }
  ASSERT_TRUE((*fs)->Checkpoint().ok());
  EXPECT_GT((*fs)->Stat(kIfileInode)->size, ifile_size_before);
  EXPECT_GE((*fs)->superblock().max_inodes, 800u);

  // Everything survives a remount with the grown map.
  fs->reset();
  auto remounted = Lfs::Mount(&disk2, &clock_, LfsParams{});
  ASSERT_TRUE(remounted.ok());
  for (int i = 0; i < 800; i += 97) {
    EXPECT_TRUE((*remounted)->LookupPath("/n" + std::to_string(i)).ok());
  }
}

TEST_F(LfsCheckpointTest, CrashDuringHeavyWritesNeverLosesCheckpointedData) {
  // Alternate big writes and checkpoints; crash after every phase and make
  // sure the checkpointed prefix always survives intact.
  std::map<std::string, uint64_t> durable;  // path -> seed.
  for (int round = 0; round < 4; ++round) {
    std::string path = "/r" + std::to_string(round);
    Result<uint32_t> ino = fs_->Create(path);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(3 << 20, round)).ok());
    ASSERT_TRUE(fs_->Checkpoint().ok());
    durable[path] = round;
    // Post-checkpoint writes that will be LOST (no sync).
    Result<uint32_t> volatile_ino = fs_->Create(path + "-volatile");
    ASSERT_TRUE(volatile_ino.ok());
    // Keep it small so no auto-flush pushes it out.
    ASSERT_TRUE(fs_->Write(*volatile_ino, 0, Pattern(10000, 99)).ok());

    fs_.reset();
    auto fs = Lfs::Mount(disk_.get(), &clock_, params_);
    ASSERT_TRUE(fs.ok()) << "round " << round;
    fs_ = std::move(*fs);
    for (const auto& [p, seed] : durable) {
      Result<uint32_t> found = fs_->LookupPath(p);
      ASSERT_TRUE(found.ok()) << p;
      std::vector<uint8_t> out(3 << 20);
      ASSERT_TRUE(fs_->Read(*found, 0, out).ok());
      ASSERT_EQ(out, Pattern(3 << 20, seed)) << p;
    }
  }
}

TEST_F(LfsCheckpointTest, CheckpointAfterFailedFlushStillConsistent) {
  Result<uint32_t> ino = fs_->Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(100 * 1024, 1)).ok());
  disk_->AttachFaults(&faults_);
  disk_->fault_channel()->FailNextOps(1);
  EXPECT_FALSE(fs_->Sync().ok());  // Injected failure.
  // The next checkpoint succeeds and the data are durable.
  ASSERT_TRUE(fs_->Checkpoint().ok());
  fs_.reset();
  auto fs = Lfs::Mount(disk_.get(), &clock_, params_);
  ASSERT_TRUE(fs.ok());
  Result<uint32_t> found = (*fs)->LookupPath("/f");
  ASSERT_TRUE(found.ok());
  std::vector<uint8_t> out(100 * 1024);
  ASSERT_TRUE((*fs)->Read(*found, 0, out).ok());
  EXPECT_EQ(out, Pattern(100 * 1024, 1));
}

}  // namespace
}  // namespace hl

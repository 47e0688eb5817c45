// Segment-writer faults: an error anywhere inside a flush must hand every
// block the unwritten partial segment had taken back to the dirty map, so no
// file is left pointing at addresses that never reached the disk.

#include <gtest/gtest.h>

#include <algorithm>

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

// Passes every call through to `inner`, except that the n-th WriteBlocks
// after FailWrite(n) fails with kIoError and writes nothing.
class FailNthWriteDevice : public BlockDevice {
 public:
  explicit FailNthWriteDevice(BlockDevice* inner) : inner_(inner) {}

  uint32_t NumBlocks() const override { return inner_->NumBlocks(); }
  const std::string& Name() const override { return inner_->Name(); }
  Status ReadBlocks(uint32_t block, uint32_t count,
                    std::span<uint8_t> out) override {
    return inner_->ReadBlocks(block, count, out);
  }
  Status WriteBlocks(uint32_t block, uint32_t count,
                     std::span<const uint8_t> data) override {
    if (countdown_ > 0 && --countdown_ == 0) {
      return IoError("injected write failure");
    }
    return inner_->WriteBlocks(block, count, data);
  }

  void FailWrite(int nth) { countdown_ = nth; }

 private:
  BlockDevice* inner_;
  int countdown_ = 0;
};

class FlushFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<SimDisk>("d0", 8 * 1024, Rz57Profile(), &clock_);
    dev_ = std::make_unique<FailNthWriteDevice>(disk_.get());
    params_.seg_size_blocks = 256;
    // Flush only when the test says so.
    params_.auto_flush_bytes = 64ull << 20;
    auto fs = Lfs::Mkfs(dev_.get(), &clock_, params_);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(*fs);
  }

  std::vector<uint8_t> ReadAll(uint32_t ino, size_t size) {
    std::vector<uint8_t> out(size);
    Result<size_t> n = fs_->Read(ino, 0, out);
    EXPECT_TRUE(n.ok() && *n == size) << n.status().ToString();
    return out;
  }

  SimClock clock_;
  FaultInjector faults_{&clock_};
  LfsParams params_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<FailNthWriteDevice> dev_;
  std::unique_ptr<Lfs> fs_;
};

TEST_F(FlushFaultTest, ErrorMidFlushRequeuesFilesAlreadyTaken) {
  // /a has the lower ino, so the flush takes its blocks and inode into the
  // partial before /b's SetBmap fails reading /b's evicted indirect block.
  Result<uint32_t> a = fs_->Create("/a");
  Result<uint32_t> b = fs_->Create("/b");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_LT(*a, *b);
  std::vector<uint8_t> b_data = Pattern(20 * kBlockSize, 2);
  ASSERT_TRUE(fs_->Write(*b, 0, b_data).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  Result<DInode> b_inode = fs_->GetInode(*b);
  ASSERT_TRUE(b_inode.ok());
  ASSERT_NE(b_inode->indirect, kNoBlock);
  fs_->buffer_cache().Invalidate(b_inode->indirect);

  std::vector<uint8_t> a_data = Pattern(4 * kBlockSize, 1);
  ASSERT_TRUE(fs_->Write(*a, 0, a_data).ok());
  std::vector<uint8_t> lbn15 = Pattern(kBlockSize, 3);
  ASSERT_TRUE(fs_->Write(*b, 15 * kBlockSize, lbn15).ok());
  std::copy(lbn15.begin(), lbn15.end(), b_data.begin() + 15 * kBlockSize);
  const uint64_t dirty = fs_->DirtyBytes();
  ASSERT_EQ(dirty, 5u * kBlockSize);

  disk_->AttachFaults(&faults_);
  disk_->fault_channel()->FailNextOps(1);
  Status failed = fs_->Sync();
  EXPECT_EQ(failed.code(), ErrorCode::kIoError) << failed.ToString();
  // Nothing was written, so every block the flush took is dirty again.
  EXPECT_EQ(fs_->DirtyBytes(), dirty);
  EXPECT_TRUE(ReadAll(*a, a_data.size()) == a_data) << "a";
  EXPECT_TRUE(ReadAll(*b, b_data.size()) == b_data) << "b";

  ASSERT_TRUE(fs_->Sync().ok());
  EXPECT_EQ(fs_->DirtyBytes(), 0u);
  fs_->FlushBufferCache();
  EXPECT_TRUE(ReadAll(*a, a_data.size()) == a_data) << "a";
  EXPECT_TRUE(ReadAll(*b, b_data.size()) == b_data) << "b";
}

TEST_F(FlushFaultTest, FailedPartialWriteRequeuesItsBuffers) {
  // 600 blocks from the middle of segment 0 span three segments. The second
  // partial's write fails while the file's data is still being appended:
  // the first partial landed with blocks behind the single indirect, whose
  // pointers live only in the never-written (dirty) indirect block.
  Result<uint32_t> f = fs_->Create("/f");
  ASSERT_TRUE(f.ok());
  std::vector<uint8_t> data = Pattern(600 * kBlockSize, 4);
  ASSERT_TRUE(fs_->Write(*f, 0, data).ok());
  const uint64_t dirty_before = fs_->DirtyBytes();
  const uint64_t written_before = fs_->stats().blocks_written;
  const uint32_t seg_before = fs_->cur_seg();

  dev_->FailWrite(2);
  Status failed = fs_->Sync();
  EXPECT_EQ(failed.code(), ErrorCode::kIoError) << failed.ToString();
  ASSERT_NE(fs_->cur_seg(), seg_before);  // The failed partial's segment.
  const uint64_t written = fs_->stats().blocks_written - written_before;
  ASSERT_GT(written, 0u);
  // Every block the first partial did not carry is dirty again, plus the
  // indirect block the flush created.
  EXPECT_EQ(fs_->DirtyBytes(),
            dirty_before + kBlockSize - written * kBlockSize);
  // The failed partial's addresses were never written, so none of them may
  // be in the buffer cache.
  const uint32_t base =
      fs_->superblock().SegFirstBlock(fs_->cur_seg()) + fs_->cur_offset();
  const uint32_t end = fs_->superblock().SegFirstBlock(fs_->cur_seg()) +
                       fs_->superblock().seg_size_blocks;
  for (uint32_t daddr = base; daddr < end; ++daddr) {
    EXPECT_TRUE(fs_->buffer_cache().Find(daddr).empty()) << daddr;
  }
  EXPECT_TRUE(ReadAll(*f, data.size()) == data) << "f";

  ASSERT_TRUE(fs_->Sync().ok());
  EXPECT_EQ(fs_->DirtyBytes(), 0u);
  fs_->FlushBufferCache();
  EXPECT_TRUE(ReadAll(*f, data.size()) == data) << "f";
  // And the log is whole: a remount rolls it forward to the same bytes.
  ASSERT_TRUE(fs_->Checkpoint().ok());
  fs_.reset();
  auto fs = Lfs::Mount(dev_.get(), &clock_, params_);
  ASSERT_TRUE(fs.ok());
  fs_ = std::move(*fs);
  EXPECT_TRUE(ReadAll(*f, data.size()) == data) << "f";
}

}  // namespace
}  // namespace hl

// Tests for SimDisk and the concatenation pseudo-driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "blockdev/concat_driver.h"
#include "blockdev/sim_disk.h"
#include "util/fault_injector.h"

namespace hl {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return v;
}

class SimDiskTest : public ::testing::Test {
 protected:
  SimClock clock_;
  FaultInjector faults_{&clock_};
  SimDisk disk_{"d0", 1024, Rz57Profile(), &clock_};
};

TEST_F(SimDiskTest, RoundTripsData) {
  auto data = Pattern(kBlockSize * 3, 1);
  ASSERT_TRUE(disk_.WriteBlocks(10, 3, data).ok());
  std::vector<uint8_t> out(kBlockSize * 3);
  ASSERT_TRUE(disk_.ReadBlocks(10, 3, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(SimDiskTest, UnwrittenBlocksReadZero) {
  std::vector<uint8_t> out(kBlockSize, 0xFF);
  ASSERT_TRUE(disk_.ReadBlocks(5, 1, out).ok());
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 0);
}

TEST(SimDiskImageTest, NeverWrittenBlocksReadZeroOnRecycledMemory) {
  // A small image comes from the heap and may land on memory an earlier
  // disk dirtied; a large one comes from fresh pages. Both read zeros.
  SimClock clock;
  for (uint32_t blocks : {16u, 8192u}) {
    auto data = Pattern(kBlockSize * blocks, 9);
    {
      SimDisk old("old", blocks, Rz57Profile(), &clock);
      ASSERT_TRUE(old.WriteBlocks(0, blocks, data).ok());
    }
    SimDisk fresh("fresh", blocks, Rz57Profile(), &clock);
    std::vector<uint8_t> out(kBlockSize * blocks, 0xFF);
    ASSERT_TRUE(fresh.ReadBlocks(0, blocks, out).ok());
    EXPECT_EQ(std::count(out.begin(), out.end(), 0),
              static_cast<std::ptrdiff_t>(out.size()))
        << blocks << " blocks";
  }
}

TEST_F(SimDiskTest, RejectsOutOfRange) {
  std::vector<uint8_t> buf(kBlockSize);
  EXPECT_EQ(disk_.ReadBlocks(1024, 1, buf).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk_.ReadBlocks(1023, 2, buf).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk_.WriteBlocks(0, 0, {}).code(), ErrorCode::kInvalidArgument);
}

TEST_F(SimDiskTest, RejectsSizeMismatch) {
  std::vector<uint8_t> buf(kBlockSize);
  EXPECT_FALSE(disk_.ReadBlocks(0, 2, buf).ok());
}

TEST_F(SimDiskTest, AdvancesClockByTransferTime) {
  auto data = Pattern(kBlockSize * 256, 2);  // 1 MB.
  SimTime before = clock_.Now();
  ASSERT_TRUE(disk_.WriteBlocks(0, 256, data).ok());
  SimTime elapsed = clock_.Now() - before;
  // 1 MB at 993 KB/s ~= 1.03 s, plus small overhead.
  EXPECT_GT(elapsed, 1'000'000u);
  EXPECT_LT(elapsed, 1'200'000u);
}

TEST_F(SimDiskTest, SequentialFasterThanScattered) {
  auto block = Pattern(kBlockSize, 3);
  // Sequential writes.
  SimTime t0 = clock_.Now();
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(disk_.WriteBlocks(i, 1, block).ok());
  }
  SimTime seq = clock_.Now() - t0;
  // Scattered writes bounce the arm across the disk.
  t0 = clock_.Now();
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(disk_.WriteBlocks((i * 37) % 1024, 1, block).ok());
  }
  SimTime scattered = clock_.Now() - t0;
  EXPECT_GT(scattered, 2 * seq);
  EXPECT_GT(disk_.seeks(), 0u);
}

TEST_F(SimDiskTest, InjectedFaultSurfaces) {
  disk_.AttachFaults(&faults_);
  disk_.fault_channel()->FailNextOps(1);
  std::vector<uint8_t> buf(kBlockSize);
  EXPECT_EQ(disk_.ReadBlocks(0, 1, buf).code(), ErrorCode::kIoError);
  EXPECT_TRUE(disk_.ReadBlocks(0, 1, buf).ok());  // Next op succeeds.
}

TEST_F(SimDiskTest, AsyncScheduleDoesNotAdvanceClock) {
  auto data = Pattern(kBlockSize, 4);
  Result<SimTime> end = disk_.ScheduleWriteAt(0, 0, 1, data);
  ASSERT_TRUE(end.ok());
  EXPECT_GT(*end, 0u);
  EXPECT_EQ(clock_.Now(), 0u);  // Caller decides when to wait.
}

TEST(SimDiskBusTest, SharedBusSerializes) {
  SimClock clock;
  Resource bus("scsi0");
  SimDisk a("a", 256, Rz57Profile(), &clock, &bus);
  SimDisk b("b", 256, Rz58Profile(), &clock, &bus);
  auto data = Pattern(kBlockSize * 64, 5);
  // Schedule both at t=0: the second must queue behind the first on the bus.
  Result<SimTime> end_a = a.ScheduleWriteAt(0, 0, 64, data);
  Result<SimTime> end_b = b.ScheduleWriteAt(0, 0, 64, data);
  ASSERT_TRUE(end_a.ok());
  ASSERT_TRUE(end_b.ok());
  EXPECT_GE(*end_b, *end_a);
}

TEST(ConcatDriverTest, MapsAcrossComponents) {
  SimClock clock;
  SimDisk a("a", 100, Rz57Profile(), &clock);
  SimDisk b("b", 200, Rz58Profile(), &clock);
  ConcatDriver cat("cat", {&a, &b});
  EXPECT_EQ(cat.NumBlocks(), 300u);
  EXPECT_EQ(cat.ComponentBase(1), 100u);

  // A write spanning the boundary lands in both disks.
  auto data = Pattern(kBlockSize * 4, 6);
  ASSERT_TRUE(cat.WriteBlocks(98, 4, data).ok());
  std::vector<uint8_t> out(kBlockSize * 4);
  ASSERT_TRUE(cat.ReadBlocks(98, 4, out).ok());
  EXPECT_EQ(out, data);

  // Verify the split: component b holds the tail.
  std::vector<uint8_t> tail(kBlockSize * 2);
  ASSERT_TRUE(b.ReadBlocks(0, 2, tail).ok());
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                         data.begin() + kBlockSize * 2));
}

TEST(ConcatDriverTest, RejectsBeyondEnd) {
  SimClock clock;
  SimDisk a("a", 10, Rz57Profile(), &clock);
  ConcatDriver cat("cat", {&a});
  std::vector<uint8_t> buf(kBlockSize);
  EXPECT_EQ(cat.ReadBlocks(10, 1, buf).code(), ErrorCode::kOutOfRange);
}

}  // namespace
}  // namespace hl
